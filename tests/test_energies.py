import dataclasses
import inspect
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import kept_matrices, make_random_measure, orbit_ids, point_row_cases
from rieszcap import energies, measures
from rieszcap.capacity import (
    OptimizerConfig,
    estimate_positive_capacity,
    minimize_wolff_energy,
)
from rieszcap.energies import (
    TruncationWindow,
    WolffExponents,
    ball_mass_double_sum,
    default_eps_sweep,
    energy_report,
    maximal_potential,
    maximal_potential_energy,
    maximal_potential_values,
    riesz_l2_energy,
    symmetrization_energy,
    symmetrization_potential_sq,
    symmetrization_potentials_sq_at_atoms,
    truncated_riesz_transform,
)
from rieszcap.errors import DomainError
from rieszcap.kernels import KernelParams
from rieszcap.measures import (
    CantorSpec,
    DiscreteMeasure,
    cantor_measure,
    cantor_spec_for_dimension,
    maximal_at_atoms,
)
from rieszcap.oracles import (
    _dist,
    naive_ball_mass_double_sum,
    naive_riesz_l2_energy,
    naive_symmetrization_energy,
    naive_symmetrization_potential_sq,
    symmetrization_decomposition,
)

P2 = KernelParams(0.5, 2)
P1 = KernelParams(0.5, 1)


@pytest.fixture
def collinear3():
    return DiscreteMeasure([[0.0], [1.0], [2.0]], np.ones(3), delta=0.5)


def _close_pair_count(mu, eps):
    """Unordered atom pairs at distance in (0, eps]."""
    d = mu.distance_matrix()
    return int(np.count_nonzero(np.triu((d > 0.0) & (d <= eps))))


def _cancelling_measure():
    """Three atoms, one pair within eps: every center sum is exactly zero,
    while the completed square leaves rounding noise."""
    mu = DiscreteMeasure([[0.0, 0.0], [0.3, 0.1], [2.0, 0.7]], [0.7, 1.3, 0.9], delta=0.1)
    return mu, 0.5


def _dense_random_measure(rng):
    """A random cloud at an eps with more than N^2 / 4 close pairs, the
    regime summed center by center."""
    mu = make_random_measure(rng, 16)
    eps = 1.3
    assert _close_pair_count(mu, eps) > mu.size**2 // 4
    return mu, eps


def _wide_cutoff_cantor():
    """n = 2, dimension 0.75, depth 3 Cantor (N = 64) at eps = 256 delta."""
    mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 3))
    return mu, 256.0 * mu.delta


def _close_pair_case(rng, case):
    """Close pairs below the dense threshold: a 16-atom random cloud at eps
    0.4, or the dim-0.75 depth-3 Cantor (N = 64) at eps = 32 delta."""
    if case == "random":
        mu, eps = make_random_measure(rng, 16), 0.4
    else:
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 3))
        eps = 32.0 * mu.delta
    assert 0 < _close_pair_count(mu, eps) <= mu.size**2 // 4
    return mu, eps


SINGLE_PATH_CASES = {
    "cancelling": lambda rng: _cancelling_measure(),
    "dense-close-pairs": _dense_random_measure,
    "wide-cutoff-cantor": lambda rng: _wide_cutoff_cantor(),
}


@st.composite
def clustered_cases(draw):
    """A few tight clusters of atoms, so that close pairs dominate, and an
    eps that sits exactly on one of the measure's own pair distances."""
    size = draw(st.integers(3, 10))
    clusters = draw(st.integers(1, 3))
    spread = draw(st.sampled_from([0.01, 0.05, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.uniform(-1.0, 1.0, size=(clusters, 2))
    atoms = centers[np.arange(size) % clusters] + rng.uniform(-spread, spread, (size, 2))
    gaps = np.linalg.norm(atoms[:, None, :] - atoms[None, :, :], axis=2)
    assume(gaps[np.triu_indices(size, 1)].min() > 1e-3)
    mu = DiscreteMeasure(atoms, rng.uniform(0.3, 1.7, size))
    distances = np.unique(mu.distance_matrix()[np.triu_indices(size, 1)])
    eps = float(distances[draw(st.integers(0, len(distances) - 1))])
    return mu, eps, draw(st.sampled_from([0.25, 0.5, 0.75]))


class TestCutoffTieOracles:
    """eps equal to a matrix distance that a Python sum of squares rounds
    one ulp higher: the oracles must decide the tie as the matrix does."""

    def _tie_case(self):
        rng = np.random.default_rng(108)
        centers = rng.uniform(-1.0, 1.0, size=(2, 2))
        atoms = centers[np.arange(8) % 2] + rng.uniform(-0.01, 0.01, (8, 2))
        mu = DiscreteMeasure(atoms, rng.uniform(0.3, 1.7, 8))
        eps = float(mu.distance_matrix()[4, 6])
        assert _dist(tuple(mu.atoms[4]), tuple(mu.atoms[6])) > eps
        return mu, eps

    def test_matches_naive_at_matrix_tie(self):
        mu, eps = self._tie_case()
        window = TruncationWindow(eps)
        got = symmetrization_energy(mu, P2, window)
        assert got == pytest.approx(naive_symmetrization_energy(mu, 0.5, eps), rel=1e-11)
        got = riesz_l2_energy(mu, P2, eps)
        assert got == pytest.approx(naive_riesz_l2_energy(mu, 0.5, eps), rel=1e-11)
        got = symmetrization_potentials_sq_at_atoms(mu, P2, window)
        want = [naive_symmetrization_potential_sq(mu, x, 0.5, eps) for x in mu.atoms]
        assert np.allclose(got, want, rtol=1e-11, atol=1e-14)


class TestClosePairs:
    """Below the min gap's band no pair is close and no distance row is
    built; from the band on, the mask decides, ties at eps included."""

    @staticmethod
    def _mask_pairs(mu, eps):
        a, b = np.nonzero(np.triu(mu.distance_matrix() <= eps, k=1))
        return np.stack([a, b], axis=1)

    @pytest.mark.parametrize("case", ["random", "cantor"])
    def test_equals_the_mask_around_the_min_gap(self, rng, case):
        if case == "random":
            mu = make_random_measure(rng, 40)
        else:
            # Ratio 0.5: delta is the min gap, and many pairs sit at it.
            mu = cantor_measure(CantorSpec(n=2, ratio=0.5, depth=3))
            assert len(self._mask_pairs(mu, mu.delta)) > 0
        gap, band = mu.min_gap, measures._EXTREME_RTOL
        for eps in (gap * (1.0 - 2.0 * band), gap * (1.0 - 0.5 * band), gap, mu.delta):
            got = energies._close_pairs(mu, eps)
            assert got.dtype == np.intp and got.shape[1] == 2
            assert np.array_equal(got, self._mask_pairs(mu, eps))

    def test_below_the_band_reads_no_matrix(self, rng, monkeypatch):
        mu = make_random_measure(rng, 12)
        calls = _counting(monkeypatch, "_distance_rows")
        pairs = energies._close_pairs(mu, mu.min_gap * (1.0 - 2.0 * measures._EXTREME_RTOL))
        assert pairs.shape == (0, 2) and calls["_distance_rows"] == 0
        energies._close_pairs(mu, mu.min_gap)
        assert calls["_distance_rows"] == 1

    def test_row_blocks_keep_the_row_major_order(self, rng, monkeypatch):
        # 3 rows per block: 40 atoms leave a short last block.
        mu = make_random_measure(rng, 40)
        monkeypatch.setattr(energies, "_DISTANCE_BLOCK_BYTES", 3 * 8 * mu.size)
        for eps in (mu.min_gap, 0.3):
            assert len(self._mask_pairs(mu, eps)) <= mu.size**2 // 4
            got = energies._close_pairs(mu, eps)
            assert got.dtype == np.intp and got.shape[1] == 2
            assert np.array_equal(got, self._mask_pairs(mu, eps))
        # Every pair of [-1, 1]^2 is within eps = 5: dense, so the scan
        # stops at the block that passes N^2 / 4 pairs (row 12, in the 4th
        # of 14 blocks) and returns None.
        calls = _counting(monkeypatch, "_distance_rows")
        assert energies._close_pairs(mu, 5.0) is None
        assert calls["_distance_rows"] == 4


class TestDistanceRowsOnDemand:
    """No energy or optimizer path builds or keeps the N x N distance
    matrix: each builds the distance rows it reads."""

    @staticmethod
    def _cases(rng):
        cantor = cantor_measure(cantor_spec_for_dimension(2, 1.2, 3))
        half = cantor_measure(CantorSpec(n=2, ratio=0.5, depth=3))
        cloud = make_random_measure(rng, 30)
        reps, index = np.unique(cantor._cache["orbits"], return_inverse=True)
        return [
            (cantor, cantor.delta),
            (cantor, 6.0 * cantor.delta),
            # Ratio 0.5: close pairs tie eps = delta.
            (half, half.delta),
            (cloud, 0.3),
            (cloud.with_weights(rng.uniform(0.2, 1.0, cloud.size)), cloud.min_gap),
            (cantor.with_weights(rng.uniform(0.5, 1.5, len(reps))[index]), cantor.delta),
            _cancelling_measure(),
            _dense_random_measure(rng),
        ]

    def test_points_read_the_rows_of_measures(self):
        # A pointwise functional builds no distances of its own: they are
        # rows of ``measures._built_rows``, as at the atoms.
        with open(energies.__file__, encoding="utf-8") as fh:
            source = fh.read()
        assert "np.linalg.norm" not in source and "_squared_distances" not in source
        assert "np.linalg.norm" not in inspect.getsource(measures.ball_profile)

    def test_functionals_and_optimizers_build_no_matrix(self, rng, monkeypatch):
        # Built before the patch: the case helpers count pairs on the matrix.
        cases = self._cases(rng)

        def no_matrix(self):
            raise AssertionError("distance matrix built")

        monkeypatch.setattr(DiscreteMeasure, "distance_matrix", no_matrix)
        cfg = OptimizerConfig(max_iters=15)
        for mu, eps in cases:
            params = KernelParams(0.5, mu.n)
            exps = WolffExponents.matched(params)
            window = TruncationWindow(eps)
            x = mu.atoms[0] + 0.5 * mu.delta
            values = [
                symmetrization_energy(mu, params, window),
                riesz_l2_energy(mu, params, eps),
                truncated_riesz_transform(mu, x, params, eps),
                symmetrization_potentials_sq_at_atoms(mu, params, window),
                symmetrization_potential_sq(mu, x, params, window),
                maximal_potential(mu, x, params, window),
                maximal_potential_values(mu, params, window),
                maximal_potential_energy(mu, params, window),
                maximal_at_atoms(mu, 0.5, eps),
                energies.wolff_potential(mu, x, exps, window),
                energies.wolff_potentials_at_atoms(mu, exps, window),
                energies.wolff_energy(mu, exps, window),
                ball_mass_double_sum(mu, params, window),
                energy_report(mu, params, window).symmetrization,
            ]
            wolff = minimize_wolff_energy(mu, exps, window, cfg)
            positive = estimate_positive_capacity(mu, params, window, cfg)
            assert all(np.all(np.isfinite(v)) for v in values)
            for measure in (mu, wolff.witness, positive.witness):
                # At most the row order of an orbit-free support, R = N.
                assert all(a.dtype == np.intp for a in kept_matrices(measure))


class TestTruncationWindow:
    def test_validation(self):
        with pytest.raises(DomainError):
            TruncationWindow(0.0)
        for eps in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                TruncationWindow(eps)
        # The window is its inner radius alone.
        assert [f.name for f in dataclasses.fields(TruncationWindow)] == ["eps"]
        with pytest.raises(TypeError):
            TruncationWindow(0.5, 2.0)

    def test_scaled(self):
        assert TruncationWindow(0.5).scaled(4.0) == TruncationWindow(2.0)
        with pytest.raises(DomainError):
            TruncationWindow(0.5).scaled(0.0)


class TestSymmetrizationEnergy:
    def test_three_collinear_atoms(self, collinear3):
        got = symmetrization_energy(collinear3, P1, TruncationWindow(0.5))
        assert got == pytest.approx(6 * (math.sqrt(2) - 1), rel=1e-13)

    def test_two_atoms_give_zero(self):
        mu = DiscreteMeasure([[0.0], [1.0]], np.ones(2), delta=0.1)
        assert symmetrization_energy(mu, P1, TruncationWindow(0.1)) == 0.0

    def test_matches_naive(self, rng):
        mu = make_random_measure(rng, 12)
        alpha = 0.45
        params = KernelParams(alpha, 2)
        for eps in (0.03, 0.4):
            got = symmetrization_energy(mu, params, TruncationWindow(eps))
            want = naive_symmetrization_energy(mu, alpha, eps)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("case", sorted(SINGLE_PATH_CASES))
    def test_hard_cases_match_naive(self, rng, case):
        mu, eps = SINGLE_PATH_CASES[case](rng)
        got = symmetrization_energy(mu, P2, TruncationWindow(eps))
        want = naive_symmetrization_energy(mu, 0.5, eps)
        if case == "cancelling":
            assert want == 0.0
            assert got == 0.0
        else:
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n, alpha", [(2, 1.2), (2, 1.7), (3, 2.4)])
    def test_alpha_at_least_one_matches_naive(self, rng, n, alpha):
        # The symmetrization changes sign for alpha >= 1, so the certified
        # parts of the squared potentials sum terms of both signs.
        mu = make_random_measure(rng, 12, n=n)
        params = KernelParams(alpha, n)
        for eps in (0.05, 0.4):
            got = symmetrization_energy(mu, params, TruncationWindow(eps))
            want = naive_symmetrization_energy(mu, alpha, eps)
            assert got == pytest.approx(want, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(clustered_cases())
    def test_clustered_matches_naive(self, case):
        mu, eps, alpha = case
        got = symmetrization_energy(mu, KernelParams(alpha, 2), TruncationWindow(eps))
        want = naive_symmetrization_energy(mu, alpha, eps)
        assert np.allclose(got, want, rtol=1e-11, atol=1e-14)

    def test_monotone_nonincreasing_in_eps(self, rng):
        mu = make_random_measure(rng, 10)
        vals = [
            symmetrization_energy(mu, P2, TruncationWindow(e))
            for e in np.geomspace(0.03, 2.0, 10)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_warns_below_delta(self):
        mu = DiscreteMeasure([[0.0], [1.0], [2.0]], np.ones(3), delta=1.0)
        with pytest.warns(UserWarning):
            symmetrization_energy(mu, P1, TruncationWindow(0.25))

    def test_dimension_mismatch(self, collinear3):
        with pytest.raises(DomainError):
            symmetrization_energy(collinear3, P2, TruncationWindow(0.5))


class TestTruncatedTransform:
    def test_single_atom_unit_distance(self):
        mu = DiscreteMeasure([[1.0, 0.0]], [2.0])
        got = truncated_riesz_transform(mu, [0.0, 0.0], P2, 0.5)
        assert got == pytest.approx([2.0, 0.0])

    def test_symmetric_pair_cancels(self):
        mu = DiscreteMeasure([[1.0, 0.0], [-1.0, 0.0]], np.ones(2))
        got = truncated_riesz_transform(mu, [0.0, 0.0], P2, 0.5)
        assert np.allclose(got, 0.0, atol=1e-16)

    def test_eps_beyond_everything(self):
        mu = DiscreteMeasure([[1.0, 0.0], [-1.0, 0.5]], np.ones(2))
        got = truncated_riesz_transform(mu, [0.0, 0.0], P2, 10.0)
        assert np.array_equal(got, np.zeros(2))

    def test_batch_matches_pointwise(self, rng):
        # A point's legs are one kernel row of the at-atoms pass: the same
        # bits.
        for mu, rows in point_row_cases(rng):
            params = KernelParams(0.5, mu.n)
            for eps in (mu.delta, 0.1):
                batch = energies._transform_at_atoms(mu, 0.5, eps, rows)[0]
                singles = [truncated_riesz_transform(mu, mu.atoms[i], params, eps) for i in rows]
                assert np.array_equal(batch, singles)


class TestRieszL2Energy:
    def test_two_unit_atoms(self):
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], np.ones(2), delta=0.5)
        assert riesz_l2_energy(mu, P2, 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_eps_above_diameter(self, rng):
        mu = make_random_measure(rng, 6)
        assert riesz_l2_energy(mu, P2, 10.0) == 0.0

    def test_matches_naive(self, rng):
        mu = make_random_measure(rng, 12)
        for eps in (0.05, 0.5):
            got = riesz_l2_energy(mu, P2, eps)
            assert got == pytest.approx(naive_riesz_l2_energy(mu, 0.5, eps), rel=1e-12)


class TestDecomposition:
    def test_two_atom_case(self):
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], np.ones(2), delta=0.5)
        dec = symmetrization_decomposition(mu, P2, 0.5)
        assert dec.lhs == pytest.approx(6.0, rel=1e-14)
        assert dec.p_part == 0.0
        assert dec.residual == pytest.approx(6.0, rel=1e-14)
        assert dec.gap == pytest.approx(0.0, abs=1e-12)

    def test_three_atom_residual_closed_form(self, collinear3):
        # eps below the min gap: the residual is exactly the diagonal part
        eps = 0.5
        dec = symmetrization_decomposition(collinear3, P1, eps)
        d = collinear3.distance_matrix()
        w = collinear3.weights
        want = 3.0 * sum(
            w[i] * w[j] ** 2 * d[i, j] ** -1.0
            for i in range(3)
            for j in range(3)
            if d[i, j] > eps
        )
        assert dec.residual == pytest.approx(want, rel=1e-13)
        assert dec.gap == pytest.approx(0.0, abs=1e-13 * dec.lhs)

    def test_identity_with_close_pairs(self, rng):
        # eps large enough that some atom pairs are mutually invisible
        mu = make_random_measure(rng, 15)
        for eps in (0.3, 0.8, 1.3):
            dec = symmetrization_decomposition(mu, P2, eps)
            scale = max(abs(dec.lhs), abs(dec.p_part), abs(dec.residual), 1e-30)
            assert abs(dec.gap) <= 1e-10 * scale


class TestPointwisePotential:
    def test_fewer_than_two_visible(self):
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
        got = symmetrization_potential_sq(mu, [5.0, 0.0], P2, TruncationWindow(0.1))
        assert got == 0.0

    def test_two_atom_example(self):
        mu = DiscreteMeasure([[0.0], [1.0]], np.ones(2), delta=0.5)
        win = TruncationWindow(0.5)
        got = symmetrization_potential_sq(mu, [-1.0], P1, win)
        from rieszcap.kernels import symmetrization

        want = 2.0 * symmetrization([-1.0], [0.0], [1.0], P1)
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(
            naive_symmetrization_potential_sq(mu, [-1.0], 0.5, 0.5), rel=1e-13
        )

    def test_at_an_atom_is_the_direct_recompute(self, rng):
        # The same bits as the completed square's recompute at that atom.
        for mu, rows in point_row_cases(rng):
            params = KernelParams(0.5, mu.n)
            for eps in (mu.delta, 0.3):
                window = TruncationWindow(eps)
                for i in rows:
                    legs = energies._kernel_rows(mu, 0.5, eps, np.array([i]))[0]
                    dist = measures._distance_rows(mu, np.array([i]))[0]
                    base, cross = energies._direct_potential_sq(mu, legs, dist, 0.5, eps)
                    got = symmetrization_potential_sq(mu, mu.atoms[i], params, window)
                    assert got == max(base + cross, 0.0)

    def test_integral_consistency(self, rng):
        mu = make_random_measure(rng, 11)
        win = TruncationWindow(0.07)
        pp = symmetrization_potentials_sq_at_atoms(mu, P2, win)
        total = float(np.dot(mu.weights, pp))
        assert total == pytest.approx(
            symmetrization_energy(mu, P2, win), rel=1e-12
        )

    def test_batched_matches_naive(self, rng):
        mu = make_random_measure(rng, 13)
        win = TruncationWindow(0.2)
        got = symmetrization_potentials_sq_at_atoms(mu, P2, win)
        want = [naive_symmetrization_potential_sq(mu, x, 0.5, 0.2) for x in mu.atoms]
        assert np.allclose(got, want, rtol=1e-11, atol=1e-14)

    @pytest.mark.parametrize("case", sorted(SINGLE_PATH_CASES))
    def test_batched_hard_cases_match_naive(self, rng, case):
        mu, eps = SINGLE_PATH_CASES[case](rng)
        got = symmetrization_potentials_sq_at_atoms(mu, P2, TruncationWindow(eps))
        want = [naive_symmetrization_potential_sq(mu, x, 0.5, eps) for x in mu.atoms]
        assert np.allclose(got, want, rtol=1e-11, atol=1e-14)
        if case == "cancelling":
            assert got.tolist() == [0.0] * mu.size

    @settings(max_examples=100, deadline=None)
    @given(clustered_cases())
    def test_batched_clustered_matches_naive(self, case):
        mu, eps, alpha = case
        got = symmetrization_potentials_sq_at_atoms(
            mu, KernelParams(alpha, 2), TruncationWindow(eps)
        )
        want = [naive_symmetrization_potential_sq(mu, x, alpha, eps) for x in mu.atoms]
        assert np.allclose(got, want, rtol=1e-11, atol=1e-14)

    def test_alpha_domain(self, random_measure):
        with pytest.raises(DomainError):
            symmetrization_potential_sq(
                random_measure, [0.0, 0.0], KernelParams(1.2, 2), TruncationWindow(0.1)
            )


class TestRowBlocks:
    """The completed square's close-pair sums are accumulated over row blocks
    of centers; blocks of one and three rows split every pair's centers."""

    @pytest.mark.parametrize("case", ["random", "cantor-depth-3"])
    def test_small_blocks_match_default_and_naive(self, rng, monkeypatch, case):
        mu, eps = _close_pair_case(rng, case)
        window = TruncationWindow(eps)
        naive_pp = [naive_symmetrization_potential_sq(mu, x, 0.5, eps) for x in mu.atoms]
        # Each ordered triple is summed once around each of its atoms.
        naive_energy = float(np.dot(mu.weights, naive_pp))
        # The certificate recomputes no center here, at any blocking, so
        # every value below comes from the blocked sums.
        calls = _counting(monkeypatch, "_direct_potential_sq")
        energy = symmetrization_energy(mu, P2, window)
        pp = symmetrization_potentials_sq_at_atoms(mu, P2, window)
        for rows in (1, 3):
            monkeypatch.setattr(energies, "_row_block", lambda *args: rows)
            # A fresh measure for each blocking, with and without the
            # symmetry orbits: mu's cache holds the square of the default
            # blocking.
            for fresh in (DiscreteMeasure(mu.atoms, mu.weights, mu.delta), _fresh(mu)):
                blocked_energy = symmetrization_energy(fresh, P2, window)
                blocked_pp = symmetrization_potentials_sq_at_atoms(fresh, P2, window)
                assert blocked_energy == pytest.approx(energy, rel=1e-12)
                assert np.allclose(blocked_pp, pp, rtol=1e-12, atol=0.0)
                assert blocked_energy == pytest.approx(naive_energy, rel=1e-12)
                assert np.allclose(blocked_pp, naive_pp, rtol=1e-11, atol=1e-14)
        assert calls == {"_direct_potential_sq": 0}


def _fresh(mu):
    """The same measure, symmetry orbits included, with nothing computed."""
    return DiscreteMeasure(mu.atoms, mu.weights, mu.delta, mu._orbit_cache())


def _counting(monkeypatch, *names):
    """Wrap module functions of ``energies`` to count their calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(energies, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(energies, name, counted)
    return calls


def _no_close_pairs_cantor():
    """n = 2, dimension 0.75, depth 3 Cantor (N = 64) at eps = delta."""
    mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 3))
    assert _close_pair_count(mu, mu.delta) == 0
    return mu, mu.delta


SQUARE_CASES = {
    "no-close-pairs": lambda rng: _no_close_pairs_cantor(),
    "close-pairs": lambda rng: _close_pair_case(rng, "random"),
    "dense-close-pairs": _dense_random_measure,
}


class TestSquareCache:
    """The completed square is computed once per measure and (alpha, eps)."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    @pytest.mark.parametrize("case", sorted(SQUARE_CASES))
    def test_one_pass_for_three_functionals(self, rng, monkeypatch, case, reverse):
        mu, eps = SQUARE_CASES[case](rng)
        window = TruncationWindow(eps)
        functionals = {
            "symmetrization": lambda m: symmetrization_energy(m, P2, window),
            "riesz_l2": lambda m: riesz_l2_energy(m, P2, eps),
            "combined": lambda m: maximal_potential_energy(m, P2, window),
        }
        want = {name: f(_fresh(mu)) for name, f in functionals.items()}
        calls = _counting(monkeypatch, "_transform_at_atoms", "_close_pairs",
                          "_direct_potential_sq")
        names = sorted(functionals, reverse=reverse)
        got = {name: functionals[name](mu) for name in names}
        # Dense close pairs recompute every center directly, once.
        direct = mu.size if case == "dense-close-pairs" else 0
        assert calls == {"_transform_at_atoms": 1, "_close_pairs": 1,
                         "_direct_potential_sq": direct}
        assert got == want

    def test_dense_square_recomputes_each_center_once(self, rng, monkeypatch):
        mu, eps = _dense_random_measure(rng)
        window = TruncationWindow(eps)
        want = symmetrization_potentials_sq_at_atoms(_fresh(mu), P2, window)
        calls = _counting(monkeypatch, "_direct_potential_sq")
        symmetrization_energy(mu, P2, window)
        assert calls == {"_direct_potential_sq": mu.size}
        got = symmetrization_potentials_sq_at_atoms(mu, P2, window)
        maximal_potential_energy(mu, P2, window)
        assert calls == {"_direct_potential_sq": mu.size}
        assert np.array_equal(got, want)

    def test_certificate_recompute_leaves_the_cache_intact(self, monkeypatch):
        mu, eps = _cancelling_measure()
        window = TruncationWindow(eps)
        calls = _counting(monkeypatch, "_direct_potential_sq")
        first = symmetrization_potentials_sq_at_atoms(mu, P2, window)
        # Every center fails the certificate and is recomputed directly,
        # once: the cache keeps the recomputed parts.
        assert calls == {"_direct_potential_sq": mu.size}
        square = energies._completed_square(mu, 0.5, eps)
        assert not any(array.flags.writeable for array in square)
        energy = symmetrization_energy(mu, P2, window)
        first[:] = 1.0
        again = symmetrization_potentials_sq_at_atoms(mu, P2, window)
        assert calls == {"_direct_potential_sq": mu.size}
        assert np.array_equal(again, symmetrization_potentials_sq_at_atoms(_fresh(mu), P2, window))
        assert energy == symmetrization_energy(_fresh(mu), P2, window)

    def test_other_weights_do_not_see_the_entry(self, rng):
        mu, eps = _close_pair_case(rng, "random")
        window = TruncationWindow(eps)
        symmetrization_energy(mu, P2, window)
        nu = mu.with_weights(rng.uniform(0.3, 1.7, mu.size))
        assert (0.5, eps) in mu._squares
        assert (0.5, eps) not in nu._squares
        energy = symmetrization_energy(nu, P2, window)
        assert energy == symmetrization_energy(_fresh(nu), P2, window)
        assert np.array_equal(symmetrization_potentials_sq_at_atoms(nu, P2, window),
                              symmetrization_potentials_sq_at_atoms(_fresh(nu), P2, window))

    def test_transform_sweep_caches_nothing(self, rng, monkeypatch):
        mu = make_random_measure(rng, 12)
        calls = _counting(monkeypatch, "_close_pairs")
        for eps in (0.05, 0.2, 0.6):
            riesz_l2_energy(mu, P2, eps)
        assert calls == {"_close_pairs": 0}
        assert not mu._squares


_CAPPED_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1200 << 20, 1200 << 20))
import numpy as np
from rieszcap import energies
from rieszcap.kernels import KernelParams
from rieszcap.measures import cantor_measure, cantor_spec_for_dimension
mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 5))
window = energies.TruncationWindow(256.0 * mu.delta)
params = KernelParams(0.5, 2)
np.save(sys.argv[1], np.concatenate([
    [energies.symmetrization_energy(mu, params, window)],
    energies.symmetrization_potentials_sq_at_atoms(mu, params, window),
]))
"""


def test_wide_cutoff_fits_under_address_cap(tmp_path):
    # n = 2, dimension 0.75, depth 5 Cantor (N = 1024) at eps = 256 delta has
    # P = 23712 close pairs; N x P x n leg arrays (370 MiB each) do not fit
    # under a 1200 MiB address space, one row block per pass does.
    mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 5))
    window = TruncationWindow(256.0 * mu.delta)
    assert _close_pair_count(mu, window.eps) == 23712
    out = tmp_path / "values.npy"
    src = os.path.dirname(os.path.dirname(os.path.abspath(energies.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CAPPED_RUN, str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    capped = np.load(out)
    assert np.all(np.isfinite(capped))
    assert capped[0] == pytest.approx(symmetrization_energy(mu, P2, window), rel=1e-12)
    pp = symmetrization_potentials_sq_at_atoms(mu, P2, window)
    assert np.allclose(capped[1:], pp, rtol=1e-12, atol=0.0)


class TestCombinedEnergy:
    def test_single_atom_baseline(self):
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0], delta=1.0)
        got = maximal_potential_energy(mu, P2, TruncationWindow(1.0))
        assert got == pytest.approx(1.0, rel=1e-14)
        assert maximal_potential(mu, [0.0, 0.0], P2, TruncationWindow(1.0)) == (
            pytest.approx(1.0, rel=1e-14)
        )

    def test_schwarz_bound(self, rng):
        mu = make_random_measure(rng, 14)
        win = TruncationWindow(0.05)
        pp = symmetrization_potentials_sq_at_atoms(mu, P2, win)
        left = float(np.dot(mu.weights, np.sqrt(pp)))
        right = math.sqrt(mu.total_mass) * math.sqrt(float(np.dot(mu.weights, pp)))
        assert left <= right * (1 + 1e-12)

    def test_dilation_scaling(self, rng):
        mu = make_random_measure(rng, 10)
        win = TruncationWindow(0.06)
        base = maximal_potential_energy(mu, P2, win)
        lam = 3.0
        scaled = maximal_potential_energy(mu.dilated(lam), P2, win.scaled(lam))
        assert scaled == pytest.approx(base * lam**-0.5, rel=1e-8)

    def test_values_align_with_energy(self, rng):
        mu = make_random_measure(rng, 9)
        win = TruncationWindow(0.1)
        vals = maximal_potential_values(mu, P2, win)
        assert float(np.dot(mu.weights, vals)) == pytest.approx(
            maximal_potential_energy(mu, P2, win), rel=1e-13
        )


def _double_sum_by_parts(mu, alpha, eps):
    """alpha W - 1/2 eps^(-2a) sum_i w_i mu(B(x_i, eps))^2
    + 1/2 sum_i w_i sum_g m_ig^2 r_ig^(-2a): W is the matched Wolff energy,
    g runs over row i's distinct distances r_ig > eps and m_ig is the mass
    at that distance."""
    w = mu.weights
    exps = energies.WolffExponents.matched(KernelParams(alpha, mu.n))
    wolff = energies.wolff_energy(mu, exps, TruncationWindow(eps))
    boundary = ties = 0.0
    for i, row in enumerate(mu.distance_matrix()):
        radii, group = np.unique(row, return_inverse=True)
        mass = np.bincount(group, w)
        far = radii > eps
        boundary += w[i] * w[row <= eps].sum() ** 2
        ties += w[i] * np.sum(mass[far] ** 2 * radii[far] ** (-2.0 * alpha))
    return alpha * wolff - 0.5 * eps ** (-2.0 * alpha) * boundary + 0.5 * ties


# Cantor supports n = 1, 2, 3, the tie-heavy ratio-0.5 Cantor and a random
# cloud of 200 atoms.
BY_PARTS_SUPPORTS = {
    "cantor-n1": lambda rng: cantor_measure(cantor_spec_for_dimension(1, 0.6, 5)),
    "cantor-n2": lambda rng: cantor_measure(cantor_spec_for_dimension(2, 0.75, 3)),
    "cantor-n3": lambda rng: cantor_measure(cantor_spec_for_dimension(3, 1.5, 2)),
    "cantor-ratio-0.5": lambda rng: cantor_measure(CantorSpec(n=2, ratio=0.5, depth=3)),
    "random-200": lambda rng: make_random_measure(rng, 200, min_gap=0.002),
}


class TestDoubleSum:
    def test_two_atoms_exact(self):
        a, b, d = 0.7, 1.3, 0.8
        mu = DiscreteMeasure([[0.0], [d]], [a, b], delta=0.1)
        got = ball_mass_double_sum(mu, P1, TruncationWindow(0.1))
        assert got == pytest.approx(2 * a * b * (a + b) / d, rel=1e-14)

    def test_eps_excludes_far_pairs(self):
        mu = DiscreteMeasure([[0.0], [1.0]], np.ones(2), delta=0.5)
        assert ball_mass_double_sum(mu, P1, TruncationWindow(2.0)) == 0.0

    @pytest.mark.parametrize("case", ["random", "tie-heavy-cantor"])
    def test_matches_naive(self, rng, case):
        if case == "random":
            mu = make_random_measure(rng, 14)
            cutoffs = (0.02, 0.6)
        else:
            # Contraction ratio 0.5: a translated 8 x 8 grid, where many
            # distances from an atom tie and closed balls take whole groups.
            grid = cantor_measure(cantor_spec_for_dimension(2, 2.0, 3)).translated([0.1, 0.3])
            mu = grid.with_weights(rng.uniform(0.3, 1.7, grid.size))
            cutoffs = (mu.delta, 2.5 * mu.delta)
        for eps in cutoffs:
            got = ball_mass_double_sum(mu, P2, TruncationWindow(eps))
            assert got == pytest.approx(naive_ball_mass_double_sum(mu, 0.5, eps), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("support", sorted(BY_PARTS_SUPPORTS))
    def test_wolff_energy_plus_boundary_and_tie_terms(self, rng, support, alpha):
        mu = BY_PARTS_SUPPORTS[support](rng)
        params = KernelParams(alpha, mu.n)
        for factor in (1.0, 2.5, 7.0):
            window = TruncationWindow(factor * mu.delta)
            assert ball_mass_double_sum(mu, params, window) == pytest.approx(
                _double_sum_by_parts(mu, alpha, window.eps), rel=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "closed-ball tie groups are split by exact float equality, so distances "
        "equal in exact arithmetic that round one ulp apart give different rows "
        "within an orbit (ROADMAP item 1: a tie band)"))
    def test_ball_rows_constant_on_orbits(self):
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.9, 2))
        rows = energies._ball_mass_rows(mu, KernelParams(0.75, 2), TruncationWindow(mu.delta))
        ids = orbit_ids(mu)
        np.testing.assert_allclose(rows, rows[ids], rtol=1e-12, atol=0.0)


# Cantor supports n = 1, 2, 3 whose orbits the functionals reduce to.
ORBIT_SUPPORTS = {"n1": (1, 0.6, 5), "n2": (2, 0.75, 3), "n3": (3, 1.5, 2)}
ORBIT_FUNCTIONALS = {
    "symmetrization_energy": lambda m, p, w: symmetrization_energy(m, p, w),
    "riesz_l2_energy": lambda m, p, w: riesz_l2_energy(m, p, w.eps),
    "potentials_sq": lambda m, p, w: symmetrization_potentials_sq_at_atoms(m, p, w),
    "wolff_potentials": lambda m, p, w: energies.wolff_potentials_at_atoms(
        m, energies.WolffExponents.matched(p), w),
    "maximal_at_atoms": lambda m, p, w: maximal_at_atoms(m, p.alpha, w.eps),
    "maximal_potential_energy": lambda m, p, w: maximal_potential_energy(m, p, w),
}


def _orbit_free(mu):
    """The same atoms and weights without symmetry orbits."""
    return DiscreteMeasure(mu.atoms, mu.weights, mu.delta)


def _assert_orbit_free_match(mu, params, window):
    """Every functional of mu equals that of its orbit-free copy at 1e-12."""
    plain = _orbit_free(mu)
    for name, f in ORBIT_FUNCTIONALS.items():
        got, want = np.asarray(f(mu, params, window)), np.asarray(f(plain, params, window))
        scale = float(np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale, err_msg=name)


class TestOrbitReduction:
    """Functionals of orbit-invariant weights read one row per orbit and
    agree with the same atoms and weights without orbits."""

    @pytest.mark.parametrize("factor", [1.0, 4.0, 32.0])
    @pytest.mark.parametrize("support", sorted(ORBIT_SUPPORTS))
    def test_matches_orbit_free_copy(self, support, factor):
        n, dim, depth = ORBIT_SUPPORTS[support]
        mu = cantor_measure(cantor_spec_for_dimension(n, dim, depth))
        assert len(measures._orbit_rows(mu).reps) < mu.size
        _assert_orbit_free_match(mu, KernelParams(0.5, n), TruncationWindow(factor * mu.delta))

    def test_dense_close_pairs(self):
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 2))
        eps = float(np.quantile(mu.distance_matrix(), 0.7))
        assert _close_pair_count(mu, eps) > mu.size**2 // 4
        _assert_orbit_free_match(mu, P2, TruncationWindow(eps))

    def test_certificate_recomputes_representatives_only(self, monkeypatch):
        # With tau = 1 every center fails the certificate; only the R
        # representatives are recomputed.
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 3))
        window = TruncationWindow(8.0 * mu.delta)
        assert _close_pair_count(mu, window.eps) > 0
        monkeypatch.setattr(energies, "CERTIFICATE_TAU", 1.0)
        calls = _counting(monkeypatch, "_direct_potential_sq")
        symmetrization_energy(mu, P2, window)
        assert calls == {"_direct_potential_sq": len(measures._orbit_rows(mu).reps)}
        _assert_orbit_free_match(mu, P2, window)

    def test_transform_is_equivariant(self):
        mu = cantor_measure(cantor_spec_for_dimension(3, 1.5, 2))
        orbits = measures._orbit_rows(mu)
        assert len(orbits.reps) < mu.size
        # The every-row transform is the pointwise transform at each atom.
        r = energies._transform_at_atoms(mu, 0.5, 2.0 * mu.delta, np.arange(mu.size))[0]
        direct = np.array([truncated_riesz_transform(mu, x, KernelParams(0.5, 3), 2.0 * mu.delta)
                           for x in mu.atoms])
        np.testing.assert_allclose(r, direct, rtol=1e-12, atol=1e-12 * np.abs(direct).max())

    def test_weights_off_the_orbits_read_every_row(self, rng, monkeypatch):
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 3))
        nu = mu.with_weights(rng.uniform(0.5, 1.5, mu.size))
        assert len(measures._orbit_rows(nu).reps) == mu.size
        window = TruncationWindow(8.0 * mu.delta)
        monkeypatch.setattr(energies, "CERTIFICATE_TAU", 1.0)
        calls = _counting(monkeypatch, "_direct_potential_sq")
        symmetrization_energy(nu, P2, window)
        assert calls == {"_direct_potential_sq": mu.size}
        monkeypatch.undo()
        # The same code with R = N: bit for bit the orbit-free copy.
        nu, plain = mu.with_weights(nu.weights), _orbit_free(nu)
        for name, f in ORBIT_FUNCTIONALS.items():
            np.testing.assert_array_equal(f(nu, P2, window), f(plain, P2, window), err_msg=name)

    @pytest.mark.parametrize("case", ["random", "cantor-depth-3"])
    def test_each_kernel_row_formed_once(self, rng, monkeypatch, case):
        # One pass: R kernel rows with orbits, N without, at any blocking.
        mu, eps = _close_pair_case(rng, case)
        original = energies._kernel_rows
        formed = []

        def counted(m, alpha, cutoff, rows):
            formed.extend(np.arange(m.size)[rows].tolist())
            return original(m, alpha, cutoff, rows)

        monkeypatch.setattr(energies, "_kernel_rows", counted)
        for rows in (None, 3):
            if rows is not None:
                monkeypatch.setattr(energies, "_row_block", lambda *args: rows)
            for fresh in (_orbit_free(mu), _fresh(mu)):
                formed.clear()
                symmetrization_energy(fresh, P2, TruncationWindow(eps))
                assert formed == measures._orbit_rows(fresh).reps.tolist()

    def test_ball_sum_reads_every_row(self):
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.9, 2))
        params, window = KernelParams(0.75, 2), TruncationWindow(mu.delta)
        assert ball_mass_double_sum(mu, params, window) == ball_mass_double_sum(
            _orbit_free(mu), params, window)


class TestEnergyReport:
    def test_fields_and_rows(self, rng):
        mu = make_random_measure(rng, 8, delta=0.05)
        report = energy_report(mu, P2, TruncationWindow(0.05))
        assert report.n_atoms == 8
        assert report.sup_riesz_l2 >= report.riesz_l2 - 1e-15
        row = report.to_csv_row()
        assert len(row) == len(report.CSV_COLUMNS)
        doc = report.to_json_dict()
        assert doc["N_atoms"] == 8
        assert doc["p_alpha"] == report.symmetrization
        assert doc["E_alpha"] == report.maximal_potential
        assert math.isfinite(doc["M_max"])

    def test_each_functional_evaluated_once(self, monkeypatch):
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 2))
        window = TruncationWindow(mu.delta)
        sweep = default_eps_sweep(mu, window.eps)
        calls = {"maximal": 0, "l2": 0, "transform_at_window": 0}

        def counted_maximal(*args, **kwargs):
            calls["maximal"] += 1
            return maximal_at_atoms(*args, **kwargs)

        def counted_l2(mu_, params, eps):
            calls["l2"] += 1
            return riesz_l2_energy(mu_, params, eps)

        transform = energies._transform_at_atoms

        def counted_transform(mu_, alpha, eps, *args, **kwargs):
            calls["transform_at_window"] += eps == window.eps
            return transform(mu_, alpha, eps, *args, **kwargs)

        monkeypatch.setattr(energies, "maximal_at_atoms", counted_maximal)
        monkeypatch.setattr(energies, "riesz_l2_energy", counted_l2)
        monkeypatch.setattr(energies, "_transform_at_atoms", counted_transform)
        report = energy_report(mu, P2, window)
        assert calls["maximal"] == 1
        assert calls["l2"] == len(sweep) + 1
        assert calls["transform_at_window"] == 1
        assert sweep[0] == window.eps
        monkeypatch.undo()
        # The shared evaluations leave every field bit-identical to the same
        # functional on a measure with an empty cache.
        exps = energies.WolffExponents.matched(P2)
        assert report.symmetrization == symmetrization_energy(_fresh(mu), P2, window)
        assert report.riesz_l2 == riesz_l2_energy(_fresh(mu), P2, window.eps)
        assert report.sup_riesz_l2 == max(riesz_l2_energy(_fresh(mu), P2, float(e)) for e in sweep)
        assert report.wolff == energies.wolff_energy(_fresh(mu), exps, window)
        assert report.maximal_potential == maximal_potential_energy(_fresh(mu), P2, window)
        m_vals = maximal_at_atoms(_fresh(mu), 0.5, r_min=window.eps)
        assert report.max_maximal == float(m_vals.max())


def _equal_weight_cases(rng):
    """Equal-weight measures: a random cloud, and a ratio-0.5 Cantor grid
    whose distance rows tie."""
    mu = make_random_measure(rng, 30)
    grid = cantor_measure(CantorSpec(2, 0.5, 3))
    return [mu.with_weights(np.full(mu.size, 0.25)), grid]


class TestEqualWeightPrefix:
    """Equal weights sum one prefix row for a whole block; the references
    below are the per-row cumsums."""

    def test_ratios(self, rng):
        for mu in _equal_weight_cases(rng):
            near, sorted_d = measures._sort_rows(
                mu.weights, measures._distance_rows(mu, slice(None)))
            assert near.strides == (0, 0)
            for r_min in (mu.delta, 0.0, 0.3):
                vals = measures._ratios(near, sorted_d, 0.5, r_min)
                cum = np.cumsum(near, axis=1)
                ref_r = np.maximum(sorted_d, r_min)
                with np.errstate(divide="ignore", invalid="ignore"):
                    ref = np.where(cum > 0.0, cum / ref_r**0.5, 0.0)
                assert np.array_equal(vals, ref)

    @pytest.mark.parametrize("p", [2.0, 1.5, 1.25])
    def test_wolff_sums(self, rng, p):
        exps = WolffExponents(s=1.5 / p, p=p, n=2)
        beta = energies._wolff_beta(exps)
        for mu in _equal_weight_cases(rng):
            near, sorted_d = measures._sort_rows(
                mu.weights, measures._distance_rows(mu, slice(None)))
            drop = energies._wolff_drops(sorted_d, beta, TruncationWindow(mu.delta))
            ref = (np.cumsum(near, axis=1) ** exps.dual_exp * drop / beta).sum(axis=1)
            assert np.array_equal(energies._wolff_sums(near, drop, exps, beta), ref)

    def test_ball_mass_rows(self, rng):
        for mu in _equal_weight_cases(rng):
            for eps in (mu.delta, 3.0 * mu.delta):
                got = energies._ball_mass_rows(mu, P2, TruncationWindow(eps))
                assert np.array_equal(got, _per_row_cumsum_ball_mass_rows(mu, 0.5, eps))


def _per_row_cumsum_ball_mass_rows(mu, alpha, eps):
    """The double sum's rows with every row's cumulative masses summed on
    its own."""
    per_row = np.empty(mu.size)
    for rows, near, dist in measures._sorted_rows(mu, np.arange(mu.size)):
        cum = np.cumsum(near, axis=1)
        last = np.ones(dist.shape, dtype=bool)
        np.not_equal(dist[:, 1:], dist[:, :-1], out=last[:, :-1])
        mass = np.minimum.accumulate(np.where(last, cum, np.inf)[:, ::-1], axis=1)[:, ::-1]
        with np.errstate(divide="ignore"):
            scale = dist ** (-2.0 * alpha)
        scale[dist <= eps] = 0.0
        per_row[rows] = np.einsum("ij,ij,ij->i", near, mass, scale)
    return per_row


def test_kernel_rows_build_one_legs_array():
    # A 64 x 32 grid in the plane: 256 rows give 4 MiB of distances and
    # 8 MiB of legs.
    atoms = np.stack(np.meshgrid(np.arange(64.0), np.arange(32.0)), axis=-1).reshape(-1, 2)
    mu = DiscreteMeasure(atoms, np.ones(len(atoms)))
    rows = np.arange(256)
    ref = energies._kernel_rows(mu, 0.5, 1.5, rows)
    entries = len(rows) * mu.size
    legs, scale, dist, mask = 8 * entries * mu.n, 8 * entries, 8 * entries, entries
    tracemalloc.start()
    try:
        got = energies._kernel_rows(mu, 0.5, 1.5, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, ref)
    # The distance rows, the scale and the mask, and the legs once: scaling
    # a second (B, N, n) copy of the legs would add 8 MiB.
    assert peak <= legs + scale + dist + mask + (1 << 20)


def test_transform_pass_holds_one_block(monkeypatch):
    # An orbit-free depth-5 Cantor support (N = 1024) with close pairs, in
    # blocks of 32 rows: one kernel block is 8 * 32 * 1024 * 2 = 512 KiB.
    mu = cantor_measure(CantorSpec(2, 0.25, 5))
    mu = DiscreteMeasure(mu.atoms, mu.weights, mu.delta)
    eps = 3.0 * mu.delta
    pairs = energies._close_pairs(mu, eps)
    assert len(pairs) > 0
    block = 32
    monkeypatch.setattr(energies, "_row_block", lambda *args: block)

    def peak(rows):
        tracemalloc.start()
        try:
            energies._transform_at_atoms(mu, 0.5, eps, rows, pairs, mu.weights[rows])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(np.arange(block))
    # The previous block's kernel rows, dot products and terms are freed
    # before the next block is built.
    assert peak(np.arange(4 * block)) - one < 8 * block * mu.size * mu.n
