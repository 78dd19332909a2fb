import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import kept_matrices, make_random_measure, orbit_ids, point_row_cases
from rieszcap import capacity, energies, measures
from rieszcap.capacity import OptimizerConfig, chebyshev_restrict, comparability_report
from rieszcap.energies import (
    TruncationWindow,
    WolffExponents,
    ball_mass_double_sum,
    maximal_potential_energy,
    wolff_energy,
    wolff_potentials_at_atoms,
)
from rieszcap.errors import DomainError, MeasureFormatError, SizeCapError
from rieszcap.kernels import KernelParams
from rieszcap.measures import (
    CantorSpec,
    DiscreteMeasure,
    _extreme_pair_distance,
    _row_order,
    ball_profile,
    cantor_measure,
    cantor_spec_for_dimension,
    maximal_at_atoms,
    maximal_function,
    measure_from_csv,
    measure_from_json,
    measure_to_json,
    merge_measures,
)


class TestDiscreteMeasure:
    def test_basic_invariants(self):
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 1.5])
        assert mu.n == 2 and mu.size == 2
        assert mu.total_mass == 2.0
        assert mu.min_gap == 1.0
        assert mu.delta == 1.0  # defaults to the min gap

    def test_rejects_duplicate_atoms(self):
        with pytest.raises(MeasureFormatError):
            DiscreteMeasure([[0.0], [0.0]], [1.0, 1.0])

    def test_rejects_negative_weights(self):
        with pytest.raises(MeasureFormatError):
            DiscreteMeasure([[0.0], [1.0]], [1.0, -0.1])

    def test_rejects_zero_total(self):
        with pytest.raises(MeasureFormatError):
            DiscreteMeasure([[0.0], [1.0]], [0.0, 0.0])

    def test_rejects_delta_above_gap(self):
        with pytest.raises(MeasureFormatError):
            DiscreteMeasure([[0.0], [1.0]], [1.0, 1.0], delta=1.5)

    def test_zero_weight_atoms_allowed(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.0, 1.0])
        assert mu.total_mass == 1.0

    def test_immutable_arrays(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [1.0, 1.0])
        with pytest.raises(ValueError):
            mu.atoms[0, 0] = 5.0

    def test_distance_matrix_precision_at_small_scales(self):
        # atoms 1e-10 apart on O(1) coordinates: the matrix must come from
        # direct differences, not the Gram shortcut
        base = 0.7031490213
        mu = DiscreteMeasure([[base, 0.3], [base + 1e-10, 0.3]], [1.0, 1.0])
        d = mu.distance_matrix()
        assert d[0, 1] == pytest.approx(1e-10, rel=1e-5)

    def test_dilated_translated(self):
        mu = DiscreteMeasure([[0.0, 1.0], [2.0, 0.0]], [1.0, 2.0], delta=0.5)
        shifted = mu.translated([1.0, 1.0])
        assert np.allclose(shifted.atoms, mu.atoms + 1.0)
        scaled = mu.dilated(3.0)
        assert scaled.delta == 1.5
        assert np.allclose(scaled.atoms, 3.0 * mu.atoms)
        assert scaled.total_mass == mu.total_mass

    def test_with_weights_keeps_geometry(self, rng):
        mu = make_random_measure(rng, 10)
        order = _row_order(mu)
        diameter = mu.diameter
        w = rng.uniform(0.0, 1.0, mu.size)
        nu = mu.with_weights(w)
        assert nu.atoms is mu.atoms
        assert _row_order(nu) is order
        assert order.dtype == np.intp and not order.flags.writeable
        assert nu.min_gap == mu.min_gap and nu.delta == mu.delta
        assert nu.diameter == diameter
        assert np.array_equal(nu.weights, w)
        # One geometry for the support; completed squares per measure.
        assert nu._cache is mu._cache
        assert nu._squares is not mu._squares

    def test_geometry_built_on_a_reweighted_measure_serves_the_original(self, rng):
        mu = make_random_measure(rng, 10)
        nu = mu.with_weights(rng.uniform(0.1, 1.0, mu.size))
        order = _row_order(nu)
        diameter = nu.diameter
        assert mu._cache is nu._cache
        assert mu._cache["order"] is order and _row_order(mu) is order
        assert mu._cache["diameter"] == diameter

    def test_with_weights_of_its_own_weights_is_the_measure(self, rng):
        mu = make_random_measure(rng, 10)
        assert mu.with_weights(mu.weights.copy()) is mu
        assert mu.with_weights(mu.weights.tolist()) is mu
        assert mu.with_weights(mu.weights[:, None]) is mu
        other = mu.weights.copy()
        other[3] = np.nextafter(other[3], 2.0)
        assert mu.with_weights(other) is not mu

    def test_with_weights_before_geometry_is_built(self, rng):
        mu = make_random_measure(rng, 6)
        nu = mu.with_weights(np.ones(mu.size))
        assert np.array_equal(nu.distance_matrix(), mu.distance_matrix())

    @pytest.mark.parametrize(
        "weights",
        [
            [1.0, math.nan, 1.0, 1.0],
            [1.0, -0.5, 1.0, 1.0],
            [1.0, 1.0, 1.0],
            [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
            [0.0, 0.0, 0.0, 0.0],
            [1.0, math.inf, 1.0, 1.0],
        ],
        ids=["nan", "negative", "short", "misaligned", "zero-total", "inf"],
    )
    def test_with_weights_still_checks_weights(self, weights):
        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], np.ones(4))
        mu.distance_matrix()
        with pytest.raises(MeasureFormatError):
            mu.with_weights(weights)


def _einsum_distances(atoms):
    """The distance matrix as an einsum over the (N, N, n) differences."""
    diffs = atoms[:, None, :] - atoms[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    np.fill_diagonal(d, 0.0)
    return d


class TestDistanceGeometry:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_distance_matrix_equals_einsum_form(self, monkeypatch, rng, n):
        # 7 rows per block: 40 and 101 atoms leave a short last block.
        monkeypatch.setattr(measures, "_DISTANCE_BLOCK_BYTES", 7 * 8 * 101)
        for size in (2, 40, 101):
            atoms = rng.normal(size=(size, n)) * 10.0 ** rng.uniform(-3, 3, size=n)
            d = DiscreteMeasure(atoms, np.ones(size)).distance_matrix()
            assert np.array_equal(d, _einsum_distances(atoms))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cantor_distance_matrix_equals_einsum_form(self, n):
        mu = cantor_measure(cantor_spec_for_dimension(n, 0.7 * n, 9 // n, base=1.3))
        assert np.array_equal(mu.distance_matrix(), _einsum_distances(mu.atoms))

    @staticmethod
    def _assert_rows_match(mu):
        d = mu.distance_matrix()
        reps = np.unique(orbit_ids(mu))
        for rows in (slice(None), slice(3, mu.size - 2), slice(5, 6), slice(4, 4),
                     reps, np.array([mu.size - 1, 0, 2]), np.array([7]),
                     np.array([], dtype=int)):
            got = measures._distance_rows(mu, rows)
            assert got.shape == d[rows].shape
            assert np.array_equal(got, d[rows])
            assert np.array_equal(got, _einsum_distances(mu.atoms)[rows])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_distance_rows_are_the_matrix_rows(self, monkeypatch, rng, n):
        # 7 rows per block: a row's bits do not depend on its block.
        monkeypatch.setattr(measures, "_DISTANCE_BLOCK_BYTES", 7 * 8 * 101)
        atoms = rng.normal(size=(101, n)) * 10.0 ** rng.uniform(-3, 3, size=n)
        self._assert_rows_match(DiscreteMeasure(atoms, np.ones(101)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cantor_distance_rows_are_the_matrix_rows(self, monkeypatch, n):
        mu = cantor_measure(cantor_spec_for_dimension(n, 0.7 * n, 9 // n, base=1.3))
        # 5 rows per block: the orbit representatives straddle blocks.
        monkeypatch.setattr(measures, "_DISTANCE_BLOCK_BYTES", 5 * 8 * mu.size)
        self._assert_rows_match(mu)

    def test_representative_rows_are_built_once(self, monkeypatch):
        mu = cantor_measure(CantorSpec(n=2, ratio=0.25, depth=3))
        reps = np.unique(orbit_ids(mu))
        built = []
        squared = measures._squared_distances

        def counting(a, b, out):
            built.append(len(a))
            return squared(a, b, out)

        monkeypatch.setattr(measures, "_squared_distances", counting)
        got = measures._distance_rows(mu, reps[2:5])
        position, at_reps = mu._cache["rep_rows"]
        assert at_reps.shape == (len(reps), mu.size) and not at_reps.flags.writeable
        assert sum(built) == len(reps)
        assert np.array_equal(got, _einsum_distances(mu.atoms)[reps[2:5]])
        assert np.array_equal(measures._distance_rows(mu, reps[::-1]), at_reps[::-1])
        assert sum(built) == len(reps)
        # Rows that are not all representatives are built on demand.
        other = np.setdiff1d(np.arange(mu.size), reps)[0]
        measures._distance_rows(mu, np.array([reps[0], other]))
        assert sum(built) == len(reps) + 2

    def test_distance_matrix_is_built_afresh(self, rng):
        mu = make_random_measure(rng, 10)
        d = mu.distance_matrix()
        assert mu.distance_matrix() is not d
        assert kept_matrices(mu) == []

    def test_consecutive_representatives_are_a_view(self):
        mu = cantor_measure(CantorSpec(n=2, ratio=0.25, depth=3))
        reps = np.unique(orbit_ids(mu))
        want = _einsum_distances(mu.atoms)
        got = measures._distance_rows(mu, reps[2:5])
        _, at_reps = mu._cache["rep_rows"]
        assert np.shares_memory(got, at_reps) and not got.flags.writeable
        assert np.array_equal(got, want[reps[2:5]])
        backwards = measures._distance_rows(mu, reps[::-1])
        assert np.array_equal(backwards, want[reps[::-1]])

    def test_only_measures_touches_the_cache(self):
        # The rule for which rows a support keeps lives in one module.
        for path in Path(measures.__file__).parent.glob("*.py"):
            if path.name != "measures.py":
                assert "._cache" not in path.read_text(encoding="utf-8"), path.name

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_extreme_pair_distance_matches_brute_force(self, monkeypatch, rng, n):
        monkeypatch.setattr(measures, "_DISTANCE_BLOCK_BYTES", 5 * 8 * 61)
        for size in (1, 2, 3, 61):
            atoms = rng.normal(size=(size, n)) * 10.0 ** rng.uniform(-6, 6, size=n)
            d = np.linalg.norm(atoms[:, None, :] - atoms[None, :, :], axis=2)
            assert _extreme_pair_distance(atoms, largest=True) == d.max()
            np.fill_diagonal(d, np.inf)
            assert _extreme_pair_distance(atoms) == d.min()


class TestMemoryGuard:
    """Large allocations are refused up front, tested on the estimate alone:
    the budget reader is patched, and nothing large is allocated."""

    @staticmethod
    def _refuse_rows(monkeypatch, budget):
        monkeypatch.setattr(measures, "_memory_budget", lambda: budget)

        def no_rows(*args):
            raise AssertionError("distance rows built past the budget")

        monkeypatch.setattr(measures, "_distance_rows", no_rows)

    def test_budget_is_a_positive_share_of_the_memory(self):
        assert measures._memory_budget() > 0.0

    def test_distance_matrix_over_budget(self, monkeypatch, rng):
        mu = make_random_measure(rng, 12)
        self._refuse_rows(monkeypatch, 8 * 12 * 12 - 1)
        with pytest.raises(SizeCapError, match="distance matrix"):
            mu.distance_matrix()

    @pytest.mark.parametrize("trivial", [False, True])
    def test_row_order_over_budget(self, monkeypatch, trivial):
        # With the trivial symmetry group, as refinement runs, R = N.
        mu = cantor_measure(CantorSpec(n=2, ratio=0.25, depth=3))
        if trivial:
            mu = DiscreteMeasure(mu.atoms, mu.weights, mu.delta,
                                 {"orbits": np.arange(mu.size)})
        reps = len(np.unique(mu._cache["orbits"]))
        self._refuse_rows(monkeypatch, 8 * reps * mu.size - 1)
        with pytest.raises(SizeCapError, match="order"):
            _row_order(mu)
        assert "order" not in mu._cache

    def test_representative_rows_over_budget(self, monkeypatch):
        mu = cantor_measure(CantorSpec(n=2, ratio=0.25, depth=3))
        reps = np.unique(mu._cache["orbits"])
        monkeypatch.setattr(measures, "_memory_budget", lambda: 8 * len(reps) * mu.size - 1)

        def no_rows(*args):
            raise AssertionError("distance rows built past the budget")

        monkeypatch.setattr(measures, "_built_rows", no_rows)
        with pytest.raises(SizeCapError, match="representatives"):
            measures._distance_rows(mu, reps)
        assert "rep_rows" not in mu._cache

    def test_refinement_matrix_over_budget(self, monkeypatch):
        # Refinement keeps every row and its order (16 N^2 bytes), and each
        # subgradient adds a ball mask and its float64 copy: 25 N^2 bytes,
        # refused before anything is built.  A budget above the kept
        # arrays alone must refuse too.
        mu = cantor_measure(CantorSpec(n=2, ratio=0.25, depth=2))
        params = KernelParams(0.5, 2)

        def no_rows(*args):
            raise AssertionError("distance rows built past the budget")

        monkeypatch.setattr(measures, "_built_rows", no_rows)
        for share in (8, 16, 24):
            monkeypatch.setattr(measures, "_memory_budget", lambda: share * mu.size**2)
            with pytest.raises(SizeCapError, match="refinement"):
                capacity._refine_combined(mu, params, TruncationWindow(mu.delta),
                                          mu.weights, OptimizerConfig())
            assert kept_matrices(mu) == []

    def test_wolff_objective_over_budget(self, monkeypatch):
        # Seven (R, N) arrays at once: the kept rows and order, flat, drop
        # and three per step.
        mu = cantor_measure(CantorSpec(n=2, ratio=0.25, depth=3))
        reps = len(np.unique(mu._cache["orbits"]))
        estimate = 7 * 8 * reps * mu.size
        params = KernelParams(0.5, 2)
        args = (mu, WolffExponents.matched(params), TruncationWindow(mu.delta))
        self._refuse_rows(monkeypatch, estimate - 1)
        with pytest.raises(SizeCapError, match="Wolff objective"):
            capacity._WolffObjective(*args)
        assert "order" not in mu._cache
        monkeypatch.undo()
        monkeypatch.setattr(measures, "_memory_budget", lambda: estimate)
        capacity._WolffObjective(*args)
        assert _row_order(mu).shape == (reps, mu.size)

    def test_direct_potential_over_budget(self, monkeypatch, rng):
        mu = make_random_measure(rng, 12)
        # All 12 atoms are farther than eps from this point.
        x, eps = mu.atoms.mean(axis=0) + 100.0, mu.min_gap
        monkeypatch.setattr(measures, "_memory_budget", lambda: 3 * 8 * 12 * 12 - 1)

        built = energies._built_rows

        def point_row_only(sources, targets):
            if len(sources) > 1:
                raise AssertionError("S x S distances built past the budget")
            return built(sources, targets)

        monkeypatch.setattr(energies, "_built_rows", point_row_only)
        with pytest.raises(SizeCapError, match="direct squared potential"):
            energies.symmetrization_potential_sq(mu, x, KernelParams(0.5, 2),
                                                 TruncationWindow(eps))


class TestCantorGenerator:
    def test_depth_one_quarter_ratio(self):
        mu = cantor_measure(CantorSpec(n=2, ratio=0.25, depth=1))
        assert mu.size == 4
        assert np.allclose(sorted(mu.weights), [0.25] * 4)
        got = {tuple(a) for a in np.round(mu.atoms, 10)}
        want = {(0.125, 0.125), (0.125, 0.875), (0.875, 0.125), (0.875, 0.875)}
        assert got == want
        assert mu.delta == 0.25

    def test_depth_three_min_gap_against_brute_force(self):
        mu = cantor_measure(CantorSpec(n=2, ratio=0.25, depth=3))
        assert mu.size == 64
        brute = min(
            np.linalg.norm(a - b)
            for i, a in enumerate(mu.atoms)
            for b in mu.atoms[i + 1 :]
        )
        assert mu.min_gap == pytest.approx(brute, rel=1e-15)
        # nearest atoms are same-parent cell centers: (1 - ratio) * parent side
        assert brute == pytest.approx(0.75 * 0.25**2, rel=1e-12)
        assert mu.delta <= brute

    def test_similarity_dimension_matches_alpha(self):
        spec = cantor_spec_for_dimension(2, 0.5, 1)
        assert spec.ratio == pytest.approx(4.0 ** (-1 / 0.5))
        assert spec.similarity_dimension == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_min_gap_and_diameter_match_norm_bitwise(self, rng, n):
        clouds = [rng.normal(size=(size, n)) * 10.0 ** rng.uniform(-6, 6, size=n)
                  for size in (2, 3, 40, 1100)]
        clouds.append(cantor_measure(cantor_spec_for_dimension(n, 0.7 * n, 8 // n,
                                                               base=1.3)).atoms)
        for atoms in clouds:
            d = np.linalg.norm(atoms[:, None, :] - atoms[None, :, :], axis=2)
            mu = DiscreteMeasure(atoms, np.ones(len(atoms)))
            assert mu.diameter == d.max()
            np.fill_diagonal(d, np.inf)
            assert mu.min_gap == d.min()

    def test_deterministic_bit_identical(self):
        a = cantor_measure(CantorSpec(n=2, ratio=0.3, depth=4))
        b = cantor_measure(CantorSpec(n=2, ratio=0.3, depth=4))
        assert np.array_equal(a.atoms, b.atoms)
        assert np.array_equal(a.weights, b.weights)
        assert measure_to_json(a) == measure_to_json(b)

    def test_atom_cap(self):
        with pytest.raises(SizeCapError):
            CantorSpec(n=2, ratio=0.25, depth=9)
        CantorSpec(n=2, ratio=0.25, depth=9, max_atoms=4**9)

    def test_ratio_range(self):
        with pytest.raises(DomainError):
            CantorSpec(n=2, ratio=0.6, depth=1)
        with pytest.raises(DomainError):
            cantor_spec_for_dimension(2, 2.5, 1)


# (n, dimension): every corner-Cantor family the orbit tests cover.
ORBIT_FAMILIES = [(1, 0.6), (2, 0.75), (3, 1.5)]


def _cube_symmetries(n):
    """(permutation, signs) of every symmetry of the n-cube about its center."""
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1.0, -1.0), repeat=n):
            yield list(perm), np.array(signs)


def _matched_images(mu, center, perm, signs):
    """Index of the atom nearest to each atom's image, and the distance."""
    image = center + signs * (mu.atoms - center)[:, perm]
    dist = np.linalg.norm(image[:, None, :] - mu.atoms[None, :, :], axis=2)
    match = np.argmin(dist, axis=1)
    return match, dist[np.arange(mu.size), match]


class TestCantorOrbits:
    """Orbit ids come from the construction: each orbit is exactly the set
    of atoms that the cube's symmetries map an atom to."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("family", ORBIT_FAMILIES, ids=["n1", "n2", "n3"])
    def test_orbits_are_the_cube_symmetries(self, family, depth):
        n, dim = family
        spec = cantor_spec_for_dimension(n, dim, depth, base=1.7, offset=np.linspace(-0.4, 0.9, n))
        mu = cantor_measure(spec)
        ids = orbit_ids(mu)
        assert np.array_equal(ids[ids], ids) and np.all(ids <= np.arange(mu.size))
        center = 0.5 * spec.base + np.asarray(spec.offset)
        reached = [set() for _ in range(mu.size)]
        for perm, signs in _cube_symmetries(n):
            match, miss = _matched_images(mu, center, perm, signs)
            assert miss.max() <= 1e-12 * spec.base
            assert np.array_equal(ids[match], ids)
            for i, j in enumerate(match):
                reached[i].add(int(j))
        for i in range(mu.size):
            assert reached[i] == set(np.flatnonzero(ids == ids[i]).tolist())

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("family", ORBIT_FAMILIES, ids=["n1", "n2", "n3"])
    def test_orbit_members_share_sorted_distance_rows(self, family, depth):
        mu = cantor_measure(cantor_spec_for_dimension(*family, depth))
        ids = orbit_ids(mu)
        rows = np.sort(mu.distance_matrix(), axis=1)
        np.testing.assert_allclose(rows, rows[ids], rtol=1e-14, atol=0.0)

    def test_orbit_counts(self):
        # The hyperoctahedral group has order 2, 8 and 48 for n = 1, 2, 3.
        counts = {
            (n, depth): len(np.unique(orbit_ids(
                cantor_measure(cantor_spec_for_dimension(n, dim, depth)))))
            for n, dim in ORBIT_FAMILIES for depth in (0, 1, 2, 3)
        }
        assert counts == {
            (1, 0): 1, (1, 1): 1, (1, 2): 2, (1, 3): 4,
            (2, 0): 1, (2, 1): 1, (2, 2): 3, (2, 3): 10,
            (3, 0): 1, (3, 1): 1, (3, 2): 4, (3, 3): 20,
        }

    def test_translation_and_dilation_keep_orbits(self, rng):
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 3))
        ids = orbit_ids(mu)
        assert len(np.unique(ids)) < mu.size
        moved = mu.translated([0.3, -1.2]).dilated(2.5)
        assert orbit_ids(moved) is ids
        assert orbit_ids(moved.with_weights(rng.uniform(0.1, 1.0, mu.size))) is ids
        # The moved atoms keep the symmetries about the moved center.
        center = 2.5 * (np.array([0.5, 0.5]) + [0.3, -1.2])
        for perm, signs in _cube_symmetries(2):
            match, miss = _matched_images(moved, center, perm, signs)
            assert miss.max() <= 1e-12
            assert np.array_equal(ids[match], ids)

    def test_weights_off_the_orbits_give_singleton_rows(self, rng):
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 2))
        assert len(measures._orbit_rows(mu).reps) == 3
        w = mu.weights.copy()
        w[1] = np.nextafter(w[1], 1.0)
        for nu in (mu.with_weights(w), DiscreteMeasure(mu.atoms, mu.weights, mu.delta)):
            orbits = measures._orbit_rows(nu)
            assert np.array_equal(orbits.reps, np.arange(mu.size))
            assert np.array_equal(orbits.index, np.arange(mu.size))

    def test_other_measures_have_singleton_orbits(self, monkeypatch):
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 2))
        singleton = np.arange(mu.size)
        built = [
            DiscreteMeasure(mu.atoms, mu.weights, mu.delta),
            measure_from_json(measure_to_json(mu)),
            chebyshev_restrict(mu, np.ones(mu.size), 1.0),
        ]
        for nu in built:
            assert np.array_equal(orbit_ids(nu), singleton)
        union = merge_measures(mu, mu.translated([3.0, 0.0]))
        assert np.array_equal(orbit_ids(union), np.arange(union.size))
        supports = []
        optimize = capacity.minimize_wolff_energy

        def recorded(support, *args, **kwargs):
            supports.append(support)
            return optimize(support, *args, **kwargs)

        monkeypatch.setattr(capacity, "minimize_wolff_energy", recorded)
        capacity.bilipschitz_experiment(mu, "rotation", 0.5, TruncationWindow(mu.delta),
                                        OptimizerConfig(max_iters=5))
        # Both sides of the experiment run on singleton orbits.
        assert [np.array_equal(orbit_ids(nu), singleton) for nu in supports] == [True] * 2


class TestBallProfile:
    def test_single_atom(self):
        mu = DiscreteMeasure([[3.0, 0.0]], [1.5])
        prof = ball_profile(mu, [0.0, 0.0])
        assert prof.radii.tolist() == [3.0]
        assert prof.masses.tolist() == [1.5]
        assert prof.mass_at(2.9) == 0.0
        assert prof.mass_at(3.0) == 1.5  # closed ball

    def test_center_on_atom(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.7, 0.3])
        prof = ball_profile(mu, [0.0])
        assert prof.radii[0] == 0.0
        assert prof.masses[0] >= 0.7

    def test_ties_merged(self):
        mu = DiscreteMeasure([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], np.ones(3))
        prof = ball_profile(mu, [0.0, 0.0])
        assert len(prof.radii) == 1
        assert prof.masses[0] == 3.0

    def test_radii_are_the_distance_row(self, rng):
        # At an atom the profile reads the atom's own distance row.
        mu = make_random_measure(rng, 20, n=3)
        d = mu.distance_matrix()
        for i, x in enumerate(mu.atoms):
            assert np.array_equal(ball_profile(mu, x).radii, np.unique(d[i]))

    def test_against_counting_oracle(self, rng):
        mu = make_random_measure(rng, 20)
        x = rng.uniform(-1.5, 1.5, size=2)
        prof = ball_profile(mu, x)
        dists = np.linalg.norm(mu.atoms - x, axis=1)
        for r in rng.uniform(0.0, 3.0, size=50):
            assert prof.mass_at(float(r)) == pytest.approx(
                float(mu.weights[dists <= r].sum()), rel=1e-14, abs=1e-300
            )


class TestMaximalFunction:
    def test_single_atom(self):
        mu = DiscreteMeasure([[2.0, 0.0]], [1.5])
        assert maximal_function(mu, [0.0, 0.0], 0.5) == pytest.approx(
            1.5 / 2.0**0.5, rel=1e-14
        )

    def test_infinite_at_atom(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [1.0, 1.0])
        assert maximal_function(mu, [0.0], 0.5) == math.inf

    def test_three_collinear_atoms(self):
        mu = DiscreteMeasure([[0.0], [1.0], [2.0]], np.ones(3))
        got = maximal_function(mu, [-1.0], 0.5)
        assert got == pytest.approx(math.sqrt(3.0), rel=1e-14)

    def test_restricted_supremum_is_finite_at_atoms(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [1.0, 1.0], delta=0.5)
        # candidates: self mass at the clamp radius, both atoms at r = 1
        got = maximal_function(mu, [0.0], 0.5, r_min=0.5)
        assert got == pytest.approx(max(1.0 / 0.5**0.5, 2.0), rel=1e-14)
        solo = DiscreteMeasure([[0.0]], [1.0], delta=0.5)
        assert maximal_function(solo, [0.0], 0.5, r_min=0.5) == pytest.approx(
            1.0 / 0.5**0.5, rel=1e-14
        )

    def test_batched_matches_pointwise(self, rng):
        # A point's row is one row of the at-atoms pass: the same bits.
        for mu, rows in point_row_cases(rng):
            for r_min, r_max in ((mu.delta, math.inf), (4.0 * mu.delta, 0.9)):
                batch = maximal_at_atoms(mu, 0.6, r_min=r_min, r_max=r_max)
                singles = [
                    maximal_function(mu, mu.atoms[i], 0.6, r_min=r_min, r_max=r_max)
                    for i in rows
                ]
                assert np.array_equal(batch[rows], singles)
        # r_max < r_min leaves no admissible radius, so no ball counts.
        line = DiscreteMeasure([[0.0], [1.0], [3.0]], np.ones(3))
        batch = maximal_at_atoms(line, 0.5, r_min=2.0, r_max=1.5)
        singles = [maximal_function(line, x, 0.5, r_min=2.0, r_max=1.5) for x in line.atoms]
        assert batch.tolist() == singles == [0.0, 0.0, 0.0]

    def test_alpha_must_be_positive(self):
        mu = DiscreteMeasure([[0.0]], [1.0])
        with pytest.raises(DomainError):
            maximal_function(mu, [1.0], 0.0)


class TestRowOrderCache:
    def test_one_row_sort_per_support(self, monkeypatch):
        sorts = []
        argsort = np.argsort

        def counting_argsort(a, *args, **kwargs):
            if np.ndim(a) == 2:
                sorts.append(a.shape)
            return argsort(a, *args, **kwargs)

        # Built before counting: cantor_measure sorts each atom's digits.
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 3))
        reps = len(np.unique(mu._cache["orbits"]))
        assert reps < mu.size
        monkeypatch.setattr(np, "argsort", counting_argsort)
        params = KernelParams(0.5, 2)
        window = TruncationWindow(mu.delta)
        wolff_energy(mu, WolffExponents.matched(params), window)
        ball_mass_double_sum(mu, params, window)
        maximal_potential_energy(mu, params, window)
        report = comparability_report(mu, 0.5, window, OptimizerConfig(max_iters=20))
        # The witness's weights are unequal and constant on the orbits: its
        # rows at the representatives read the support's cached order.
        maximal_potential_energy(report.wolff_proxy.witness, params, window)
        assert sorts == [(reps, mu.size)]

    @pytest.mark.parametrize("n, ratio, depth", [(1, 0.3, 6), (2, 0.5, 3), (3, 0.25, 2)])
    def test_order_holds_the_representative_rows(self, n, ratio, depth):
        mu = cantor_measure(CantorSpec(n=n, ratio=ratio, depth=depth))
        reps = np.unique(mu._cache["orbits"])
        order = _row_order(mu)
        full = np.argsort(mu.distance_matrix(), axis=1, kind="stable")
        assert order.shape == (len(reps), mu.size) and len(reps) < mu.size
        assert np.array_equal(order, full[reps])
        free = DiscreteMeasure(mu.atoms, mu.weights, mu.delta)
        assert np.array_equal(_row_order(free), full)

    def test_rows_off_the_order_are_sorted_per_block(self, monkeypatch, rng):
        # Unequal weights constant on the orbits: the ball sum reads every
        # row, which the representatives' order does not hold.
        mu = cantor_measure(CantorSpec(n=2, ratio=0.5, depth=3))
        reps, index = np.unique(mu._cache["orbits"], return_inverse=True)
        nu = mu.with_weights(rng.uniform(0.5, 1.5, len(reps))[index])
        free = DiscreteMeasure(nu.atoms, nu.weights, nu.delta)
        params = KernelParams(0.5, 2)
        window = TruncationWindow(nu.delta)
        order = _row_order(nu)
        monkeypatch.setattr(measures, "_SORTED_BLOCK_BYTES", 5 * 8 * mu.size)
        got = ball_mass_double_sum(nu, params, window)
        assert _row_order(nu) is order and order.shape == (len(reps), mu.size)
        assert got == ball_mass_double_sum(free, params, window)

    def test_refinement_sorts_every_row_once(self, monkeypatch):
        # The iterates' weights leave the orbits, so every step reads every
        # row: the support's order of every row is built once and shared.
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 3))
        params = KernelParams(0.5, 2)
        window = TruncationWindow(mu.delta)
        report = comparability_report(mu, 0.5, window, OptimizerConfig(max_iters=20))
        witness = report.wolff_proxy.witness
        sorts = []
        argsort = np.argsort

        def counting_argsort(a, *args, **kwargs):
            if np.ndim(a) == 2:
                sorts.append(a.shape)
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        _, _, diag = capacity._refine_combined(mu, params, window, witness.weights,
                                               OptimizerConfig())
        assert diag["iterations"] > 1
        assert sorts == [(mu.size, mu.size)]

    def test_refinement_builds_the_distance_matrix_once(self, monkeypatch):
        # Its iterates read every row: on its copy with the trivial symmetry
        # group every row is a representative's, built once and kept.
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 3))
        params = KernelParams(0.5, 2)
        window = TruncationWindow(mu.delta)
        report = comparability_report(mu, 0.5, window, OptimizerConfig(max_iters=20))
        assert kept_matrices(mu) == []
        built = []
        squared = measures._squared_distances

        def counting(a, b, out):
            built.append(len(a))
            return squared(a, b, out)

        monkeypatch.setattr(measures, "_squared_distances", counting)
        _, _, diag = capacity._refine_combined(mu, params, window,
                                               report.wolff_proxy.witness.weights,
                                               OptimizerConfig())
        assert diag["iterations"] > 1
        assert sum(built) == mu.size
        assert kept_matrices(mu) == []

    def test_equal_weights_build_no_order(self, monkeypatch, rng):
        # Built before counting: cantor_measure sorts each atom's digits.
        cantor = cantor_measure(cantor_spec_for_dimension(2, 0.75, 3))
        free = DiscreteMeasure(cantor.atoms, cantor.weights, delta=cantor.delta)
        cloud = DiscreteMeasure(rng.uniform(0.0, 1.0, (40, 2)), np.ones(40))
        sorts = []
        argsort = np.argsort

        def counting_argsort(a, *args, **kwargs):
            sorts.append(np.shape(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        params = KernelParams(0.5, 2)
        exps = WolffExponents.matched(params)
        for mu in (cantor, free, cloud):
            window = TruncationWindow(mu.delta)
            wolff_energy(mu, exps, window)
            ball_mass_double_sum(mu, params, window)
            maximal_potential_energy(mu, params, window)
            assert "order" not in mu._cache
        assert sorts == []

    def test_row_blocks_give_bitwise_equal_results(self, monkeypatch, rng):
        # Ratio 0.5 puts many atoms at equal distances: long tie groups.
        # Uniform weights take the value-sorted rows, the others the order.
        mu = cantor_measure(CantorSpec(n=2, ratio=0.5, depth=4))
        nu = mu.with_weights(rng.uniform(0.0, 1.0, mu.size))
        params = KernelParams(0.5, 2)
        window = TruncationWindow(2.0 * mu.delta)
        exps = WolffExponents.matched(params)

        def evaluate(measure, rows_per_block):
            monkeypatch.setattr(measures, "_SORTED_BLOCK_BYTES", rows_per_block * 8 * mu.size)
            return (
                wolff_potentials_at_atoms(measure, exps, window),
                ball_mass_double_sum(measure, params, window),
                maximal_at_atoms(measure, 0.5, r_min=window.eps, r_max=0.6),
            )

        for measure in (mu, nu):
            whole = evaluate(measure, mu.size)
            for rows_per_block in (1, 7):
                for got, want in zip(evaluate(measure, rows_per_block), whole):
                    assert np.array_equal(got, want)


class TestSerialization:
    def test_json_round_trip(self, rng):
        mu = make_random_measure(rng, 9, delta=0.01)
        text = measure_to_json(mu)
        back = measure_from_json(text)
        assert np.array_equal(back.atoms, mu.atoms)
        assert np.array_equal(back.weights, mu.weights)
        assert back.delta == mu.delta
        doc = json.loads(text)
        assert set(doc) == {"n", "delta", "atoms", "weights"}

    def test_csv_import(self):
        text = "x1,x2,w\n0.0,0.0,1.0\n1.0,0.5,2.0\n"
        mu = measure_from_csv(text)
        assert mu.n == 2 and mu.size == 2
        assert mu.weights.tolist() == [1.0, 2.0]

    def test_csv_bad_header(self):
        with pytest.raises(MeasureFormatError):
            measure_from_csv("a,b,c\n1,2,3\n")

    def test_cantor_key_restores_orbits(self):
        spec = cantor_spec_for_dimension(2, 0.75, 3)
        mu = cantor_measure(spec)
        text = measure_to_json(mu, cantor=spec)
        assert json.loads(text)["cantor"] == {"n": 2, "ratio": spec.ratio, "depth": 3,
                                              "base": 1.0, "offset": [0.0, 0.0]}
        back = measure_from_json(text)
        assert np.array_equal(orbit_ids(back), orbit_ids(mu))
        assert len(measures._orbit_rows(back).reps) == 10
        assert measure_to_json(back) == measure_to_json(mu)

    def test_cantor_key_needs_the_same_atoms(self):
        spec = cantor_spec_for_dimension(2, 0.75, 3)
        doc = json.loads(measure_to_json(cantor_measure(spec), cantor=spec))
        doc["atoms"][5][0] = float(np.nextafter(doc["atoms"][5][0], 1.0))
        back = measure_from_json(json.dumps(doc))
        assert np.array_equal(orbit_ids(back), np.arange(64))
        doc = json.loads(measure_to_json(cantor_measure(spec), cantor=spec))
        for depth in (2, 40):
            doc["cantor"]["depth"] = depth
            back = measure_from_json(json.dumps(doc))
            assert np.array_equal(orbit_ids(back), np.arange(64))

    def test_cantor_key_above_the_default_cap(self):
        # A file that `gen --max-atoms` writes above the default cap keeps
        # its orbits: the file's own atom count bounds the spec.
        spec = CantorSpec(n=1, ratio=0.25, depth=17, max_atoms=1 << 17)
        assert spec.atom_count > measures.DEFAULT_ATOM_CAP
        key = json.loads(measure_to_json(cantor_measure(CantorSpec(n=1, ratio=0.25, depth=1)),
                                         cantor=spec))["cantor"]
        geometry = measures._file_orbits(key, measures._cantor_atoms(spec))
        assert len(np.unique(geometry["orbits"])) == spec.atom_count // 2

    @pytest.mark.parametrize("key", [
        [], {"n": 2}, {"n": 2, "ratio": 0.25, "depth": 1, "base": 1.0, "offset": [0.0, 0.0], "x": 1},
        {"n": 2.0, "ratio": 0.25, "depth": 1, "base": 1.0, "offset": [0.0, 0.0]},
        {"n": 2, "ratio": 0.25, "depth": True, "base": 1.0, "offset": [0.0, 0.0]},
        {"n": 2, "ratio": 0.75, "depth": 1, "base": 1.0, "offset": [0.0, 0.0]},
        {"n": 2, "ratio": "a", "depth": 1, "base": 1.0, "offset": [0.0, 0.0]},
        {"n": 2, "ratio": 0.25, "depth": 1, "base": 1.0, "offset": [0.0]},
    ])
    def test_malformed_cantor_key(self, key):
        doc = json.loads(measure_to_json(cantor_measure(CantorSpec(n=2, ratio=0.25, depth=1))))
        doc["cantor"] = key
        with pytest.raises(MeasureFormatError):
            measure_from_json(json.dumps(doc))

    def test_json_missing_keys(self):
        with pytest.raises(MeasureFormatError):
            measure_from_json('{"n": 2, "atoms": [[0, 0]]}')

    def test_json_not_object(self):
        with pytest.raises(MeasureFormatError):
            measure_from_json("[1, 2]")


class TestMerge:
    def test_union_measures_its_min_gap_once(self, monkeypatch, rng):
        a, b = make_random_measure(rng, 12), make_random_measure(rng, 9)
        calls = []
        original = measures._extreme_pair_distance

        def counted(atoms, largest=False):
            calls.append(largest)
            return original(atoms, largest)

        monkeypatch.setattr(measures, "_extreme_pair_distance", counted)
        u = merge_measures(a, b)
        assert calls == [False]
        monkeypatch.undo()
        fresh = DiscreteMeasure(u.atoms, u.weights)
        assert u.min_gap == fresh.min_gap
        assert u.delta == min(a.delta, b.delta, fresh.min_gap)

    def test_union_keeps_mass_and_tightens_delta(self):
        a = DiscreteMeasure([[0.0], [1.0]], [1.0, 1.0], delta=1.0)
        b = DiscreteMeasure([[0.3], [2.0]], [1.0, 1.0], delta=1.0)
        u = merge_measures(a, b)
        assert u.size == 4
        assert u.total_mass == 4.0
        assert u.delta == pytest.approx(0.3)
