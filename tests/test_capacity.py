import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_measure
from rieszcap import capacity, energies, measures
from rieszcap.capacity import (
    METHOD_ENERGY,
    METHOD_WOLFF,
    OptimizerConfig,
    PLANAR_MAPS,
    _WolffObjective,
    bilipschitz_experiment,
    chebyshev_restrict,
    comparability_report,
    estimate_positive_capacity,
    minimize_wolff_energy,
    project_to_simplex,
)
from rieszcap.defaults import THRESHOLDS
from rieszcap.energies import (
    TruncationWindow,
    WolffExponents,
    maximal_potential_energy,
    symmetrization_potentials_sq_at_atoms,
    wolff_energy,
    wolff_potentials_at_atoms,
)
from rieszcap.errors import DomainError, EmptyRestrictionError
from rieszcap.experiments import DepthTrend, depth_trend, semiadditivity_probe, sweep_point
from rieszcap.kernels import KernelParams
from rieszcap.measures import DiscreteMeasure, cantor_measure, cantor_spec_for_dimension
from rieszcap.oracles import wolff_cubic_form
from test_energies import _cancelling_measure

P2 = KernelParams(0.5, 2)
MATCHED = WolffExponents.matched(P2)


class TestSimplexProjection:
    def test_already_on_simplex(self, rng):
        w = rng.uniform(0.1, 1.0, 6)
        w /= w.sum()
        assert np.allclose(project_to_simplex(w), w, atol=1e-14)

    def test_feasibility(self, rng):
        for _ in range(100):
            v = rng.uniform(-3, 3, int(rng.integers(1, 10)))
            p = project_to_simplex(v)
            assert p.min() >= 0.0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=12,
        )
    )
    def test_feasibility_property(self, values):
        p = project_to_simplex(np.array(values))
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-12
        # projecting twice is a no-op
        assert np.allclose(project_to_simplex(p), p, atol=1e-12)

    def test_is_nearest_point(self, rng):
        # brute-force check on a fine simplex grid in 3d
        v = rng.uniform(-1, 2, 3)
        p = project_to_simplex(v)
        best = None
        grid = np.linspace(0, 1, 101)
        for a in grid:
            for b in grid[grid <= 1 - a + 1e-12]:
                q = np.array([a, b, 1 - a - b])
                if q[2] < -1e-12:
                    continue
                dist = np.sum((v - q) ** 2)
                if best is None or dist < best[0]:
                    best = (dist, q)
        assert np.allclose(p, best[1], atol=2e-2)
        assert np.sum((v - p) ** 2) <= best[0] + 1e-12


class TestWolffMinimization:
    def test_single_atom(self):
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0], delta=1.0)
        est = minimize_wolff_energy(mu, MATCHED, TruncationWindow(1.0))
        assert est.witness.weights.tolist() == [1.0]
        assert est.method == METHOD_WOLFF
        # value = 1/sqrt(self energy at eps) = sqrt(2 alpha) eps^alpha
        assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_two_symmetric_atoms(self):
        mu = DiscreteMeasure([[-0.5, 0.0], [0.5, 0.0]], np.ones(2), delta=0.2)
        est = minimize_wolff_energy(mu, MATCHED, TruncationWindow(0.2))
        assert np.allclose(est.witness.weights, [0.5, 0.5], atol=1e-6)
        assert est.value == pytest.approx(
            est.diagnostics["energy"] ** -0.5, rel=1e-10
        )

    def test_cantor_descent_beats_uniform(self):
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 3))
        window = TruncationWindow(mu.delta)
        est = minimize_wolff_energy(mu, MATCHED, window, OptimizerConfig(max_iters=300))
        uniform = wolff_energy(mu, MATCHED, window)
        assert est.diagnostics["energy"] <= uniform * (1 + 1e-12)
        w = est.witness.weights
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w.min() >= -1e-15

    def test_witness_energy_matches_value(self, rng):
        mu = make_random_measure(rng, 9)
        window = TruncationWindow(0.05)
        est = minimize_wolff_energy(mu, MATCHED, window)
        recomputed = wolff_energy(est.witness, MATCHED, window)
        assert est.value == pytest.approx(recomputed**-0.5, rel=1e-10)

    def test_unsupported_p_above_two(self):
        from rieszcap.errors import UnsupportedExponentError

        mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], np.ones(2), delta=0.5)
        with pytest.raises(UnsupportedExponentError):
            minimize_wolff_energy(
                mu, WolffExponents(s=0.3, p=2.5, n=2), TruncationWindow(0.5)
            )


def _random_support(rng):
    return make_random_measure(rng, 16), TruncationWindow(0.05, 2.5)


def _cantor_support(rng):
    mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 3))
    return mu, TruncationWindow(mu.delta)


def _orbit_free(mu):
    """The same atoms, weights and delta, with singleton orbits and no cache."""
    return DiscreteMeasure(mu.atoms, mu.weights, mu.delta)


def _orbit_free_cantor_support(rng):
    mu, window = _cantor_support(rng)
    return _orbit_free(mu), window


SUPPORTS = pytest.mark.parametrize(
    "make_support", [_random_support, _cantor_support], ids=["random", "cantor3"]
)

# Random weights break the Cantor support's symmetry: the objective takes
# them on the orbit-free copy only.
RANDOM_WEIGHT_SUPPORTS = pytest.mark.parametrize(
    "make_support", [_random_support, _orbit_free_cantor_support], ids=["random", "cantor3"]
)


class TestWolffObjective:
    # p = 2, 3/2, 5/4 give dual_exp = 1, 2, 4 at trace 1/2; p = 3/2 is matched.
    @RANDOM_WEIGHT_SUPPORTS
    @pytest.mark.parametrize("p", [2.0, 1.5, 1.25])
    def test_gradient_matches_central_differences(self, rng, make_support, p):
        mu, window = make_support(rng)
        objective = _WolffObjective(mu, WolffExponents(s=1.5 / p, p=p, n=2), window)
        w = rng.uniform(0.5, 1.5, mu.size) / mu.size
        energy, grad = objective.energy_and_gradient(w)
        assert energy == pytest.approx(wolff_energy(mu.with_weights(w), objective.exps, window),
                                       rel=1e-12)
        h = 1e-6 / mu.size
        fd = np.empty(mu.size)
        for m in range(mu.size):
            step = np.zeros(mu.size)
            step[m] = h
            fd[m] = (objective.energy(w + step) - objective.energy(w - step)) / (2.0 * h)
        np.testing.assert_allclose(fd, grad, rtol=1e-6, atol=1e-9 * np.abs(grad).max())

    @RANDOM_WEIGHT_SUPPORTS
    @pytest.mark.parametrize("p", [2.0, 1.5, 1.25])
    def test_warm_gradient_is_bit_equal_to_cold(self, rng, make_support, p):
        mu, window = make_support(rng)
        exps = WolffExponents(s=1.5 / p, p=p, n=2)
        w = rng.uniform(0.5, 1.5, mu.size) / mu.size
        warm = _WolffObjective(mu, exps, window)
        e_warm = warm.energy(w)
        energy, grad = warm.energy_and_gradient(w)
        cold_energy, cold_grad = _WolffObjective(mu, exps, window).energy_and_gradient(w)
        assert energy == e_warm == cold_energy
        assert np.array_equal(grad, cold_grad)
        # A pass at other weights is not reused.
        warm.energy(project_to_simplex(w[::-1]))
        again = warm.energy_and_gradient(w)
        assert again[0] == cold_energy and np.array_equal(again[1], cold_grad)

    @RANDOM_WEIGHT_SUPPORTS
    def test_matches_cubic_form_oracle(self, rng, make_support):
        mu, window = make_support(rng)
        alpha = 0.5
        objective = _WolffObjective(mu, WolffExponents.matched(KernelParams(alpha, 2)), window)
        w = rng.uniform(0.0, 2.0, mu.size) / mu.size
        energy, grad = objective.energy_and_gradient(w)
        ref_energy, ref_grad = wolff_cubic_form(mu.with_weights(w), alpha, window)
        assert energy == pytest.approx(ref_energy, rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=0.0)


class TestOrbitObjective:
    """The objective on a Cantor support reads one row per symmetry orbit."""

    @pytest.mark.parametrize("family", [(1, 0.6, 3), (2, 0.75, 3), (3, 1.5, 2), (3, 1.5, 3)],
                             ids=["n1-m3", "n2-m3", "n3-m2", "n3-m3"])
    def test_matches_orbit_free_copy_and_cubic_form(self, rng, family):
        n, dim, depth = family
        mu = cantor_measure(cantor_spec_for_dimension(n, dim, depth))
        window = TruncationWindow(mu.delta)
        alpha = 0.5
        exps = WolffExponents.matched(KernelParams(alpha, n))
        reduced = _WolffObjective(mu, exps, window)
        assert len(reduced.reps) < mu.size
        ids = np.unique(measures._orbits(mu), return_inverse=True)[1]
        w = rng.uniform(0.2, 1.8, ids.max() + 1)[ids] / mu.size
        energy, grad = reduced.energy_and_gradient(w)
        assert reduced.energy(w) == energy
        plain = _orbit_free(mu)
        ref_energy, ref_grad = _WolffObjective(plain, exps, window).energy_and_gradient(w)
        assert energy == pytest.approx(ref_energy, rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=0.0)
        if mu.size <= 64:
            cubic_energy, cubic_grad = wolff_cubic_form(plain.with_weights(w), alpha, window)
            assert energy == pytest.approx(cubic_energy, rel=1e-12)
            np.testing.assert_allclose(grad, cubic_grad, rtol=1e-12, atol=0.0)

    def test_rejects_weights_off_the_orbits(self):
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 2))
        objective = _WolffObjective(mu, MATCHED, TruncationWindow(mu.delta))
        w = np.full(mu.size, 1.0 / mu.size)
        objective.energy_and_gradient(w)
        w[1] = np.nextafter(w[1], 1.0)
        with pytest.raises(DomainError):
            objective.energy(w)
        with pytest.raises(DomainError):
            objective.energy_and_gradient(w)

    def test_optimizer_matches_orbit_free_copy(self):
        mu = cantor_measure(cantor_spec_for_dimension(3, 1.5, 2))
        window = TruncationWindow(mu.delta)
        exps = WolffExponents.matched(KernelParams(0.5, 3))
        cfg = OptimizerConfig(max_iters=200, tolerance=1e-8)
        reduced = minimize_wolff_energy(mu, exps, window, cfg)
        plain = minimize_wolff_energy(_orbit_free(mu), exps, window, cfg)
        assert reduced.diagnostics["orbits"] == 4.0
        assert plain.diagnostics["orbits"] == float(mu.size)
        assert reduced.diagnostics["iterations"] == plain.diagnostics["iterations"]
        assert reduced.value == pytest.approx(plain.value, rel=1e-12)
        np.testing.assert_allclose(reduced.witness.weights, plain.witness.weights,
                                   rtol=1e-12, atol=0.0)
        # Every iterate is bitwise constant on the orbits.
        ids = measures._orbits(mu)
        assert np.array_equal(reduced.witness.weights[ids], reduced.witness.weights)

    def test_support_weights_do_not_change_the_orbits(self, rng):
        # The descent starts from uniform weights and never reads the
        # support's own, so weights off the orbits keep the reduction.
        mu = cantor_measure(cantor_spec_for_dimension(3, 1.5, 2))
        window = TruncationWindow(mu.delta)
        exps = WolffExponents.matched(KernelParams(0.5, 3))
        cfg = OptimizerConfig(max_iters=200, tolerance=1e-8)
        skewed = mu.with_weights(rng.uniform(0.5, 1.5, mu.size))
        assert len(measures._orbit_rows(skewed).reps) == mu.size
        got = minimize_wolff_energy(skewed, exps, window, cfg)
        want = minimize_wolff_energy(mu, exps, window, cfg)
        assert got.diagnostics["orbits"] == want.diagnostics["orbits"] == 4.0
        assert got.value == want.value
        assert np.array_equal(got.witness.weights, want.witness.weights)


class TestPositiveCapacity:
    def test_single_atom_value_one(self):
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0], delta=1.0)
        est = estimate_positive_capacity(mu, P2, TruncationWindow(1.0))
        assert est.value == pytest.approx(1.0, rel=1e-12)
        assert est.method == METHOD_ENERGY

    def test_value_is_reciprocal_witness_energy(self, rng):
        mu = make_random_measure(rng, 10)
        window = TruncationWindow(0.05)
        est = estimate_positive_capacity(mu, P2, window)
        energy = maximal_potential_energy(est.witness, P2, window)
        assert est.value == pytest.approx(1.0 / energy, rel=1e-10)

    def test_dilation_covariance(self, rng):
        mu = make_random_measure(rng, 8)
        window = TruncationWindow(0.06)
        base = estimate_positive_capacity(mu, P2, window).value
        lam = 2.0
        scaled = estimate_positive_capacity(
            mu.dilated(lam), P2, window.scaled(lam)
        ).value
        assert scaled == pytest.approx(base * lam**0.5, rel=1e-6)

    def test_refinement_never_worse(self, rng):
        mu = make_random_measure(rng, 8)
        window = TruncationWindow(0.08)
        plain = estimate_positive_capacity(mu, P2, window)
        refined = estimate_positive_capacity(mu, P2, window, refine=True)
        assert refined.value >= plain.value * (1 - 1e-12)

    def test_refinement_completes_one_square_per_weight_vector(self, rng, monkeypatch):
        # Every weight vector completes its square once: a line-search trial
        # and the gradient at the accepted trial share it, and so do the
        # two auxiliary squares that each gradient builds by polarization.
        mu = make_random_measure(rng, 8)
        window = TruncationWindow(0.08)
        squares = []
        calls = {"combined": 0, "trials": 0}
        combined = capacity.maximal_potential_energy
        transform = energies._transform_at_atoms
        project = capacity.project_to_simplex

        def counted_combined(*args):
            calls["combined"] += 1
            return combined(*args)

        def counted_transform(m, *args, **kwargs):
            squares.append(m.weights.tobytes())
            return transform(m, *args, **kwargs)

        def counted_project(v):
            calls["trials"] += 1
            return project(v)

        monkeypatch.setattr(capacity, "maximal_potential_energy", counted_combined)
        monkeypatch.setattr(energies, "_transform_at_atoms", counted_transform)
        monkeypatch.setattr(capacity, "project_to_simplex", counted_project)
        w0 = np.linspace(1.0, 2.0, mu.size)
        _, _, diag = capacity._refine_combined(mu, P2, window, w0 / w0.sum(), OptimizerConfig())
        assert diag["iterations"] >= 2
        assert len(squares) == len(set(squares))
        assert calls["combined"] == calls["trials"]

    def test_subgradient_without_potential(self):
        # Every squared potential vanishes, so the bilinear term's left
        # weights are all zero: no zero-mass measure may be built.
        mu, eps = _cancelling_measure()
        window = TruncationWindow(eps)
        energy, grad = capacity._combined_subgradient(mu, P2, window)
        assert energy == maximal_potential_energy(mu, P2, window)
        assert np.all(np.isfinite(grad))

    def test_subgradient_matches_central_differences(self, rng):
        mu = make_random_measure(rng, 10)
        window = TruncationWindow(0.05)
        w = rng.uniform(0.3, 1.7, mu.size)
        w /= w.sum()
        # Every atom's maximal radius is attained with a clear margin, and
        # every squared potential is positive: the energy is smooth at w.
        d = mu.distance_matrix()
        for i in range(mu.size):
            order = np.argsort(d[i], kind="stable")
            vals = np.cumsum(w[order]) / np.maximum(d[i, order], window.eps) ** P2.alpha
            top = np.sort(vals)[-2:]
            assert top[1] - top[0] > 1e-3 * top[1]
        nu = mu.with_weights(w)
        assert np.all(symmetrization_potentials_sq_at_atoms(nu, P2, window) > 0.0)
        energy, grad = capacity._combined_subgradient(nu, P2, window)
        assert energy == maximal_potential_energy(nu, P2, window)
        h = 1e-6
        for _ in range(3):
            v = rng.normal(size=mu.size)
            v -= v.mean()
            plus = maximal_potential_energy(mu.with_weights(w + h * v), P2, window)
            minus = maximal_potential_energy(mu.with_weights(w - h * v), P2, window)
            want = (plus - minus) / (2.0 * h)
            assert float(grad @ v) == pytest.approx(want, rel=1e-6)


class TestChebyshevRestriction:
    def test_keep_everything_at_double_mean(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5], delta=0.5)
        out = chebyshev_restrict(mu, [3.0, 3.0], 6.0)
        assert out.size == 2
        assert out.total_mass == pytest.approx(1.0)

    def test_two_level_example(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5], delta=0.5)
        # potentials (1, 3): mean E = 2
        kept_all = chebyshev_restrict(mu, [1.0, 3.0], 4.0)
        assert kept_all.size == 2
        dropped = chebyshev_restrict(mu, [1.0, 3.0], 2.0)
        assert dropped.size == 1
        assert dropped.weights.tolist() == [1.0]
        # pre-normalization retained mass was exactly 1/2 = 1 - E/t

    def test_markov_guarantee_random(self, rng):
        for _ in range(50):
            mu = make_random_measure(rng, 15).normalized()
            vals = rng.uniform(0.0, 4.0, mu.size)
            energy = float(np.dot(mu.weights, vals))
            t = float(rng.uniform(1.1, 5.0)) * energy
            retained = float(mu.weights[vals <= t].sum())
            assert retained >= 1.0 - energy / t - 1e-12
            chebyshev_restrict(mu, vals, t)  # must not raise

    def test_empty_restriction_raises(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5], delta=0.5)
        with pytest.raises(EmptyRestrictionError):
            chebyshev_restrict(mu, [5.0, 6.0], 1.0)

    def test_requires_probability(self):
        mu = DiscreteMeasure([[0.0], [1.0]], [1.0, 1.0], delta=0.5)
        with pytest.raises(DomainError):
            chebyshev_restrict(mu, [1.0, 1.0], 3.0)

    def test_restricted_wolff_growth_bound(self, rng):
        # Restrict at t = 2E, then confirm the renormalized measure keeps
        # its truncated potentials below t / retained^2 and satisfies the
        # dyadic growth bound with margin against 18E.
        mu = make_random_measure(rng, 20).normalized()
        window = TruncationWindow(0.05)
        pots = wolff_potentials_at_atoms(mu, MATCHED, window)
        energy = float(np.dot(mu.weights, pots))
        t = 2.0 * energy
        keep = pots <= t
        retained = float(mu.weights[keep].sum())
        assert retained >= 0.5 - 1e-12
        nu = chebyshev_restrict(mu, pots, t)
        nu_pots = wolff_potentials_at_atoms(nu, MATCHED, window)
        assert nu_pots.max() <= t / retained**2 * (1 + 1e-10)
        # dyadic growth: C_alpha (nu(B(x, r))/r^alpha)^2 <= 18 E
        alpha = 0.5
        c_alpha = (1.0 - 2.0 ** (-2 * alpha)) / (2 * alpha)
        from rieszcap.measures import maximal_at_atoms

        m_vals = maximal_at_atoms(nu, alpha, r_min=window.eps)
        assert c_alpha * float(m_vals.max()) ** 2 <= 18.0 * energy * (1 + 1e-10)


class TestComparabilityAndMaps:
    def test_single_atom_ratio_finite(self):
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0], delta=1.0)
        rep = comparability_report(mu, 0.5, TruncationWindow(1.0))
        assert math.isfinite(rep.ratio) and rep.ratio > 0.0

    @SUPPORTS
    def test_report_runs_optimizer_once(self, rng, monkeypatch, make_support):
        mu, window = make_support(rng)
        calls = []
        optimize = capacity.minimize_wolff_energy

        def counted(*args, **kwargs):
            calls.append(args)
            return optimize(*args, **kwargs)

        monkeypatch.setattr(capacity, "minimize_wolff_energy", counted)
        rep = comparability_report(mu, 0.5, window)
        assert len(calls) == 1
        monkeypatch.undo()
        alone = estimate_positive_capacity(mu, P2, window)
        got = rep.energy_proxy
        assert (got.value, got.method) == (alone.value, alone.method)
        assert np.array_equal(got.witness.weights, alone.witness.weights)
        assert got.diagnostics == alone.diagnostics
        wolff = minimize_wolff_energy(mu, MATCHED, window)
        assert rep.wolff_proxy.value == wolff.value
        assert np.array_equal(rep.wolff_proxy.witness.weights, wolff.witness.weights)

    def test_dilation_leaves_ratio_fixed(self, rng):
        mu = make_random_measure(rng, 9)
        window = TruncationWindow(0.07)
        r0 = comparability_report(mu, 0.5, window).ratio
        r1 = comparability_report(mu.dilated(5.0), 0.5, window.scaled(5.0)).ratio
        assert r1 == pytest.approx(r0, rel=1e-4)

    def test_identity_map_ratio_one(self):
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.7, 2))
        res = bilipschitz_experiment(mu, "identity", 0.5, TruncationWindow(mu.delta))
        assert res.ratio == 1.0

    @pytest.mark.parametrize("map_id", ["identity", "shear_sine"])
    def test_bilipschitz_measures_one_min_gap(self, monkeypatch, map_id):
        # The support's gap is known and carried; only the mapped atoms are
        # measured, once.
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.7, 2))
        calls = []
        original = measures._extreme_pair_distance

        def counted(atoms, largest=False):
            calls.append(largest)
            return original(atoms, largest)

        for module in (measures, capacity):
            monkeypatch.setattr(module, "_extreme_pair_distance", counted)
        bilipschitz_experiment(mu, map_id, 0.5, TruncationWindow(mu.delta))
        assert calls == [False]

    def test_pure_dilation_matches_homogeneity(self):
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.7, 2))
        res = bilipschitz_experiment(mu, "dilation_2", 0.5, TruncationWindow(mu.delta))
        assert res.ratio == pytest.approx(2.0**0.5, rel=1e-4)

    def test_shear_within_recorded_bound(self):
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 4))
        res = bilipschitz_experiment(mu, "shear_sine", 0.5, TruncationWindow(mu.delta))
        bound = THRESHOLDS["bilipschitz_bounds"]["shear_sine"]
        assert 1.0 / bound <= res.ratio <= bound

    def test_unknown_map_rejected(self):
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0], delta=1.0)
        with pytest.raises(DomainError):
            bilipschitz_experiment(mu, "banana", 0.5, TruncationWindow(1.0))

    def test_registry_contents(self):
        assert {"identity", "shear_sine", "rotation", "dilation_2",
                "dilation_half"} <= set(PLANAR_MAPS)

    def test_semiadditivity_probe(self):
        out = semiadditivity_probe(0.6, depth=2)
        assert out["union"] <= THRESHOLDS["semiadditivity_factor"] * (
            out["part_1"] + out["part_2"]
        )


class TestDepthTrend:
    def test_depth_trend_is_from_points(self):
        trend = depth_trend(0.5, 1.5, depths=(1, 2, 3))
        points = [sweep_point(0.5, 1.5 * 0.5, m) for m in (1, 2, 3)]
        want = DepthTrend.from_points(points)
        for f in dataclasses.fields(DepthTrend):
            assert getattr(trend, f.name) == getattr(want, f.name), f.name
        assert trend.depths == (1, 2, 3)
        assert trend.proxies == tuple(p.energy_proxy for p in points)

    def test_from_points_rejects_mixed_cells(self):
        points = [sweep_point(a, a, 1) for a in (0.25, 0.5)]
        with pytest.raises(DomainError):
            DepthTrend.from_points(points)
        with pytest.raises(DomainError):
            DepthTrend.from_points([])
