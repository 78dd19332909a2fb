"""Property-test battery: every module's invariants as runnable suites.

Each suite draws its own deterministic random data from a seed, checks one
family of invariants at the tolerances fixed here, and returns a
SuiteResult.  The CLI ``verify`` command runs the fast suites by default
and the sweep-based ones with ``--full``; the pytest acceptance module
drives the same functions.

A fault-injection hook exists for mutation-testing the battery itself:
``fault="p-alpha-scale"`` multiplies every three-point symmetrization value
by 1.01 inside the sandwich suite, which must then fail (the scaled values
still sit inside the two-sided bounds, whose empirical margins exceed 1%,
but the exact collinear reference value catches the perturbation).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import capacity as cap
from . import defaults
from .energies import (
    TruncationWindow,
    WolffExponents,
    maximal_potential_energy,
    riesz_l2_energy,
    symmetrization_energy,
    symmetrization_potential_sq,
    wolff_energy,
    wolff_potential,
)
from .errors import DomainError
from .experiments import DepthTrend, comparability_sweep, ratio_window, sweep_point
from .kernels import (
    KernelParams,
    curvature_permutation_sum,
    equal_spacing_symmetrization,
    menger_curvature_sq,
    random_triples,
    sandwich_bounds,
    symmetrization_many,
)
from .measures import (
    DiscreteMeasure,
    ball_profile,
    cantor_measure,
    cantor_spec_for_dimension,
    maximal_at_atoms,
    maximal_function,
)
from .oracles import (
    QuadratureConfig,
    naive_riesz_l2_energy,
    naive_symmetrization_energy,
    naive_symmetrization_potential_sq,
    quadrature_wolff,
    symmetrization_decomposition,
)

FAULTS = ("p-alpha-scale",)

MAX_RECORDED_FAILURES = 5


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def record(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.passed = False
            if len(self.failures) < MAX_RECORDED_FAILURES:
                self.failures.append(message)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": list(self.failures),
            "details": {k: self.details[k] for k in sorted(self.details)},
        }


def _new_result(name: str) -> SuiteResult:
    return SuiteResult(name=name, passed=True, checks=0)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def random_measure(
    rng: np.random.Generator, count: int, n: int = 2, min_gap: float = 0.02,
    delta: float | None = None,
) -> DiscreteMeasure:
    """Random weighted cloud of ``count`` atoms in [-1, 1]^n whose atoms are
    more than ``min_gap`` apart; delta defaults to ``min_gap``."""
    for _ in range(200):
        atoms = rng.uniform(-1.0, 1.0, size=(count, n))
        d = np.linalg.norm(atoms[:, None, :] - atoms[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        if d.min() > min_gap:
            weights = rng.uniform(0.3, 1.7, size=count)
            return DiscreteMeasure(atoms, weights, delta=delta or min_gap)
    raise DomainError("could not draw a separated random measure")


def _atom_count(rng: np.random.Generator, max_atoms: int) -> int:
    """Size of a battery measure, drawn from rng before its atoms."""
    return int(rng.integers(3, max_atoms + 1))


def _rel_close(a: float, b: float, rtol: float, tiny: float = 1e-30) -> bool:
    scale = max(abs(a), abs(b))
    return scale < tiny or abs(a - b) <= rtol * scale


# ---------------------------------------------------------------------------
# Fast suites
# ---------------------------------------------------------------------------


def suite_sandwich(seed: int = 0, fault: str | None = None) -> SuiteResult:
    """Two-sided largest-side bound, positivity, and exact collinear values.

    10000 random triples per (n, alpha) cell, n in 1-3 and alpha in
    {0.25, 0.5, 0.75}; zero violations allowed at 1e-12 relative slack on
    the bounds.  For alpha > 1 the suite instead confirms that sign changes
    occur.
    """
    res = _new_result("symmetrization-sandwich")
    rng = _rng(seed, 1)
    scale = 1.01 if fault == "p-alpha-scale" else 1.0
    slack = 1e-12
    worst_lo = math.inf
    worst_hi = 0.0
    for n in (1, 2, 3):
        for alpha in (0.25, 0.5, 0.75):
            tris = random_triples(rng, 10000, n)
            p = symmetrization_many(tris, alpha) * scale
            lengths = np.max(
                [
                    np.linalg.norm(tris[:, 0] - tris[:, 1], axis=1),
                    np.linalg.norm(tris[:, 0] - tris[:, 2], axis=1),
                    np.linalg.norm(tris[:, 1] - tris[:, 2], axis=1),
                ],
                axis=0,
            )
            prod = p * lengths ** (2.0 * alpha)
            lo, hi = sandwich_bounds(alpha)
            viol_lo = int((prod < lo * (1.0 - slack)).sum())
            viol_hi = int((prod > hi * (1.0 + slack)).sum())
            res.record(
                viol_lo == 0 and viol_hi == 0,
                f"sandwich bound violated {viol_lo + viol_hi} times at n={n} alpha={alpha}",
            )
            res.record(
                bool((p > 0.0).all()), f"positivity failed at n={n} alpha={alpha}"
            )
            worst_lo = min(worst_lo, float(prod.min() / lo))
            worst_hi = max(worst_hi, float(prod.max() / hi))
            # Exact collinear reference: 0, g, 2g has value (2^(1-a) - 1) g^(-2a).
            gap = float(rng.uniform(0.3, 2.0))
            tri = np.zeros((1, 3, n))
            tri[0, 1, 0] = gap
            tri[0, 2, 0] = 2.0 * gap
            got = float(symmetrization_many(tri, alpha)[0]) * scale
            want = equal_spacing_symmetrization(gap, alpha)
            res.record(
                _rel_close(got, want, 1e-10),
                f"collinear reference value off by {abs(got - want) / want:.3e} "
                f"at n={n} alpha={alpha}",
            )
    # Sign change above the positivity range.
    tris = random_triples(rng, 20000, 2)
    p_high = symmetrization_many(tris, 1.5) * scale
    res.record(
        bool((p_high < 0.0).any()) and bool((p_high > 0.0).any()),
        "no sign change found for alpha = 1.5",
    )
    res.details["min_product_over_lower_bound"] = worst_lo
    res.details["max_product_over_upper_bound"] = worst_hi
    return res


def suite_curvature(seed: int = 0) -> SuiteResult:
    """Squared curvature vs doubled symmetrization and the permutation sum.

    10000 random planar triples carry a mild thinness floor (area >= 1e-2
    L^2): both sides of the identities vanish at collinearity and their
    relative agreement in doubles degrades like (area/L^2)^-2.  The
    collinear limit itself is checked separately, in absolute terms.
    """
    res = _new_result("curvature-consistency")
    rng = _rng(seed, 2)
    tris = random_triples(rng, 10000, 2, min_area_frac=1e-2)
    p1 = symmetrization_many(tris, 1.0)
    worst_sym = 0.0
    worst_perm = 0.0
    for t, p in zip(tris, p1):
        c2 = menger_curvature_sq(t[0], t[1], t[2])
        perm = curvature_permutation_sum(t[0], t[1], t[2])
        worst_sym = max(worst_sym, abs(c2 - 2.0 * p) / max(c2, 1e-30))
        worst_perm = max(worst_perm, abs(c2 - perm) / max(c2, 1e-30))
    res.record(worst_sym <= 1e-10, f"c^2 vs 2p mismatch {worst_sym:.3e}")
    res.record(worst_perm <= 1e-10, f"c^2 vs permutation sum mismatch {worst_perm:.3e}")
    # Collinear limit: the curvature is exactly zero and the doubled
    # symmetrization tends to zero with the thinness.
    for _ in range(50):
        a = rng.uniform(-1.0, 1.0, size=2)
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        b = a + float(rng.uniform(0.2, 1.0)) * direction
        c = a + float(rng.uniform(1.2, 2.0)) * direction
        res.record(
            menger_curvature_sq(a, b, c) == 0.0, "collinear curvature not zero"
        )
    res.details["worst_doubling_rel"] = worst_sym
    res.details["worst_permutation_rel"] = worst_perm
    return res


def suite_measures(seed: int = 0) -> SuiteResult:
    """Ball profiles vs counting, maximal invariances, growth uniformity."""
    res = _new_result("measure-invariants")
    rng = _rng(seed, 3)
    for _ in range(40):
        mu = random_measure(rng, _atom_count(rng, 20))
        x = rng.uniform(-1.5, 1.5, size=2)
        prof = ball_profile(mu, x)
        res.record(
            bool(np.all(np.diff(prof.masses) >= 0.0))
            and _rel_close(float(prof.masses[-1]), mu.total_mass, 1e-12),
            "profile masses not nondecreasing to the total mass",
        )
        radii = rng.uniform(0.0, 3.0, size=50)
        dists = np.linalg.norm(mu.atoms - x, axis=1)
        ok = all(
            _rel_close(
                prof.mass_at(float(r)),
                float(mu.weights[dists <= r].sum()),
                1e-12,
            )
            for r in radii
        )
        res.record(ok, "profile mass disagrees with the counting oracle")
    # Maximal function: translation invariance and dilation covariance.
    mu = random_measure(rng, _atom_count(rng, 15))
    alpha = 0.5
    x = rng.uniform(-1.0, 1.0, size=2)
    shift = rng.uniform(-3.0, 3.0, size=2)
    m0 = maximal_function(mu, x, alpha, r_min=mu.delta)
    m1 = maximal_function(mu.translated(shift), x + shift, alpha, r_min=mu.delta)
    res.record(_rel_close(m0, m1, 1e-12), "maximal function not translation invariant")
    lam = 2.0
    m2 = maximal_function(mu.dilated(lam), x * lam, alpha, r_min=mu.delta * lam)
    res.record(
        _rel_close(m2, m0 * lam**-alpha, 1e-10),
        "maximal function does not scale as lambda^-alpha",
    )
    # Growth constants of critical Cantor measures stay in a fixed band.
    grid = np.array([[-0.5, -0.5], [1.5, 1.5], [0.5, -0.3], [1.2, 0.5]])
    for alpha in (0.25, 0.5, 0.75):
        consts = []
        for depth in range(1, 6):
            spec = cantor_spec_for_dimension(2, alpha, depth)
            mu = cantor_measure(spec)
            c = float(maximal_at_atoms(mu, alpha, r_min=mu.delta).max())
            c = max(c, max(maximal_function(mu, g, alpha, r_min=mu.delta) for g in grid))
            consts.append(c)
        ratio = max(consts) / min(consts)
        res.record(
            ratio < 4.0,
            f"growth constants drift across depths at alpha={alpha}: ratio {ratio:.3f}",
        )
        res.details[f"growth_ratio_alpha_{alpha}"] = ratio
    # Identical specs produce bit-identical measures.
    a = cantor_measure(cantor_spec_for_dimension(2, 0.6, 3))
    b = cantor_measure(cantor_spec_for_dimension(2, 0.6, 3))
    res.record(
        bool(np.array_equal(a.atoms, b.atoms)) and a.delta == b.delta,
        "Cantor generation is not deterministic",
    )
    return res


def suite_decomposition(seed: int = 0) -> SuiteResult:
    """3 * transform energy = triple sum + enumerated residual, to 1e-10, on
    200 random measures of at most 15 atoms at three cutoffs each."""
    res = _new_result("decomposition-identity")
    rng = _rng(seed, 4)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(200):
            mu = random_measure(rng, _atom_count(rng, 15))
            alpha = float(rng.uniform(0.1, 0.9))
            params = KernelParams(alpha, 2)
            for eps in (0.021, float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.5, 1.5))):
                dec = symmetrization_decomposition(mu, params, eps)
                scale = max(abs(dec.lhs), abs(dec.p_part), abs(dec.residual), 1e-30)
                rel = abs(dec.gap) / scale
                worst = max(worst, rel)
                res.record(
                    rel <= 1e-10,
                    f"identity gap {rel:.3e} at eps={eps:.3f} alpha={alpha:.3f}",
                )
    res.details["worst_gap_rel"] = worst
    return res


def suite_wolff_quadrature(seed: int = 0) -> SuiteResult:
    """Closed-form Wolff potential vs the adaptive-quadrature oracle, 1e-8,
    at 66 random points for each of three exponent sets."""
    res = _new_result("wolff-quadrature")
    rng = _rng(seed, 5)
    qcfg = QuadratureConfig(rel_tol=1e-10)
    worst = 0.0
    exponent_sets = [
        WolffExponents.matched(KernelParams(0.5, 2)),
        WolffExponents(s=0.8, p=2.0, n=2),
        WolffExponents(s=0.5, p=1.8, n=2),
    ]
    for exps in exponent_sets:
        for _ in range(66):
            mu = random_measure(rng, _atom_count(rng, 12))
            x = rng.uniform(-1.4, 1.4, size=2)
            window = TruncationWindow(float(rng.uniform(0.03, 0.4)))
            a = wolff_potential(mu, x, exps, window)
            b = quadrature_wolff(mu, x, exps, window, qcfg)
            rel = abs(a - b) / max(abs(b), 1e-30)
            worst = max(worst, rel)
            res.record(
                rel <= 1e-8,
                f"closed form vs quadrature off by {rel:.3e} (s={exps.s}, p={exps.p})",
            )
    res.details["worst_rel"] = worst
    return res


def suite_oracle_equivalence(seed: int = 0) -> SuiteResult:
    """Vectorized energies vs the naive reference loops, 1e-12 relative, on
    200 random measures of at most 20 atoms."""
    res = _new_result("oracle-equivalence")
    rng = _rng(seed, 6)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(200):
            mu = random_measure(rng, _atom_count(rng, 20))
            alpha = float(rng.uniform(0.1, 0.9))
            params = KernelParams(alpha, 2)
            eps = float(rng.uniform(0.03, 0.6))
            pairs = [
                (
                    symmetrization_energy(mu, params, TruncationWindow(eps)),
                    naive_symmetrization_energy(mu, alpha, eps),
                    "triple-sum energy",
                ),
                (
                    riesz_l2_energy(mu, params, eps),
                    naive_riesz_l2_energy(mu, alpha, eps),
                    "transform L2 energy",
                ),
            ]
            x = rng.uniform(-1.3, 1.3, size=2)
            pairs.append(
                (
                    symmetrization_potential_sq(mu, x, params, TruncationWindow(eps)),
                    naive_symmetrization_potential_sq(mu, x, alpha, eps),
                    "pointwise squared potential",
                )
            )
            for got, want, label in pairs:
                scale = max(abs(got), abs(want))
                rel = 0.0 if scale < 1e-30 else abs(got - want) / scale
                worst = max(worst, rel)
                res.record(rel <= 1e-12, f"{label} off by {rel:.3e}")
    res.details["worst_rel"] = worst
    return res


def suite_scaling(seed: int = 0) -> SuiteResult:
    """Dilation laws for all energies and both capacity proxies, 1e-6."""
    res = _new_result("scaling-laws")
    rng = _rng(seed, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for alpha in (0.3, 0.6):
            params = KernelParams(alpha, 2)
            exps = WolffExponents.matched(params)
            mu = random_measure(rng, _atom_count(rng, 12))
            window = TruncationWindow(0.05)
            report = cap.comparability_report(mu, alpha, window)
            base = {
                "sym": symmetrization_energy(mu, params, window),
                "wolff": wolff_energy(mu, exps, window),
                "combined": maximal_potential_energy(mu, params, window),
                "energy_proxy": report.energy_proxy.value,
                "wolff_proxy": report.wolff_proxy.value,
            }
            for lam in (0.5, 2.0, 10.0):
                mul = mu.dilated(lam)
                wl = window.scaled(lam)
                dilated = cap.comparability_report(mul, alpha, wl)
                checks = [
                    ("sym", symmetrization_energy(mul, params, wl), -2.0 * alpha),
                    ("wolff", wolff_energy(mul, exps, wl), -2.0 * alpha),
                    ("combined", maximal_potential_energy(mul, params, wl), -alpha),
                    ("energy_proxy", dilated.energy_proxy.value, alpha),
                    ("wolff_proxy", dilated.wolff_proxy.value, alpha),
                ]
                for label, scaled, power in checks:
                    want = base[label] * lam**power
                    res.record(
                        _rel_close(scaled, want, 1e-6),
                        f"{label} scaling off at lambda={lam}, alpha={alpha}: "
                        f"{scaled:.12g} vs {want:.12g}",
                    )
    return res


def suite_monotonicity(seed: int = 0) -> SuiteResult:
    """Truncated energies are nonincreasing in eps."""
    res = _new_result("eps-monotonicity")
    rng = _rng(seed, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(20):
            mu = random_measure(rng, _atom_count(rng, 14))
            alpha = float(rng.uniform(0.2, 0.9))
            params = KernelParams(alpha, 2)
            exps = WolffExponents.matched(params)
            eps_grid = np.geomspace(0.03, 2.0, 8)
            sym = [symmetrization_energy(mu, params, TruncationWindow(float(e))) for e in eps_grid]
            wol = [wolff_energy(mu, exps, TruncationWindow(float(e))) for e in eps_grid]
            comb = [
                maximal_potential_energy(mu, params, TruncationWindow(float(e)))
                for e in eps_grid
            ]
            for label, seq in (("triple-sum", sym), ("wolff", wol), ("combined", comb)):
                ok = all(b <= a * (1.0 + 1e-12) for a, b in zip(seq, seq[1:]))
                res.record(ok, f"{label} energy increased along an eps sweep")
    return res


def suite_chebyshev(seed: int = 0) -> SuiteResult:
    """Retained-mass guarantee of the potential-level restriction on 100
    random probability measures."""
    res = _new_result("chebyshev-restriction")
    rng = _rng(seed, 9)
    for _ in range(100):
        mu = random_measure(rng, _atom_count(rng, 25)).normalized()
        vals = rng.uniform(0.0, 5.0, size=mu.size)
        energy = float(np.dot(mu.weights, vals))
        t = float(rng.uniform(1.2, 4.0)) * energy
        keep = vals <= t
        retained = float(mu.weights[keep].sum())
        restricted = cap.chebyshev_restrict(mu, vals, t)
        res.record(
            retained >= 1.0 - energy / t - 1e-12,
            f"retained mass {retained:.6f} below 1 - E/t = {1 - energy / t:.6f}",
        )
        res.record(
            _rel_close(restricted.total_mass, 1.0, 1e-12),
            "restricted measure not renormalized to mass one",
        )
        # At t = 2E at least half the mass survives.
        t2 = 2.0 * energy
        keep2 = vals <= t2
        retained2 = float(mu.weights[keep2].sum())
        res.record(
            retained2 >= 0.5 - 1e-12,
            f"retained mass {retained2:.6f} below 1/2 at t = 2E",
        )
    return res


def suite_optimizer(seed: int = 0) -> SuiteResult:
    """Simplex feasibility, monotone descent, symmetry of optima, and the
    orbit-reduced optimizer against the same support without orbits."""
    res = _new_result("optimizer-simplex")
    rng = _rng(seed, 10)
    cfg = cap.OptimizerConfig(max_iters=500, tolerance=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # Transitive symmetric supports: the optimum is the uniform vector.
        theta = np.arange(8) * np.pi / 4.0
        transitive = [
            DiscreteMeasure(np.array([[-0.5, 0.0], [0.5, 0.0]]), np.ones(2), delta=0.2),
            DiscreteMeasure(
                np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                np.ones(4),
                delta=0.3,
            ),
            DiscreteMeasure(
                np.stack([np.cos(theta), np.sin(theta)], axis=1), np.ones(8), delta=0.3
            ),
        ]
        for alpha in (0.35, 0.7):
            params = KernelParams(alpha, 2)
            exps = WolffExponents.matched(params)
            for mu in transitive:
                window = TruncationWindow(mu.delta)
                est = cap.minimize_wolff_energy(mu, exps, window, cfg)
                w = est.witness.weights
                res.record(
                    abs(float(w.sum()) - 1.0) <= 1e-12 and float(w.min()) >= -1e-12,
                    "optimal weights leave the simplex",
                )
                dev = float(np.max(np.abs(w - 1.0 / mu.size))) * mu.size
                res.record(
                    dev < 0.10,
                    f"weights deviate {dev:.3e} from uniform on a transitive support",
                )
                uniform_energy = wolff_energy(mu, exps, window)
                res.record(
                    est.diagnostics["energy"] <= uniform_energy * (1.0 + 1e-12),
                    "optimized energy exceeds the uniform-weight energy",
                )
        # Orbit invariance on a non-transitive symmetric support.
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 2))
        params = KernelParams(0.5, 2)
        exps = WolffExponents.matched(params)
        est = cap.minimize_wolff_energy(mu, exps, TruncationWindow(mu.delta), cfg)
        w = est.witness.weights
        center = mu.atoms.mean(axis=0)
        for axis in (0, 1):
            reflected = mu.atoms.copy()
            reflected[:, axis] = 2.0 * center[axis] - reflected[:, axis]
            perm = [
                int(np.argmin(np.linalg.norm(mu.atoms - p, axis=1))) for p in reflected
            ]
            res.record(
                float(np.max(np.abs(w - w[perm]))) < 1e-4,
                f"optimal weights break the reflection symmetry (axis {axis})",
            )
        res.record(
            est.diagnostics["energy"]
            <= wolff_energy(mu, exps, TruncationWindow(mu.delta)) * (1.0 + 1e-12),
            "optimized Cantor energy exceeds the uniform energy",
        )
        # The reduced optimizer reads one row per symmetry orbit; the same
        # atoms without orbits take every row and must give the same run.
        for n, dim, depth in ((2, 0.75, 2), (1, 0.5, 5), (3, 1.5, 2)):
            mu = cantor_measure(cantor_spec_for_dimension(n, dim, depth))
            exps = WolffExponents.matched(KernelParams(0.5, n))
            window = TruncationWindow(mu.delta)
            reduced = cap.minimize_wolff_energy(mu, exps, window, cfg)
            plain = cap.minimize_wolff_energy(
                DiscreteMeasure(mu.atoms, mu.weights, mu.delta), exps, window, cfg)
            w, w_plain = reduced.witness.weights, plain.witness.weights
            res.record(
                reduced.diagnostics["orbits"] < plain.diagnostics["orbits"] == mu.size,
                f"n = {n} Cantor: the optimizer did not reduce to its orbits",
            )
            res.record(
                reduced.diagnostics["iterations"] == plain.diagnostics["iterations"]
                and _rel_close(reduced.diagnostics["energy"], plain.diagnostics["energy"], 1e-12)
                and float(np.max(np.abs(w - w_plain))) <= 1e-12 * float(w_plain.max()),
                f"n = {n} Cantor: the orbit-reduced optimizer departs from the orbit-free run",
            )
            # The energies of the witness read one row per orbit too.
            witness = reduced.witness
            plain_witness = DiscreteMeasure(witness.atoms, witness.weights, witness.delta)
            params = KernelParams(0.5, n)
            for name, f in (
                ("symmetrization_energy", lambda m: symmetrization_energy(m, params, window)),
                ("wolff_energy", lambda m: wolff_energy(m, exps, window)),
                ("maximal_potential_energy",
                 lambda m: maximal_potential_energy(m, params, window)),
            ):
                res.record(
                    _rel_close(f(witness), f(plain_witness), 1e-12),
                    f"n = {n} Cantor: orbit-reduced {name} departs from the orbit-free value",
                )
    return res


# ---------------------------------------------------------------------------
# Sweep suites (heavier; enabled with --full)
# ---------------------------------------------------------------------------


def _depth_trend(alpha: float, dim_factor: float, cells: dict) -> DepthTrend:
    """``depth_trend(alpha, dim_factor)`` reusing the (alpha, dim, depth) ``cells``."""
    dim = dim_factor * alpha
    return DepthTrend.from_points(
        cells.get((alpha, dim, m)) or sweep_point(alpha, dim, m) for m in range(1, 6)
    )


def suite_comparability(seed: int = 0, points=None) -> SuiteResult:
    """Two-sided ratio windows across the standard sweep (or its ``points``)."""
    res = _new_result("comparability-window")
    thresholds = defaults.THRESHOLDS
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        points = comparability_sweep() if points is None else points
        sym_window = ratio_window([p.sym_wolff_ratio for p in points])
        dbl_window = ratio_window([p.double_sum_ratio for p in points])
        proxy_window = ratio_window([p.proxy_ratio for p in points])
        res.record(
            sym_window < thresholds["sym_wolff_ratio_window"],
            f"triple-sum/Wolff ratio window {sym_window:.2f} exceeds the threshold",
        )
        res.record(
            dbl_window < thresholds["double_sum_ratio_window"],
            f"double-sum/Wolff ratio window {dbl_window:.2f} exceeds the threshold",
        )
        res.record(
            proxy_window < thresholds["proxy_ratio_window"],
            f"proxy ratio window {proxy_window:.2f} exceeds the threshold",
        )
        # Dilation leaves the proxy ratio fixed.
        mu = cantor_measure(cantor_spec_for_dimension(2, 0.75, 3))
        window = TruncationWindow(mu.delta)
        r0 = cap.comparability_report(mu, 0.5, window).ratio
        r1 = cap.comparability_report(mu.dilated(4.0), 0.5, window.scaled(4.0)).ratio
        res.record(
            _rel_close(r0, r1, thresholds["proxy_dilation_rtol"]),
            f"proxy ratio moved under dilation: {r0:.8f} vs {r1:.8f}",
        )
        res.details["sym_wolff_ratio_window"] = sym_window
        res.details["double_sum_ratio_window"] = dbl_window
        res.details["proxy_ratio_window"] = proxy_window
        res.details["dilation_ratio_drift"] = abs(r1 - r0) / abs(r0)
    return res


def suite_zero_capacity(seed: int = 0, points=()) -> SuiteResult:
    """Depth trends: affine Wolff growth at critical dimension, decreasing
    proxies, and stabilization above the critical dimension.  Cells of the
    standard sweep found in ``points`` are reused."""
    res = _new_result("zero-capacity-trend")
    thresholds = defaults.THRESHOLDS
    cells = {(p.alpha, p.dimension, p.depth): p for p in points}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for alpha in (0.25, 0.5, 0.75):
            critical = _depth_trend(alpha, 1.0, cells)
            slope, _, r2 = critical.wolff_fit()
            res.record(
                r2 > thresholds["wolff_growth_min_r2"] and slope > 0.0,
                f"Wolff energy not affine in depth at alpha={alpha}: r2={r2:.5f}",
            )
            res.record(
                critical.proxy_monotone_decreasing(),
                f"capacity proxy not decreasing in depth at alpha={alpha}",
            )
            above = _depth_trend(alpha, 1.5, cells)
            change = above.final_relative_change()
            res.record(
                change < thresholds["supercritical_stabilization"],
                f"supercritical proxy moved {change:.3f} between the last depths "
                f"at alpha={alpha}",
            )
            res.details[f"wolff_slope_alpha_{alpha}"] = slope
            res.details[f"wolff_r2_alpha_{alpha}"] = r2
            res.details[f"stabilization_alpha_{alpha}"] = change
    return res


FAST_SUITES = (
    suite_sandwich,
    suite_curvature,
    suite_measures,
    suite_decomposition,
    suite_wolff_quadrature,
    suite_oracle_equivalence,
    suite_scaling,
    suite_monotonicity,
    suite_chebyshev,
    suite_optimizer,
)

FULL_SUITES = FAST_SUITES + (suite_comparability, suite_zero_capacity)


def run_battery(
    seed: int = 0, full: bool = False, fault: str | None = None
) -> dict:
    """Run the battery and return a deterministic JSON-ready summary."""
    if fault is not None and fault not in FAULTS:
        raise DomainError(f"unknown fault {fault!r}; known: {FAULTS}")
    suites = FULL_SUITES if full else FAST_SUITES
    # The two sweep suites share one evaluation of the standard sweep.
    sweep = {"points": comparability_sweep()} if full else {}
    kwargs = {suite_sandwich: {"fault": fault}, suite_comparability: sweep,
              suite_zero_capacity: sweep}
    results = [fn(seed=seed, **kwargs.get(fn, {})) for fn in suites]
    return {
        "seed": seed,
        "full": full,
        "fault": fault,
        "passed": all(r.passed for r in results),
        "counts": {
            "suites": len(results),
            "checks": sum(r.checks for r in results),
            "failed_suites": sum(0 if r.passed else 1 for r in results),
        },
        "suites": [r.to_json_dict() for r in results],
    }
