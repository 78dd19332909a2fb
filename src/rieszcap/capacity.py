"""Capacity estimation on fixed atom supports.

Capacities are estimated through energies of probability measures carried
by the support: the reciprocal of the combined maximal-plus-potential
energy (positive-capacity route), and the reciprocal of the Wolff energy
raised to p - 1 (nonlinear Riesz-capacity route).  Atom positions stay
fixed; only the weight vector moves, by projected gradient descent on the
probability simplex.  The descent (``_descend``) reads an objective
through one protocol: ``energy(w)`` returns the energy with the pass that
made it as its state, and ``gradient(state)`` reads that pass at the start
and at each accepted step, so no objective keeps a pass between calls.
The Wolff descent runs over the support's symmetry orbits (see
``_WolffObjective``): on a corner-Cantor support each step costs O(R N)
for R orbits instead of O(N^2).

The Wolff energy is the optimization target: for the matched exponents its
dual exponent is 2, making the objective a smooth cubic polynomial of the
weights, whereas the combined energy carries a maximal function and square
roots.  The two energies are comparable, so minimizers are interchangeable
up to constants; the combined energy is evaluated on the uniform weights
and on the Wolff-optimal witness, and the better of the two is kept.  A
comparability report runs the optimizer once: its Wolff proxy and its
energy proxy share that one witness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .energies import (
    TruncationWindow,
    WolffExponents,
    _wolff_beta,
    _wolff_drops,
    maximal_potential_energy,
)
from .errors import (
    DomainError,
    EmptyRestrictionError,
    UnsupportedExponentError,
)
from .kernels import KernelParams
from .measures import (
    DiscreteMeasure,
    _check_bytes,
    _extreme_pair_distance,
    _row_order,
    _sorted_rows,
    _symmetry_orbits,
    measure_to_json,
)

METHOD_ENERGY = "max-potential-energy"
METHOD_WOLFF = "wolff-energy"


@dataclass(frozen=True)
class OptimizerConfig:
    """Projected-gradient settings.

    ``max_iters`` caps the descent iterations; ``tolerance`` is the
    relative energy-decrease threshold that stops them earlier.  The start
    is always the uniform weight vector and each step backtracks by halving
    from a scale-free initial step, so a run is deterministic.
    """

    max_iters: int = 400
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tolerance <= 0.0:
            raise DomainError(f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True)
class CapacityEstimate:
    """A capacity proxy value with its witnessing measure and diagnostics."""

    value: float
    method: str
    witness: DiscreteMeasure
    window: TruncationWindow
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "window": {"eps": self.window.eps},
            "diagnostics": dict(self.diagnostics),
            "witness": json.loads(measure_to_json(self.witness)),
        }


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sorting algorithm)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u > css / np.arange(1, len(v) + 1))[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


# ---------------------------------------------------------------------------
# Wolff energy as a function of the weight vector, with analytic gradient
# ---------------------------------------------------------------------------


class _WolffObjective:
    """E(w) = sum_i w_i integral (m_i(r; w)/r^trace)^e dr/r on a fixed support.

    The objective works on the support's symmetry orbits
    (``_symmetry_orbits``, whatever the support's own weights): the
    weights must be constant on each orbit, and then so are the
    per-atom potentials, so only one representative row per orbit is
    read.  The support's cached row order, which holds the R
    representatives' rows, gives per row the piece drops and the flat index
    that gathers per-piece sums back to atoms.  With orbit sizes |O_r| the
    energy is sum_r |O_r| w_r pot_r; the gradient at an atom m of orbit
    O is pot_m + e * mean over m' in O of u_m', with u = (|O| w)_reps @ J
    and J the representatives' gathered suffix sums.  ``energy(w)`` costs
    one O(R N) prefix-sum pass and returns the energy with that pass as
    its state; ``gradient(state)`` adds only the suffix-sum pass and the
    gather.  The objective keeps no pass between calls, only two (R, N)
    scratch buffers that every step writes into.  The descent's
    steps are equivariant and its projection onto the simplex acts
    elementwise after one shift, so every iterate from the uniform start
    is bitwise orbit-invariant; other weights raise ``DomainError``.  With
    singleton orbits R = N and the arithmetic is the unreduced one.
    Gradient requires e >= 1 (p <= 2) so the integrand stays
    differentiable where cumulative masses vanish.

    Memory: at most seven (R, N) arrays of 8 bytes an entry are live at
    once, checked against the budget (``measures._check_bytes``) before any
    is built: the kept representative rows and order, ``flat``, ``drop``,
    the two scratch buffers and a state's prefix sums.  ``energy`` gathers
    the weights into one buffer and forms the powers' factors there;
    ``gradient`` forms its factors in the same buffer, its suffix sums in
    the other and gathers them back into the first.  Each ``energy`` call
    allocates only its state's prefix sums, so a state stays valid across
    later calls, and ``_descend`` holds one state at a time, so no second
    pass's prefix sums are live.
    """

    def __init__(self, support: DiscreteMeasure, exps: WolffExponents,
                 window: TruncationWindow):
        beta = _wolff_beta(exps)
        if exps.dual_exp < 1.0:
            raise UnsupportedExponentError(
                "weight optimization needs dual_exp >= 1 (i.e. p <= 2); "
                f"got p = {exps.p}"
            )
        self.exps = exps
        self.beta = beta
        size = support.size
        self.reps, self.index, counts = _symmetry_orbits(support)
        self.counts = counts.astype(float)
        reps = len(self.reps)
        _check_bytes(7 * 8 * reps * size, "the Wolff objective")
        self.order = _row_order(support)
        # flat[r, m] is the position of atom m's piece in row r of the
        # row-reversed suffix sums, flattened: r * N + (N - 1 - rank).
        self.flat = np.empty_like(self.order)
        np.put_along_axis(
            self.flat, self.order, np.arange(reps * size).reshape(reps, size)[:, ::-1],
            axis=1,
        )
        self.drop = np.empty((reps, size))
        for block, _, sorted_d in _sorted_rows(support, self.reps):
            self.drop[block] = _wolff_drops(sorted_d, beta, window) / beta
        self._work = np.empty((reps, size))
        self._suffix = np.empty((reps, size))

    def _mass(self, w: np.ndarray) -> np.ndarray:
        """|O_r| w_r at the representatives, after checking invariance."""
        rep_w = w[self.reps]
        if not np.array_equal(rep_w[self.index], w, equal_nan=True):
            raise DomainError("weights are not constant on the support's symmetry orbits")
        return self.counts * rep_w

    def energy(self, w: np.ndarray) -> tuple:
        """(E(w), state): the state is the prefix-sum pass ``gradient`` reads."""
        mass = self._mass(w)
        # The order comes from an argsort, so it is in range: mode="clip"
        # writes straight into the buffer, where "raise" would copy.
        work = np.take(w, self.order, out=self._work, mode="clip")
        cum = np.cumsum(work, axis=1)
        np.power(cum, self.exps.dual_exp, out=work)
        work *= self.drop
        pot = work.sum(axis=1)
        return float(np.dot(mass, pot)), (mass, cum, pot)

    def gradient(self, state: tuple) -> np.ndarray:
        """The gradient at the weights whose ``energy`` returned ``state``."""
        mass, cum, pot = state
        e = self.exps.dual_exp
        # dW_i/dw_m = e * sum over pieces at radius >= d_im of m^(e-1) drop:
        # suffix sums over the sorted pieces, gathered back per atom.
        work = np.power(cum, e - 1.0, out=self._work)
        work *= self.drop
        suffix = np.cumsum(work[:, ::-1], axis=1, out=self._suffix)
        j = np.take(suffix, self.flat, out=work, mode="clip")
        u = np.bincount(self.index, mass @ j, len(self.reps)) / self.counts
        grad = pot + e * u
        return grad[self.index]


def _descend(objective, w0: np.ndarray, cfg: OptimizerConfig) -> tuple:
    """Monotone projected gradient descent; returns (w, energy, diagnostics).

    ``objective.energy(w)`` returns (E, state) at every trial point, and
    ``objective.gradient(state)`` is read at the start and at each accepted
    trial only.  One state is live at a time: a rejected trial's is
    dropped before the next trial, an accepted one's after its gradient.
    """
    w = np.asarray(w0, dtype=float)
    energy, state = objective.energy(w)
    grad = objective.gradient(state)
    del state
    iters = 0
    backtracks = 0
    converged = False
    for iters in range(1, cfg.max_iters + 1):
        gsq = float(np.dot(grad, grad))
        if gsq <= 0.0:
            converged = True
            break
        # Scale-free step: invariant under rescaling the objective, so
        # dilating the support reproduces the same iterate path.
        t = energy / gsq
        accepted = False
        for _ in range(60):
            w_new = project_to_simplex(w - t * grad)
            e_new, state = objective.energy(w_new)
            if e_new < energy:
                accepted = True
                break
            del state
            t *= 0.5
            backtracks += 1
        if not accepted:
            converged = True
            break
        drop = (energy - e_new) / energy
        w, energy = w_new, e_new
        grad = objective.gradient(state)
        del state
        if drop < cfg.tolerance:
            converged = True
            break
    diag = {
        "iterations": float(iters),
        "backtracks": float(backtracks),
        "final_grad_norm": float(np.linalg.norm(grad)),
        "converged": 1.0 if converged else 0.0,
    }
    return w, energy, diag


def minimize_wolff_energy(
    support: DiscreteMeasure,
    exps: WolffExponents,
    window: TruncationWindow,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> CapacityEstimate:
    """Minimize the truncated Wolff energy over probability weights.

    Returns value = 1 / E^(p-1) at the optimal weights (1/sqrt(E) for
    p = 3/2), the witnessing probability measure, and optimizer
    diagnostics; ``orbits`` is the number R of symmetry orbits the
    objective read one row each for (N on a support without symmetries).
    Accepted iterations never increase the energy; if the iteration cap is
    hit the best iterate is returned with ``converged = 0`` in the
    diagnostics.
    """
    objective = _WolffObjective(support, exps, window)
    w0 = np.full(support.size, 1.0 / support.size)
    w, energy, diag = _descend(objective, w0, cfg)
    diag["energy"] = energy
    diag["orbits"] = float(len(objective.reps))
    witness = support.with_weights(w)
    return CapacityEstimate(
        value=energy ** -(exps.p - 1.0),
        method=METHOD_WOLFF,
        witness=witness,
        window=window,
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# Positive-capacity proxy through the combined energy
# ---------------------------------------------------------------------------


def estimate_positive_capacity(
    support: DiscreteMeasure,
    params: KernelParams,
    window: TruncationWindow,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> CapacityEstimate:
    """Best 1 / combined-energy over two candidate probability weights:
    the uniform weights and the Wolff-optimal witness.
    """
    params.require_fractional()
    exps = WolffExponents.matched(params)
    wolff_est = minimize_wolff_energy(support, exps, window, cfg)
    return _energy_proxy(support, params, window, wolff_est)


def _energy_proxy(support, params, window, wolff_est) -> CapacityEstimate:
    """The combined-energy proxy on the uniform weights and a Wolff witness."""
    uniform = support.with_weights(np.full(support.size, 1.0 / support.size))
    candidates = [uniform, wolff_est.witness]
    energies = [maximal_potential_energy(m, params, window) for m in candidates]
    diag = {
        "uniform_energy": energies[0],
        "wolff_witness_energy": energies[1],
        "wolff_iterations": wolff_est.diagnostics["iterations"],
    }
    best = int(np.argmin(energies))
    witness, energy = candidates[best], energies[best]
    diag["energy"] = energy
    return CapacityEstimate(
        value=1.0 / energy,
        method=METHOD_ENERGY,
        witness=witness,
        window=window,
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# Chebyshev restriction
# ---------------------------------------------------------------------------


def chebyshev_restrict(
    mu: DiscreteMeasure, potential_values, t: float
) -> DiscreteMeasure:
    """Restrict a probability measure to atoms with potential <= t, renormalized.

    Markov's inequality guarantees the retained pre-normalization mass is at
    least 1 - E/t, where E is the weighted mean of the potential values; at
    t = 2E at least half the mass survives.
    """
    vals = np.asarray(potential_values, dtype=float).reshape(-1)
    if vals.shape[0] != mu.size:
        raise DomainError(
            f"{vals.shape[0]} potential values for {mu.size} atoms"
        )
    if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
        raise DomainError("potential values must be finite and nonnegative")
    if t <= 0.0:
        raise DomainError(f"threshold must be positive, got {t}")
    if abs(mu.total_mass - 1.0) > 1e-9:
        raise DomainError("restriction expects a probability measure")
    keep = vals <= t
    if not keep.any():
        raise EmptyRestrictionError(f"no atom has potential <= {t}")
    retained = float(mu.weights[keep].sum())
    if retained <= 0.0:
        raise EmptyRestrictionError("retained atoms carry zero mass")
    return DiscreteMeasure(
        mu.atoms[keep], mu.weights[keep] / retained, delta=mu.delta
    )


# ---------------------------------------------------------------------------
# Comparability and bilipschitz experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparabilityReport:
    """The two capacity proxies of one support and their ratio."""

    energy_proxy: CapacityEstimate
    wolff_proxy: CapacityEstimate

    @property
    def ratio(self) -> float:
        return self.energy_proxy.value / self.wolff_proxy.value


def comparability_report(
    support: DiscreteMeasure,
    alpha: float,
    window: TruncationWindow,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> ComparabilityReport:
    """Evaluate both capacity proxies on the same support and window.

    Both proxies share one Wolff-optimal witness: the optimizer runs once,
    and the energy proxy is the one ``estimate_positive_capacity`` returns.
    """
    params = KernelParams(alpha, support.n)
    params.require_fractional()
    exps = WolffExponents.matched(params)
    wolff_est = minimize_wolff_energy(support, exps, window, cfg)
    energy_est = _energy_proxy(support, params, window, wolff_est)
    return ComparabilityReport(energy_proxy=energy_est, wolff_proxy=wolff_est)


@dataclass(frozen=True)
class PlanarMap:
    """A registered bilipschitz self-map of the plane.

    ``distortion`` is (an upper bound on) the Lipschitz constant L of the
    map and its inverse; ``scale_hint`` is the global scale factor used to
    rescale truncation windows (1 except for pure dilations).
    """

    name: str
    distortion: float
    scale_hint: float
    fn: object

    def apply(self, atoms: np.ndarray) -> np.ndarray:
        return np.apply_along_axis(lambda p: np.asarray(self.fn(p), dtype=float), 1, atoms)


def _shear_sine(p):
    return (p[0], p[1] + 0.3 * math.sin(p[0]))


_ROT = math.sqrt(0.5)

PLANAR_MAPS = {
    "identity": PlanarMap("identity", 1.0, 1.0, lambda p: (p[0], p[1])),
    "shear_sine": PlanarMap("shear_sine", 1.17, 1.0, _shear_sine),
    "rotation": PlanarMap(
        "rotation", 1.0, 1.0,
        lambda p: (_ROT * p[0] - _ROT * p[1] + 0.25, _ROT * p[0] + _ROT * p[1] - 0.5),
    ),
    "dilation_2": PlanarMap("dilation_2", 2.0, 2.0, lambda p: (2.0 * p[0], 2.0 * p[1])),
    "dilation_half": PlanarMap(
        "dilation_half", 2.0, 0.5, lambda p: (0.5 * p[0], 0.5 * p[1])
    ),
}


@dataclass(frozen=True)
class BilipschitzResult:
    map_name: str
    distortion: float
    scale_hint: float
    before: float
    after: float

    @property
    def ratio(self) -> float:
        return self.after / self.before


def bilipschitz_experiment(
    support: DiscreteMeasure,
    map_id: str,
    alpha: float,
    window: TruncationWindow,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> BilipschitzResult:
    """Positive-capacity proxy before and after a registered planar map.

    The truncation window is rescaled by the map's scale hint, so pure
    dilations report the clean homogeneity ratio while shape-distorting
    maps are compared at the same truncation.  A map generally breaks the
    support's symmetries, so both sides run on singleton orbits: the same
    arithmetic on both makes the identity map's ratio exactly 1.
    """
    if support.n != 2:
        raise DomainError("bilipschitz experiments are planar (n = 2)")
    if map_id not in PLANAR_MAPS:
        raise DomainError(
            f"unknown map {map_id!r}; registered: {sorted(PLANAR_MAPS)}"
        )
    pm = PLANAR_MAPS[map_id]
    params = KernelParams(alpha, 2)
    support = DiscreteMeasure(support.atoms, support.weights, support.delta,
                              {"min_gap": support.min_gap})
    before = estimate_positive_capacity(support, params, window, cfg)
    mapped_atoms = pm.apply(support.atoms)
    gap = _extreme_pair_distance(mapped_atoms)
    mapped = DiscreteMeasure(mapped_atoms, support.weights,
                             min(support.delta * pm.scale_hint, gap), {"min_gap": gap})
    after = estimate_positive_capacity(mapped, params, window.scaled(pm.scale_hint), cfg)
    return BilipschitzResult(
        map_name=pm.name,
        distortion=pm.distortion,
        scale_hint=pm.scale_hint,
        before=before.value,
        after=after.value,
    )
