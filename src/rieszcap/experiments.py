"""Batch experiments over Cantor families: comparability sweeps, the
zero-capacity depth trend, and the semiadditivity probe.

These drive both the CLI and the verification battery.  Sweep results carry
every measured quantity so thresholds can be checked (and archived) by the
caller; nothing here asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import OptimizerConfig, comparability_report
from .energies import (
    TruncationWindow,
    WolffExponents,
    ball_mass_double_sum,
    symmetrization_energy,
    wolff_energy,
)
from .errors import DomainError
from .kernels import KernelParams
from .measures import cantor_measure, cantor_spec_for_dimension, merge_measures

SWEEP_CSV_COLUMNS = (
    "set_id", "n", "alpha", "dim", "depth", "eps", "N_atoms",
    "sym_energy", "wolff_energy", "sym_wolff_ratio", "double_sum",
    "energy_proxy", "wolff_proxy", "proxy_ratio", "iters", "converged",
)

CAPACITY_CSV_COLUMNS = (
    "set_id", "n", "alpha", "dim", "depth", "eps", "method", "value",
    "energy", "iters",
)

# The optimizer settings of every sweep cell and probe: 200 iterations at
# tolerance 1e-8.
SWEEP_OPTIMIZER = OptimizerConfig(max_iters=200, tolerance=1e-8)


@dataclass(frozen=True)
class SweepPoint:
    """One (alpha, dimension, depth) cell of a Cantor comparability sweep."""

    set_id: str
    n: int
    alpha: float
    dimension: float
    depth: int
    eps: float
    n_atoms: int
    sym_energy: float
    wolff_energy: float
    double_sum: float
    energy_proxy: float
    wolff_proxy: float
    optimizer_iters: float
    converged: float

    @property
    def sym_wolff_ratio(self) -> float:
        return self.sym_energy / self.wolff_energy

    @property
    def double_sum_ratio(self) -> float:
        return self.double_sum / self.wolff_energy

    @property
    def proxy_ratio(self) -> float:
        return self.energy_proxy / self.wolff_proxy

    def to_csv_row(self) -> tuple:
        return (
            self.set_id, self.n, self.alpha, self.dimension, self.depth,
            self.eps, self.n_atoms, self.sym_energy, self.wolff_energy,
            self.sym_wolff_ratio, self.double_sum, self.energy_proxy,
            self.wolff_proxy, self.proxy_ratio, self.optimizer_iters,
            self.converged,
        )


def sweep_point(
    alpha: float,
    dimension: float,
    depth: int,
    n: int = 2,
) -> SweepPoint:
    """Evaluate all sweep quantities on one unit corner-Cantor measure.

    The truncation radius is the depth-m cell side, which equals the
    measure resolution; the optimizer runs with ``SWEEP_OPTIMIZER``.
    """
    spec = cantor_spec_for_dimension(n, dimension, depth)
    mu = cantor_measure(spec)
    params = KernelParams(alpha, n)
    window = TruncationWindow(spec.cell_side)
    exps = WolffExponents.matched(params)
    sym = symmetrization_energy(mu, params, window)
    wolff = wolff_energy(mu, exps, window)
    double = ball_mass_double_sum(mu, params, window)
    report = comparability_report(mu, alpha, window, SWEEP_OPTIMIZER)
    return SweepPoint(
        set_id=f"cantor-n{n}-d{dimension:g}-m{depth}",
        n=n,
        alpha=alpha,
        dimension=dimension,
        depth=depth,
        eps=window.eps,
        n_atoms=mu.size,
        sym_energy=sym,
        wolff_energy=wolff,
        double_sum=double,
        energy_proxy=report.energy_proxy.value,
        wolff_proxy=report.wolff_proxy.value,
        optimizer_iters=report.wolff_proxy.diagnostics["iterations"],
        converged=report.wolff_proxy.diagnostics["converged"],
    )


def comparability_sweep(
    alphas=(0.25, 0.5, 0.75),
    dim_factors=(1.0, 1.2, 1.5),
    depths=(2, 3, 4, 5),
    n: int = 2,
) -> list:
    """The standard sweep: alpha x (dimension factor) x depth."""
    return [
        sweep_point(alpha, factor * alpha, depth, n=n)
        for alpha in alphas
        for factor in dim_factors
        for depth in depths
    ]


def ratio_window(values) -> float:
    """max/min of a positive sequence (inf if it touches zero)."""
    vals = [float(v) for v in values]
    if not vals:
        raise DomainError("empty value sequence")
    lo, hi = min(vals), max(vals)
    if lo <= 0.0:
        return math.inf
    return hi / lo


def linear_fit(xs, ys) -> tuple:
    """Least-squares line fit returning (slope, intercept, r_squared)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 2:
        raise DomainError("need at least two points to fit a line")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


@dataclass(frozen=True)
class DepthTrend:
    """Wolff energies and capacity proxies along a depth sweep."""

    alpha: float
    dimension: float
    depths: tuple
    wolff_energies: tuple
    proxies: tuple

    @classmethod
    def from_points(cls, points) -> "DepthTrend":
        """The trend through sweep points of one alpha and dimension, in the
        order given."""
        points = list(points)
        if not points:
            raise DomainError("a depth trend needs at least one sweep point")
        first = points[0]
        if any((p.alpha, p.dimension) != (first.alpha, first.dimension) for p in points):
            raise DomainError("sweep points of a depth trend share alpha and dimension")
        return cls(
            alpha=first.alpha,
            dimension=first.dimension,
            depths=tuple(p.depth for p in points),
            wolff_energies=tuple(p.wolff_energy for p in points),
            proxies=tuple(p.energy_proxy for p in points),
        )

    def wolff_fit(self) -> tuple:
        """(slope, intercept, r2) of Wolff energy against depth."""
        return linear_fit(self.depths, self.wolff_energies)

    def proxy_monotone_decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.proxies, self.proxies[1:]))

    def final_relative_change(self) -> float:
        """|proxy(m_last) - proxy(m_prev)| / proxy(m_prev)."""
        if len(self.proxies) < 2:
            raise DomainError("a relative change needs at least two depths")
        a, b = self.proxies[-2], self.proxies[-1]
        return abs(b - a) / abs(a)


def depth_trend(
    alpha: float,
    dim_factor: float = 1.0,
    depths=(1, 2, 3, 4, 5),
    n: int = 2,
) -> DepthTrend:
    """Truncated Wolff energy and capacity proxy across construction depths.

    At dim_factor = 1 the Cantor dimension equals alpha: the energy grows
    affinely with depth and the proxy decays toward zero.  Above the
    critical dimension the energy converges and the proxy stabilizes.
    """
    return DepthTrend.from_points(
        [sweep_point(alpha, dim_factor * alpha, m, n=n) for m in depths]
    )


def semiadditivity_probe(
    alpha: float,
    depth: int = 3,
    n: int = 2,
) -> dict:
    """Capacity proxies of two unit Cantor blocks, 3 apart along the first
    axis, and of their union."""
    from .capacity import estimate_positive_capacity

    spec = cantor_spec_for_dimension(n, alpha, depth)
    block1 = cantor_measure(spec)
    block2 = block1.translated([3.0] + [0.0] * (n - 1))
    union = merge_measures(block1, block2).normalized()
    params = KernelParams(alpha, n)
    window = TruncationWindow(spec.cell_side)
    v1 = estimate_positive_capacity(block1, params, window, SWEEP_OPTIMIZER).value
    v2 = estimate_positive_capacity(block2, params, window, SWEEP_OPTIMIZER).value
    vu = estimate_positive_capacity(union, params, window, SWEEP_OPTIMIZER).value
    return {
        "part_1": v1,
        "part_2": v2,
        "union": vu,
        "union_over_sum": vu / (v1 + v2),
    }
