"""Slow reference implementations used as independent test anchors.

Nothing here is meant for production use.  Each oracle re-derives its value
with plain Python loops and scalar math so it shares no summation code with
the vectorized energy routines it cross-checks.  Keep it that way: reusing
the fast paths would void the independence these anchors exist to provide.
The one exception is the decomposition identity, which relates two
production functionals through a residual that is enumerated here by loops.

The eps tests between atoms read the measure's own distance matrix
(``DiscreteMeasure.distance_matrix``, built afresh from the same rows that
the vectorized routines build on demand), so a distance that ties eps is
decided on the same rounded value as in those routines; a Python sum of
squares can differ from it in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energies import (
    TruncationWindow,
    WolffExponents,
    riesz_l2_energy,
    symmetrization_energy,
)
from .errors import DomainError, ToleranceNotMetError
from .kernels import KernelParams
from .measures import DiscreteMeasure


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    max_subdivisions: int = 48

    def __post_init__(self):
        if self.rel_tol <= 0.0:
            raise DomainError(f"tolerance must be positive, got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise DomainError(f"need at least one subdivision, got {self.max_subdivisions}")


def _dist(p, q) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def _kernel(p, q, alpha: float):
    """k_a(q - p) as a plain tuple."""
    d = _dist(p, q)
    scale = d ** (-(1.0 + alpha))
    return tuple((b - a) * scale for a, b in zip(p, q))


def _dot(u, v) -> float:
    return sum(a * b for a, b in zip(u, v))


def _sym_raw(x, y, z, alpha: float) -> float:
    """Cyclic three-term kernel symmetrization, scalar arithmetic only."""
    return (
        _dot(_kernel(x, y, alpha), _kernel(x, z, alpha))
        + _dot(_kernel(y, z, alpha), _kernel(y, x, alpha))
        + _dot(_kernel(z, x, alpha), _kernel(z, y, alpha))
    )


def _atom_rows(mu: DiscreteMeasure):
    atoms = [tuple(float(v) for v in row) for row in np.asarray(mu.atoms)]
    weights = [float(w) for w in np.asarray(mu.weights)]
    return atoms, weights


def naive_symmetrization_energy(mu: DiscreteMeasure, alpha: float, eps: float) -> float:
    """Triple loop over ALL ordered atom triples with the eps tests inline.

    Each separated pair's kernel k_a(x_j - x_i) is computed once, by the same
    scalar arithmetic as ``_sym_raw``, whose three-term sum is spelled out.
    """
    atoms, weights = _atom_rows(mu)
    d = mu.distance_matrix().tolist()
    m = len(atoms)
    kern = [
        [_kernel(atoms[i], atoms[j], alpha) if d[i][j] > eps else None for j in range(m)]
        for i in range(m)
    ]
    total = 0.0
    for i in range(m):
        for j in range(m):
            if j == i or d[i][j] <= eps:
                continue
            for k in range(m):
                if k == i or k == j:
                    continue
                if d[i][k] <= eps or d[j][k] <= eps:
                    continue
                total += (
                    weights[i]
                    * weights[j]
                    * weights[k]
                    * (
                        _dot(kern[i][j], kern[i][k])
                        + _dot(kern[j][k], kern[j][i])
                        + _dot(kern[k][i], kern[k][j])
                    )
                )
    return total


def naive_riesz_l2_energy(mu: DiscreteMeasure, alpha: float, eps: float) -> float:
    """Double loop: weighted squared norm of the truncated transform at atoms."""
    atoms, weights = _atom_rows(mu)
    d = mu.distance_matrix().tolist()
    m = len(atoms)
    n = len(atoms[0])
    total = 0.0
    for i in range(m):
        acc = [0.0] * n
        for j in range(m):
            if j == i or d[i][j] <= eps:
                continue
            k = _kernel(atoms[i], atoms[j], alpha)
            for c in range(n):
                acc[c] += weights[j] * k[c]
        total += weights[i] * sum(v * v for v in acc)
    return total


def naive_symmetrization_potential_sq(
    mu: DiscreteMeasure, x, alpha: float, eps: float
) -> float:
    """Ordered double sum of the full three-point symmetrization around x.

    When x is an atom, its eps tests read that atom's row of the distance
    matrix, like the tests between atoms.
    """
    atoms, weights = _atom_rows(mu)
    d = mu.distance_matrix().tolist()
    p = tuple(float(v) for v in np.asarray(x, dtype=float))
    to_p = d[atoms.index(p)] if p in atoms else [_dist(p, a) for a in atoms]
    m = len(atoms)
    total = 0.0
    for j in range(m):
        if to_p[j] <= eps:
            continue
        for k in range(m):
            if k == j:
                continue
            if to_p[k] <= eps or d[j][k] <= eps:
                continue
            total += weights[j] * weights[k] * _sym_raw(p, atoms[j], atoms[k], alpha)
    return total


def naive_pp_bilinear(mu: DiscreteMeasure, alpha: float, eps: float, left) -> list:
    """B_m = sum_{i,k} left_i w_k sym(x_m, x_i, x_k) at every atom m.

    Sums over ordered pairs of distinct atoms i, k, both farther than eps
    from x_m and more than eps apart: the bilinear form of the squared
    potential, which it equals at left = w.
    """
    atoms, weights = _atom_rows(mu)
    left = [float(v) for v in np.asarray(left)]
    d = mu.distance_matrix().tolist()
    m = len(atoms)
    out = []
    for c in range(m):
        total = 0.0
        for i in range(m):
            if d[c][i] <= eps:
                continue
            for k in range(m):
                if k == i or d[c][k] <= eps or d[i][k] <= eps:
                    continue
                total += left[i] * weights[k] * _sym_raw(atoms[c], atoms[i], atoms[k], alpha)
        out.append(total)
    return out


def naive_ball_mass_double_sum(mu: DiscreteMeasure, alpha: float, eps: float) -> float:
    """sum_{i != j, d_ij > eps} w_i w_j mu(B(x_i, d_ij)) / d_ij^(2a), closed balls
    counted atom by atom.

    Distances are read from the measure's distance matrix, so ties between
    mathematically equal distances are decided on the same rounded values
    as in the vectorized sum; the counting and summation are loops.
    """
    d = mu.distance_matrix().tolist()
    _, weights = _atom_rows(mu)
    m = len(weights)
    total = 0.0
    for i in range(m):
        for j in range(m):
            r = d[i][j]
            if j == i or r <= eps:
                continue
            mass = 0.0
            for k in range(m):
                if d[i][k] <= r:
                    mass += weights[k]
            total += weights[i] * weights[j] * mass / r ** (2.0 * alpha)
    return total


# ---------------------------------------------------------------------------
# Decomposition identity: 3 * L2 energy = triple sum + residual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """Exact split of three times the truncated-transform L2 energy."""

    lhs: float
    p_part: float
    residual: float

    @property
    def gap(self) -> float:
        """lhs - (p_part + residual); zero up to float reassociation."""
        return self.lhs - (self.p_part + self.residual)


def symmetrization_decomposition(
    mu: DiscreteMeasure, params: KernelParams, eps: float
) -> Decomposition:
    """Split 3 * riesz_l2_energy into the triple sum plus a residual.

    The residual is enumerated independently over the degenerate ordered
    configurations: pairs j = k, and pairs 0 < |x_j - x_k| <= eps with both
    atoms eps-visible from the center.  The triple sum never sees these
    configurations, so the identity checks it against the transform energy.
    """
    lhs = 3.0 * riesz_l2_energy(mu, params, eps)
    p_part = symmetrization_energy(mu, params, TruncationWindow(eps))
    residual = _residual_enumeration(mu, params, eps)
    return Decomposition(lhs=lhs, p_part=p_part, residual=residual)


def _residual_enumeration(mu: DiscreteMeasure, params: KernelParams, eps: float) -> float:
    """Degenerate ordered configurations, straight from their definitions."""
    d = mu.distance_matrix()
    w = mu.weights
    alpha = params.alpha
    x = mu.atoms
    total = 0.0
    # j = k: the center sees atom j twice, contributing w_j^2 |k(x_j-x_i)|^2.
    for i in range(mu.size):
        for j in range(mu.size):
            if d[i, j] > eps:
                total += w[i] * w[j] * w[j] * d[i, j] ** (-2.0 * alpha)
    # j != k with |x_j - x_k| <= eps: both visible from the center but the
    # pair itself falls outside the separated region.
    for j in range(mu.size):
        for k in range(mu.size):
            if k == j or d[j, k] > eps:
                continue
            for i in range(mu.size):
                if d[i, j] > eps and d[i, k] > eps:
                    kj = (x[j] - x[i]) * d[i, j] ** (-(1.0 + alpha))
                    kk = (x[k] - x[i]) * d[i, k] ** (-(1.0 + alpha))
                    total += w[i] * w[j] * w[k] * float(np.dot(kj, kk))
    return float(3.0 * total)


# ---------------------------------------------------------------------------
# Adaptive Simpson quadrature for the radial Wolff integral
# ---------------------------------------------------------------------------


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, whole, m, fm, tol, depth):
    if depth <= 0:
        raise ToleranceNotMetError("adaptive Simpson hit its subdivision cap")
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _adaptive(f, a, fa, m, fm, left, lm, flm, 0.5 * tol, depth - 1) + _adaptive(
        f, m, fm, b, fb, right, rm, frm, 0.5 * tol, depth - 1
    )


def _integrate_smooth(f, a, b, rel_tol, max_depth):
    if b <= a:
        return 0.0
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    tol = rel_tol * max(abs(whole), 1e-300)
    return _adaptive(f, a, fa, b, fb, whole, m, fm, tol, max_depth)


def quadrature_wolff(
    mu: DiscreteMeasure,
    x,
    exps: WolffExponents,
    window: TruncationWindow,
    qcfg: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Wolff-type radial integral by adaptive Simpson on log radius.

    Integrates (mu(B(x, r)) / r^trace)^dual_exp dr/r over the window.  The
    integrand is piecewise smooth between the sorted atom distances, so the
    quadrature runs piece by piece up to twice the largest breakpoint; the
    remaining tail, where the ball mass is constant, is added analytically.
    """
    trace = exps.trace
    dual_exp = exps.dual_exp
    eps = window.eps
    r_out = window.outer
    beta = trace * dual_exp
    if beta <= 0.0:
        raise DomainError(f"tail diverges for trace*dual_exp = {beta}")
    atoms, weights = _atom_rows(mu)
    p = tuple(float(v) for v in np.asarray(x, dtype=float))
    pairs = sorted(zip((_dist(p, a) for a in atoms), weights))

    def ball_mass(r: float) -> float:
        return sum(w for d, w in pairs if d <= r)

    def integrand_log(u: float) -> float:
        r = math.exp(u)
        m = ball_mass(r)
        return 0.0 if m <= 0.0 else (m / r**trace) ** dual_exp

    last = max(d for d, _ in pairs)
    r_num = min(max(2.0 * last, 2.0 * eps), r_out)
    cuts = sorted({eps, r_num} | {d for d, _ in pairs if eps < d < r_num})
    # The integrand jumps exactly at the cuts, so each piece samples a hair
    # inside its own interval; the clamp is a few ulps wide and contributes
    # nothing at the tolerances in play.
    pad = 5e-15
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        ua, ub = math.log(a), math.log(b)
        lo, hi = ua + pad, ub - pad
        if hi <= lo:
            total += (ub - ua) * integrand_log(0.5 * (ua + ub))
            continue
        clamped = lambda u, lo=lo, hi=hi: integrand_log(min(max(u, lo), hi))
        total += _integrate_smooth(clamped, ua, ub, qcfg.rel_tol, qcfg.max_subdivisions)
    if r_num < r_out:
        m_tail = ball_mass(r_num)
        top = 0.0 if math.isinf(r_out) else r_out ** (-beta)
        total += m_tail**dual_exp * (r_num ** (-beta) - top) / beta
    return total


# ---------------------------------------------------------------------------
# Matched Wolff energy as a cubic form of the weights
# ---------------------------------------------------------------------------


def wolff_cubic_form(mu: DiscreteMeasure, alpha: float, window: TruncationWindow) -> tuple:
    """Matched Wolff energy and its weight gradient, summed triple by triple.

    For the matched exponents (trace a, dual exponent 2) the integrand at
    x_i is (mu(B(x_i, r)) / r^a)^2, and the closed ball around x_i holds both
    x_j and x_l from radius max(d_ij, d_il) on.  Hence

        E(w) = sum_i sum_{j,l} w_i w_j w_l G(max(d_ij, d_il)),
        G(r) = (max(r, eps)^(-2a) - r_out^(-2a))_+ / (2a),

    a cubic form whose gradient needs no sorting or prefix sums.  Returns
    (E, [dE/dw_m for every atom m]).
    """
    if not (0.0 < alpha):
        raise DomainError(f"alpha must be positive, got {alpha}")
    beta = 2.0 * alpha
    top = 0.0 if window.r_out is None else window.r_out ** (-beta)
    atoms, weights = _atom_rows(mu)
    size = len(atoms)
    # G is nonincreasing in r, so G(max(d_ij, d_il)) = min(g_ij, g_il).
    g = [
        [max(max(_dist(p, q), window.eps) ** (-beta) - top, 0.0) / beta for q in atoms]
        for p in atoms
    ]
    energy = 0.0
    grad = [0.0] * size
    for i in range(size):
        wi, gi = weights[i], g[i]
        for j in range(size):
            wj = weights[j]
            for l in range(size):
                t = min(gi[j], gi[l])
                wl = weights[l]
                energy += wi * wj * wl * t
                grad[i] += wj * wl * t
                grad[j] += wi * wl * t
                grad[l] += wi * wj * t
    return energy, grad
