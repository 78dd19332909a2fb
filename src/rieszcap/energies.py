"""Energy and potential functionals of discrete measures.

Implements, for an atomic measure mu with weights w_i at sites x_i:

* the triple-sum symmetrization energy over ordered atom triples whose
  pairwise distances all exceed a cutoff eps (positive for 0 < a < 1);
* truncated Riesz transforms R_eps(mu)(x) and their L2(mu) energy;
* Wolff potentials/energies in closed piecewise form;
* the pointwise squared symmetrization potential and the combined
  maximal-plus-potential energy whose reciprocal feeds capacity estimates;
* the ball-mass double sum, comparable to the triple-sum energy; it is
  alpha times the matched Wolff energy plus a boundary term at eps and a
  tie term (see ``ball_mass_double_sum``).

Every functional carries an explicit truncation window.  Atomic measures
make the untruncated Wolff integral and maximal function infinite, so the
inner radius should normally be at least the measure resolution ``delta``.
Cutoff comparisons are strict (> eps); ties at exactly eps are excluded.

Evaluating the triple sum
-------------------------
The triple sum, the transform's L2 energy and the squared potentials at
atoms share one evaluation: the completed square of a measure at one
(alpha, eps) is computed in one pass and kept, read-only, with that
measure's weights (``DiscreteMeasure._squares``), so each further
functional at the same cutoff reads it.
The squared potential at atom m is gram_m + X_m.  The center-leg part
gram_m sums w_j w_k K_mj . K_mk over ordered pairs of distinct atoms that
m sees beyond eps and that are themselves more than eps apart: the
completed square |R_m|^2 minus its diagonal j = k and the enumerated close
pairs.  The cross part X_m has the legs that join the two moving atoms.
With v = [d > eps] and K_kj = k_a(x_j - x_k), splitting v_ij into
1 - [i = j] - [(i, j) close] gives X_i = 2 (T1_i - T2_i - T3_i): T1 is
sum_k w_k v_ik K_ki . R_k, T2 reuses the diagonal's powers d^(-2 alpha)
and T3 sums w_j s_ij over the close partners j of i, with s_ij the
weighted dot product of the kernel rows of i and j.

Symmetric measures
------------------
Every row functional reads one row per symmetry orbit.  A corner-Cantor
measure carries its atoms' orbits under the cube's symmetries
(``measures._orbit_rows``); when the weights are constant on the orbits,
so is every per-atom scalar here (squared potentials, |R|^2, Wolff
potentials, the maximal function).  The row passes therefore run over
the R representatives only, and each atom takes its representative's
value.  T1 and T3 sum over every row: weighting each
representative row by its orbit's mass gives their orbit sums, and the
orbit mean is the value at the representative (``_completed_square``).
The completed square costs O(R (N + P)) in one pass over R kernel rows;
without orbits, or with weights that are not constant on them, R = N in
the same code.  The ball-mass double sum is the exception: it keeps
every row (see ``_ball_mass_rows``).

The triple sum is sum_i w_i (gram_i + X_i): every triple is summed once
around each of its three atoms (sum_i w_i X_i = 2 sum_k w_k gram_k).
The subtractions can cancel, so each atom's squared potential carries one
certificate: when it is at most ``CERTIFICATE_TAU`` times the sum of the
absolute terms it was computed from (the exact |dot| of every close-pair
term among them), both parts are recomputed directly from the masked Gram
matrix and the cross field at that atom.  When close pairs are dense
(P > N^2 / 4) every representative is computed that way, so memory stays
O(N^2).  Either way the recomputed parts are what the cache keeps, so a
center is recomputed at most once per measure and cutoff.  Beyond the
distance matrix, every pass holds one row block at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, UnsupportedExponentError
from .kernels import KernelParams, as_point
from .measures import (
    _EXTREME_RTOL,
    DiscreteMeasure,
    _orbit_rows,
    _sorted_rows,
    ball_profile,
    maximal_at_atoms,
    maximal_function,
)

# A completed-square result at most this share of the magnitudes it was
# computed from is not trusted and is recomputed directly at its center.
CERTIFICATE_TAU = 1e-3

# Negativity slack: squared potentials are clamped to zero when a sum
# undershoots by at most this relative amount.
_CANCEL_RTOL = 1e-8


@dataclass(frozen=True)
class TruncationWindow:
    """Inner cutoff radius eps (> 0) and optional outer cutoff r_out."""

    eps: float
    r_out: float | None = None

    def __post_init__(self):
        if not (self.eps > 0.0) or not math.isfinite(self.eps):
            raise DomainError(f"eps must be positive and finite, got {self.eps}")
        if self.r_out is not None and not (self.r_out > self.eps):
            raise DomainError(
                f"r_out={self.r_out} must exceed eps={self.eps} (or be omitted)"
            )

    @property
    def outer(self) -> float:
        return math.inf if self.r_out is None else self.r_out

    def scaled(self, factor: float) -> "TruncationWindow":
        """Window with both radii multiplied by a positive factor."""
        if factor <= 0.0:
            raise DomainError(f"scale factor must be positive, got {factor}")
        r = None if self.r_out is None else self.r_out * factor
        return TruncationWindow(self.eps * factor, r)


@dataclass(frozen=True)
class WolffExponents:
    """Smoothness/integrability exponents (s, p) of a Wolff potential in R^n.

    Requires 1 < p and 0 < s*p <= n.  Derived quantities: ``trace`` is
    n - s*p, the power of r dividing the ball mass, and ``dual_exp`` is
    p' - 1 = 1/(p - 1), the outer power of the integrand.
    """

    s: float
    p: float
    n: int

    def __post_init__(self):
        if not (self.p > 1.0) or not math.isfinite(self.p):
            raise DomainError(f"p must lie in (1, inf), got {self.p}")
        sp = self.s * self.p
        if not (0.0 < sp <= self.n):
            raise DomainError(f"s*p must lie in (0, n] = (0, {self.n}], got {sp}")

    @property
    def trace(self) -> float:
        return self.n - self.s * self.p

    @property
    def dual_exp(self) -> float:
        return 1.0 / (self.p - 1.0)

    @classmethod
    def matched(cls, params: KernelParams) -> "WolffExponents":
        """Exponents s = (2/3)(n - a), p = 3/2, for which trace = a and
        dual_exp = 2, so the radial integrand is (mu(B(x,r))/r^a)^2."""
        return cls(s=(2.0 / 3.0) * (params.n - params.alpha), p=1.5, n=params.n)


def _require_alpha_in(params: KernelParams, hi: float) -> None:
    if not (0.0 < params.alpha < hi):
        raise DomainError(f"alpha must lie in (0, {hi}), got {params.alpha}")


def _check_dims(mu: DiscreteMeasure, params: KernelParams) -> None:
    if mu.n != params.n:
        raise DomainError(f"measure lives in R^{mu.n} but params expect R^{params.n}")


def _row_block(n_atoms: int, n_dim: int) -> int:
    return max(1, (32 << 20) // max(1, n_atoms * n_dim * 8))


def _block_rows(mu: DiscreteMeasure, rows: np.ndarray, sel: slice):
    """The atoms of block ``sel`` of the ascending row set ``rows``: the
    slice itself when ``rows`` holds every atom, so the distance matrix's
    blocks are read in place."""
    return sel if len(rows) == mu.size else rows[sel]


def _kernel_rows(mu: DiscreteMeasure, alpha: float, eps: float, rows) -> np.ndarray:
    """K[m, j] = k_a(x_j - x_{rows[m]}) where d > eps, and zero where d <= eps."""
    x = mu.atoms
    diffs = x[None, :, :] - x[rows, None, :]
    d = mu.distance_matrix()[rows]
    with np.errstate(divide="ignore"):
        scale = d ** (-(1.0 + alpha))
    scale[d <= eps] = 0.0
    return diffs * scale[:, :, None]


def _kernel_from_point(mu: DiscreteMeasure, x: np.ndarray, alpha: float):
    """Kernel legs k_a(x_j - x) for every atom, plus the distances."""
    diffs = mu.atoms - x[None, :]
    d = np.linalg.norm(diffs, axis=1)
    with np.errstate(divide="ignore"):
        scale = d ** (-(1.0 + alpha))
    scale[d == 0.0] = 0.0
    return diffs * scale[:, None], d


def _close_pairs(mu: DiscreteMeasure, eps: float) -> np.ndarray:
    """Unordered atom pairs (a, b), a < b, with 0 < distance <= eps.

    Below the min gap's band (``measures._EXTREME_RTOL``) no entry of the
    distance matrix can be at most eps, so there are none and the matrix
    is not scanned.  From the band on, the mask of the matrix decides, so
    a distance that ties eps is read as the matrix rounds it.
    """
    if eps < mu.min_gap * (1.0 - _EXTREME_RTOL):
        return np.empty((0, 2), dtype=np.intp)
    # One N x N temporary: the triangle mask of np.triu would add two more.
    a, b = np.nonzero(mu.distance_matrix() <= eps)
    upper = a < b
    return np.stack([a[upper], b[upper]], axis=1)


# ---------------------------------------------------------------------------
# Truncated Riesz transform and its L2(mu) energy
# ---------------------------------------------------------------------------


def truncated_riesz_transform(
    mu: DiscreteMeasure, x, params: KernelParams, eps: float
) -> np.ndarray:
    """Sum of w_j k_a(x_j - x) over atoms strictly farther than eps from x."""
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    _check_dims(mu, params)
    p = as_point(x, mu.n)
    kernels, d = _kernel_from_point(mu, p, params.alpha)
    wv = np.where(d > eps, mu.weights, 0.0)
    return np.einsum("jn,j->n", kernels, wv)


def _transform_at_atoms(mu: DiscreteMeasure, alpha: float, eps: float, rows: np.ndarray,
                        pairs=None, mass=None) -> tuple:
    """Truncated transform and close-pair sums at the atoms ``rows``, in row
    blocks.

    Returns (r, close, close_abs, s, s_abs, u, u_abs); r, close and
    close_abs have one entry per atom of ``rows``.  The kernel rows carry
    the cutoff: K[m, j] = v_mj k_a(x_j - x_m) with v = [d > eps], and
    R_m = sum_j w_j K[m, j].  For the unordered close pairs (a, b) in
    ``pairs``, the same rows give dot_mp = K[m, a] . K[m, b], which vanishes
    unless m sees both atoms; close_m = 2 sum_p w_a w_b dot_mp, and
    close_abs_m sums the absolute terms.  With ``mass`` (one weight per
    row), the blocks also give s_p = sum_m mass_m dot_mp and, at every atom
    i, u_i = sum_m mass_m K[m, i] . R_m, each with the sum of the absolute
    values of its terms; otherwise these are zero.  A block's rows are
    sized from N + 2P, for its kernel rows and the two gathered legs, so
    memory beyond the O(N^2) distance matrix is one row block at any P and
    each kernel row is formed once.  close_abs and s_abs sum the exact
    |dot_mp| that the certificate needs.  The energies pass the
    representatives of the symmetry orbits (``_orbit_rows``), so the pass
    costs O(R (N + P)).
    """
    w = mu.weights
    a, b = np.empty((2, 0), dtype=int) if pairs is None else pairs.T
    pair_w = w[a] * w[b]
    count = len(rows)
    r = np.empty((count, mu.n))
    close = np.empty(count)
    close_abs = np.empty(count)
    s = np.zeros(len(a))
    s_abs = np.zeros(len(a))
    u = np.zeros(mu.size)
    u_abs = np.zeros(mu.size)
    block = _row_block(mu.size + 2 * len(a), mu.n)
    for i0 in range(0, count, block):
        sel = slice(i0, i0 + block)
        kernels = _kernel_rows(mu, alpha, eps, _block_rows(mu, rows, sel))
        r[sel] = np.einsum("mjn,j->mn", kernels, w)
        # One component at a time: a loop over the few components sums
        # faster than einsum does, and holds no (B, P, n) legs.
        dot = np.take(kernels[:, :, 0], a, axis=1)
        dot *= np.take(kernels[:, :, 0], b, axis=1)
        for c in range(1, mu.n):
            leg = np.take(kernels[:, :, c], a, axis=1)
            leg *= np.take(kernels[:, :, c], b, axis=1)
            dot += leg
        close[sel] = 2.0 * (dot @ pair_w)
        if mass is not None:
            s += mass[sel] @ dot
        np.abs(dot, out=dot)
        close_abs[sel] = 2.0 * (dot @ pair_w)
        if mass is not None:
            s_abs += mass[sel] @ dot
            # terms[m, i] = mass_m K[m, i] . R_m over the block's rows m.
            terms = np.einsum("min,mn->mi", kernels, r[sel])
            terms *= mass[sel, None]
            u += terms.sum(axis=0)
            u_abs += np.abs(terms, out=terms).sum(axis=0)
    return r, close, close_abs, s, s_abs, u, u_abs


def riesz_transform_at_atoms(
    mu: DiscreteMeasure, params: KernelParams, eps: float
) -> np.ndarray:
    """Truncated transform evaluated at every atom site, shape (N, n).

    A plain pass over every row, O(N^2) with orbits or not, that
    enumerates no close pairs and caches nothing.
    """
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    _check_dims(mu, params)
    return _transform_at_atoms(mu, params.alpha, eps, np.arange(mu.size))[0]


def _transform_sq(mu: DiscreteMeasure, alpha: float, eps: float,
                  rows: np.ndarray) -> np.ndarray:
    """|R_m|^2 of the truncated transform at the atoms ``rows``."""
    r = _transform_at_atoms(mu, alpha, eps, rows)[0]
    return np.einsum("mn,mn->m", r, r)


def riesz_l2_energy(mu: DiscreteMeasure, params: KernelParams, eps: float) -> float:
    """sum_i w_i |R_eps(mu)(x_i)|^2 over atom sites.

    Read from the measure's completed square at (alpha, eps) when one has
    been computed; otherwise a plain pass over the representatives of the
    symmetry orbits (``_orbit_rows``) that enumerates no close pairs and
    caches nothing.
    """
    if eps <= 0.0:
        raise DomainError(f"eps must be positive, got {eps}")
    _check_dims(mu, params)
    square = mu._squares.get((params.alpha, eps))
    if square is None:
        orbits = _orbit_rows(mu)
        sq = _transform_sq(mu, params.alpha, eps, orbits.reps)[orbits.index]
    else:
        sq = square.sq
    return float(np.dot(mu.weights, sq))


# ---------------------------------------------------------------------------
# Triple-sum symmetrization energy
# ---------------------------------------------------------------------------


def _warn_below_delta(window: TruncationWindow, mu: DiscreteMeasure) -> None:
    if window.eps < mu.delta * (1.0 - 1e-12):
        warnings.warn(
            f"eps={window.eps} is below the measure resolution delta={mu.delta}; "
            "truncated functionals probe scales where the atomic representation "
            "is not meaningful",
            stacklevel=3,
        )


def symmetrization_energy(
    mu: DiscreteMeasure, params: KernelParams, window: TruncationWindow
) -> float:
    """Triple sum of the kernel symmetrization over eps-separated atoms.

    Sums w_i w_j w_k times the three-point symmetrization over all ordered
    triples of distinct atoms whose three pairwise distances exceed
    window.eps; equivalently six times the sum over unordered triples.
    Nonincreasing in eps for 0 < alpha < 1.  The outer window radius does
    not apply to triple sums.

    Computed as sum_i w_i (gram_i + cross_i) over the certified parts of
    the squared potentials: each triple is summed once around each of its
    atoms.  This holds for every 0 < alpha < n and is not clamped.
    """
    _require_alpha_in(params, params.n)
    _check_dims(mu, params)
    _warn_below_delta(window, mu)
    if mu.size < 3:
        return 0.0
    square = _completed_square(mu, params.alpha, window.eps)
    return float(np.dot(mu.weights, square.gram + square.cross))


class _Square(NamedTuple):
    """The completed square of one measure at one (alpha, eps), read-only.

    ``sq`` is |R|^2, the squared truncated transform, at every atom,
    ``gram`` the center-leg sums and ``cross`` the cross part of the
    squared potentials, both certified (see ``_completed_square``).  All
    three are constant on the orbits: they are computed at the orbit
    representatives and spread to the atoms.
    """

    sq: np.ndarray
    gram: np.ndarray
    cross: np.ndarray


def _completed_square(mu: DiscreteMeasure, alpha: float, eps: float) -> _Square:
    """Certified completed-square sums per center.

    Computed once per measure and (alpha, eps) and kept in the measure's
    own ``_squares``, which no other weight vector shares: the atoms and
    weights are read-only, so the entry cannot go stale.  The sums are
    formed at the orbit representatives (``_orbit_rows``; every atom
    without orbits) and spread to the atoms, on whose orbits sq, gram and
    cross are constant.  A representative whose total is at most
    ``CERTIFICATE_TAU`` times the absolute terms it was summed from, and
    every representative when close pairs are dense (P > N^2 / 4), is
    recomputed directly at the atom while the entry is built, so each such
    center costs one O(S^2) direct pass per entry.
    When close pairs are dense, ``sq`` is from the plain transform pass
    and memory stays O(N^2).  gram_m = |R_m|^2 - diag_m - close_m is the
    center-leg sum.
    Splitting v_ij = 1 - [i = j] - [(i, j) close] in the cross part of the
    squared potential gives x_i = 2 (T1_i - T2_i - T3_i) with

        T1_i = sum_k w_k v_ik K_ki . R_k,
        T2_i = w_i sum_k w_k v_ik d_ik^(-2 alpha)  (the diagonal's powers),
        T3_i = sum over close pairs (i, j) of w_j s_ij,
        s_ab = sum_k w_k v_ka v_kb K_ka . K_kb     (the close-pair dots).

    R, the close-pair sums and the s_ab come from the kernel rows of one
    ``_transform_at_atoms`` pass over the representatives, and the powers
    d^(-2 alpha) from row blocks of the distance matrix, so memory beyond
    the O(N^2) distance matrix is one block and each kernel row is formed
    once.  T1 and T3 sum over every row k.  Row k = g(r) of an orbit
    O_r adds to the atom i the term that row r adds to g^-1(i), because
    the symmetry g is an isometry that fixes the weights and
    K_{g r, g j} = g K_rj; summed over an orbit O, which g maps onto
    itself, sum_{i in O} T1_i = sum_r |O_r| w_r sum_{j in O} K_rj . R_r.
    The pass therefore weights each representative row by its orbit mass
    |O_r| w_r, and T1 and T3 at a representative are their orbit means
    (with singleton orbits, the unweighted sums themselves).  The
    certificate's magnitudes add up the absolute terms of every part that
    was summed, each close-pair term with its exact |dot|.
    """
    key = (alpha, eps)
    if key not in mu._squares:
        mu._squares[key] = _build_square(mu, alpha, eps)
    return mu._squares[key]


def _build_square(mu: DiscreteMeasure, alpha: float, eps: float) -> _Square:
    orbits = _orbit_rows(mu)
    reps = orbits.reps
    pairs = _close_pairs(mu, eps)
    if len(pairs) > mu.size * mu.size // 4:
        sq = _transform_sq(mu, alpha, eps, reps)
        gram, cross = np.zeros(len(reps)), np.zeros(len(reps))
        redo = np.arange(len(reps))
    else:
        sq, gram, cross, magnitude = _square_sums(mu, alpha, eps, pairs, orbits)
        redo = np.flatnonzero(np.abs(gram + cross) <= CERTIFICATE_TAU * magnitude)
    d = mu.distance_matrix()
    for m in redo:
        legs = _kernel_rows(mu, alpha, eps, reps[m : m + 1])[0]
        gram[m], cross[m] = _direct_potential_sq(mu, legs, d[reps[m]], alpha, eps)
    square = _Square(sq[orbits.index], gram[orbits.index], cross[orbits.index])
    for array in square:
        array.setflags(write=False)
    return square


def _square_sums(mu: DiscreteMeasure, alpha: float, eps: float, pairs: np.ndarray,
                 orbits) -> tuple:
    """(sq, gram, cross, magnitude) of the completed square at the orbit
    representatives, uncertified."""
    reps = orbits.reps
    a, b = pairs.T
    d = mu.distance_matrix()
    w = mu.weights
    # Each representative row stands for its whole orbit.
    r, close, close_abs, s, s_abs, u, u_abs = _transform_at_atoms(
        mu, alpha, eps, reps, pairs, orbits.counts * w[reps])
    sq = np.einsum("mn,mn->m", r, r)
    diag = np.empty(len(reps))
    inv_w = np.empty(len(reps))
    ww = w * w
    block = _row_block(mu.size, mu.n)
    for i0 in range(0, len(reps), block):
        sel = slice(i0, i0 + block)
        rows = d[_block_rows(mu, reps, sel)]
        with np.errstate(divide="ignore"):
            inv = rows ** (-2.0 * alpha)
        inv[rows <= eps] = 0.0
        diag[sel] = inv @ ww
        inv_w[sel] = inv @ w
    t2 = w[reps] * inv_w
    # Gathered at every atom, T1 and T3 are sums over all rows k; the
    # representative rows give their orbit means (``_OrbitRows.mean``).
    t1, t1_abs = orbits.mean(u), orbits.mean(u_abs)
    t3 = orbits.mean(np.bincount(a, w[b] * s, mu.size) + np.bincount(b, w[a] * s, mu.size))
    t3_abs = orbits.mean(np.bincount(a, w[b] * s_abs, mu.size)
                         + np.bincount(b, w[a] * s_abs, mu.size))
    return (sq, sq - diag - close, 2.0 * (t1 - t2 - t3),
            sq + diag + close_abs + 2.0 * (t1_abs + t2 + t3_abs))


# ---------------------------------------------------------------------------
# Wolff potentials and energy (closed piecewise form)
# ---------------------------------------------------------------------------


def _wolff_beta(exps: WolffExponents) -> float:
    beta = exps.trace * exps.dual_exp
    if beta <= 0.0:
        raise UnsupportedExponentError(
            f"radial tail diverges: (n - s*p) * (p' - 1) = {beta} <= 0"
        )
    return beta


def wolff_potential(
    mu: DiscreteMeasure, x, exps: WolffExponents, window: TruncationWindow
) -> float:
    """Truncated Wolff potential at x, evaluated in closed form.

    Integrates (m(r)/r^trace)^dual_exp dr/r over [eps, outer] piece by piece:
    between ball-profile breakpoints the integrand is an exact power of r.
    Monotone nondecreasing as eps decreases; finite for every eps > 0 even
    at atom sites, where the untruncated integral diverges.
    """
    beta = _wolff_beta(exps)
    prof = ball_profile(mu, x)
    drop = _wolff_drops(prof.radii[None, :], beta, window)[0]
    terms = np.where(prof.masses > 0.0, prof.masses, 0.0) ** exps.dual_exp * drop / beta
    return float(terms.sum())


def _wolff_drops(sorted_d: np.ndarray, beta: float, window: TruncationWindow) -> np.ndarray:
    """lo^-beta - hi^-beta of every piece [lo, hi) of sorted distance rows,
    both ends clipped to [eps, outer]; the last piece of a row is unbounded."""
    lo = np.clip(sorted_d, window.eps, window.outer)
    hi = np.concatenate([sorted_d[:, 1:], np.full((len(sorted_d), 1), math.inf)], axis=1)
    hi = np.clip(hi, window.eps, window.outer)
    with np.errstate(divide="ignore"):
        return lo ** (-beta) - np.where(np.isinf(hi), 0.0, hi ** (-beta))


def wolff_potentials_at_atoms(
    mu: DiscreteMeasure, exps: WolffExponents, window: TruncationWindow
) -> np.ndarray:
    """Vectorized wolff_potential at every atom site, read one row per
    symmetry orbit (``_orbit_rows``)."""
    beta = _wolff_beta(exps)
    orbits = _orbit_rows(mu)
    out = np.empty(len(orbits.reps))
    for rows, near, sorted_d in _sorted_rows(mu, orbits.reps):
        cum = np.cumsum(near, axis=1)
        drop = _wolff_drops(sorted_d, beta, window)
        out[rows] = (cum**exps.dual_exp * drop / beta).sum(axis=1)
    return out[orbits.index]


def wolff_energy(
    mu: DiscreteMeasure, exps: WolffExponents, window: TruncationWindow
) -> float:
    """mu-integral of the truncated Wolff potential."""
    return float(np.dot(mu.weights, wolff_potentials_at_atoms(mu, exps, window)))


# ---------------------------------------------------------------------------
# Pointwise squared symmetrization potential and the combined energy
# ---------------------------------------------------------------------------


def symmetrization_potential_sq(
    mu: DiscreteMeasure, x, params: KernelParams, window: TruncationWindow
) -> float:
    """Double sum of the full three-point symmetrization around x.

    Sums w_j w_k sym(x, x_j, x_k) over ordered pairs of distinct atoms, both
    strictly farther than eps from x and mutually separated by more than
    eps.  This is the SQUARE of the potential entering the combined energy;
    take its square root for the potential itself.
    """
    _require_alpha_in(params, 1.0)
    _check_dims(mu, params)
    p = as_point(x, mu.n)
    kernels, dist = _kernel_from_point(mu, p, params.alpha)
    base, cross = _direct_potential_sq(mu, kernels, dist, params.alpha, window.eps)
    value = base + cross
    # Each admissible pair contributes a positive term for alpha < 1, so a
    # tiny negative total is pure float noise.
    if value < -_CANCEL_RTOL * (abs(base) + abs(cross) + 1e-300):
        raise DomainError("squared potential came out negative beyond float noise")
    return max(value, 0.0)


def _direct_potential_sq(
    mu: DiscreteMeasure, legs: np.ndarray, dist: np.ndarray, alpha: float, eps: float
) -> tuple:
    """Center-leg and cross parts of the squared potential at one point.

    ``legs`` and ``dist`` hold k_a(x_j - x) and |x_j - x| for every atom;
    both parts are summed directly over the positively weighted atoms
    farther than eps from x, in O(S^2) for S such atoms.
    """
    d = mu.distance_matrix()
    seen = np.flatnonzero((dist > eps) & (mu.weights > 0.0))
    legs, wv, x = legs[seen], mu.weights[seen], mu.atoms[seen]
    sep = d[np.ix_(seen, seen)] > eps
    base = float(wv @ ((legs @ legs.T) * sep) @ wv)
    cross = 0.0
    block = _row_block(len(seen), mu.n)
    for k0 in range(0, len(seen), block):
        dk = d[np.ix_(seen[k0 : k0 + block], seen)]
        with np.errstate(divide="ignore"):
            scale = np.where(sep[k0 : k0 + block], dk ** (-(1.0 + alpha)), 0.0)
        # field[k] = sum_j w_j [d_jk > eps] k_a(x_k - x_j)
        field = np.einsum("kjn,kj,j->kn", x[k0 : k0 + block, None, :] - x[None, :, :], scale, wv)
        cross += 2.0 * float(np.einsum("kn,kn,k->", legs[k0 : k0 + block], field, wv[k0 : k0 + block]))
    return base, cross


def symmetrization_potentials_sq_at_atoms(
    mu: DiscreteMeasure, params: KernelParams, window: TruncationWindow
) -> np.ndarray:
    """Squared symmetrization potential at every atom site.

    pp_i is the center-leg Gram part of the triple-sum energy plus the cross
    part X_i = 2 sum_{j,k} w_j w_k v_ij v_ik v_jk K_ki . K_kj, with
    v = [d > eps] and K_kj = k_a(x_j - x_k).  Both come from one completed
    square, in O(N^2 + N P) for P close pairs: the cross part is taken
    from the transform R, the diagonal's powers and the close-pair dot
    products (see ``_completed_square``).  A center whose total is at
    most ``CERTIFICATE_TAU`` times the magnitudes it was summed from, and
    every center when close pairs are dense, is recomputed directly at the
    atom, once per measure and cutoff.  Tiny negative totals are clamped
    to zero; an undershoot beyond the expected float noise raises.
    """
    _require_alpha_in(params, 1.0)
    _check_dims(mu, params)
    _warn_below_delta(window, mu)
    square = _completed_square(mu, params.alpha, window.eps)
    gram, cross = square.gram, square.cross
    pp = gram + cross
    floor = -_CANCEL_RTOL * (np.abs(gram) + np.abs(cross) + 1e-300)
    if np.any(pp < floor):
        raise DomainError(
            "squared potential came out negative beyond cancellation slack; "
            "this indicates a numerically hostile configuration"
        )
    return np.maximum(pp, 0.0)


def maximal_potential(
    mu: DiscreteMeasure, x, params: KernelParams, window: TruncationWindow
) -> float:
    """Truncated maximal function plus the square-rooted potential at x."""
    m = maximal_function(mu, x, params.alpha, r_min=window.eps, r_max=window.outer)
    return m + math.sqrt(symmetrization_potential_sq(mu, x, params, window))


def maximal_potential_values(
    mu: DiscreteMeasure, params: KernelParams, window: TruncationWindow
) -> np.ndarray:
    """Per-atom combined potential values M_i + sqrt(pp_i)."""
    m = maximal_at_atoms(mu, params.alpha, r_min=window.eps, r_max=window.outer)
    pp = symmetrization_potentials_sq_at_atoms(mu, params, window)
    return m + np.sqrt(pp)


def maximal_potential_energy(
    mu: DiscreteMeasure, params: KernelParams, window: TruncationWindow
) -> float:
    """mu-integral of the combined maximal-plus-potential values.

    Scales as lambda^(-alpha) under spatial dilation by lambda (window
    scaled along, mass fixed); its reciprocal on probability measures is
    the positive-capacity proxy.
    """
    return float(np.dot(mu.weights, maximal_potential_values(mu, params, window)))


# ---------------------------------------------------------------------------
# Ball-mass double sum
# ---------------------------------------------------------------------------


def ball_mass_double_sum(
    mu: DiscreteMeasure, params: KernelParams, window: TruncationWindow
) -> float:
    """sum over ordered pairs i != j, d_ij > eps of w_i w_j mu(B(x_i, d_ij)) / d_ij^(2a).

    Closed-ball masses; comparable (two-sided, constants depending on alpha)
    to the triple-sum symmetrization energy.  Summed by parts over each
    row's distinct distances it is, exactly and whatever ``window.r_out``,

        alpha W - 1/2 eps^(-2a) sum_i w_i mu(B(x_i, eps))^2
                + 1/2 sum_i w_i sum_g m_ig^2 r_ig^(-2a),

    with W the matched Wolff energy at r_out = None (p = 3/2, whose pieces
    have beta = 2a), g running over row i's distinct distances r_ig > eps
    and m_ig the mass at that distance: a Wolff energy up to a boundary
    term and a tie term.
    """
    _require_alpha_in(params, params.n)
    return float(np.dot(mu.weights, _ball_mass_rows(mu, params, window)))


def _ball_mass_rows(mu: DiscreteMeasure, params: KernelParams,
                    window: TruncationWindow) -> np.ndarray:
    """The double sum's row i: sum over j of w_j mu(B(x_i, d_ij)) / d_ij^(2a).

    Read on every row, orbits or not: closed-ball tie groups are decided by
    exact float equality, and distances equal in exact arithmetic can round
    one ulp apart, so the rows of one orbit can differ (by up to 7 % on the
    dimension-0.9 depth-2 Cantor at alpha 0.75).  Until ties are decided
    within a band, reading representatives would change the sum.
    """
    per_row = np.empty(mu.size)
    for rows, near, dist in _sorted_rows(mu):
        cum = np.cumsum(near, axis=1)
        # The closed ball through a tie group holds all of it: every member
        # takes the cumulative mass at the group's last member, which is the
        # smallest group-end mass at or after it because cum never decreases.
        last = np.ones(dist.shape, dtype=bool)
        np.not_equal(dist[:, 1:], dist[:, :-1], out=last[:, :-1])
        mass = np.minimum.accumulate(np.where(last, cum, np.inf)[:, ::-1], axis=1)[:, ::-1]
        with np.errstate(divide="ignore"):
            scale = dist ** (-2.0 * params.alpha)
        scale[dist <= window.eps] = 0.0
        per_row[rows] = np.einsum("ij,ij,ij->i", near, mass, scale)
    return per_row


# ---------------------------------------------------------------------------
# Energy report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyReport:
    """All energy functionals of one measure at one truncation window."""

    params: KernelParams
    window: TruncationWindow
    n_atoms: int
    symmetrization: float
    riesz_l2: float
    sup_riesz_l2: float
    wolff: float
    maximal_potential: float
    max_maximal: float

    CSV_COLUMNS = ("n", "alpha", "eps", "N_atoms", "p_alpha", "riesz_l2", "wolff",
                   "E_alpha", "M_max")

    def to_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "alpha": self.params.alpha,
            "eps": self.window.eps,
            "r_out": self.window.r_out,
            "N_atoms": self.n_atoms,
            "p_alpha": self.symmetrization,
            "riesz_l2": self.riesz_l2,
            "sup_riesz_l2": self.sup_riesz_l2,
            "wolff": self.wolff,
            "E_alpha": self.maximal_potential,
            "M_max": self.max_maximal,
        }

    def to_csv_row(self) -> tuple:
        return (
            self.params.n,
            self.params.alpha,
            self.window.eps,
            self.n_atoms,
            self.symmetrization,
            self.riesz_l2,
            self.wolff,
            self.maximal_potential,
            self.max_maximal,
        )


def default_eps_sweep(mu: DiscreteMeasure, eps: float) -> np.ndarray:
    """Geometric eps grid of 24 cutoffs from ``eps`` up to the diameter."""
    top = max(mu.diameter, 2.0 * eps)
    return np.geomspace(eps, top, 24)


def energy_report(
    mu: DiscreteMeasure,
    params: KernelParams,
    window: TruncationWindow,
) -> EnergyReport:
    """Evaluate every report functional of one measure at one window.

    ``sup_riesz_l2`` maximizes the transform energy over
    ``default_eps_sweep``, a geometric grid from the window's eps up to the
    diameter; it is a finite surrogate for the supremum over all eps.
    """
    _require_alpha_in(params, 1.0)
    sweep = default_eps_sweep(mu, window.eps)
    # The squared potentials complete the square at the window's eps; the
    # triple sum and the transform energy there read it from the cache.
    pp = symmetrization_potentials_sq_at_atoms(mu, params, window)
    l2 = [riesz_l2_energy(mu, params, float(e)) for e in sweep]
    exps = WolffExponents.matched(params)
    m_vals = maximal_at_atoms(mu, params.alpha, r_min=window.eps, r_max=window.outer)
    return EnergyReport(
        params=params,
        window=window,
        n_atoms=mu.size,
        symmetrization=symmetrization_energy(mu, params, window),
        riesz_l2=riesz_l2_energy(mu, params, window.eps),
        sup_riesz_l2=float(max(l2)),
        wolff=wolff_energy(mu, exps, window),
        maximal_potential=float(np.dot(mu.weights, m_vals + np.sqrt(pp))),
        max_maximal=float(m_vals.max()),
    )
