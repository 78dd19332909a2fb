"""Pointwise kernel geometry.

Vector Riesz kernel k_a(x) = x / |x|^(1+a), the permutation-symmetrized
three-point quantity built from it, Menger curvature of planar triples, and
the largest-side function.  Everything here is pure and stateless; inputs
are plain coordinate arrays.

For 0 < a < 1 the symmetrization of a triple is positive and comparable to
L^(-2a), where L is the largest side of the triangle: it lies between
(2 - 2^a) / L^(2a) and 2^(1+a) / L^(2a).  For a > 1 it changes sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GeometryError

# Distances below this are treated as coincident points; |x|^(-2a) would
# overflow long before the threshold matters.
COINCIDENCE_EPS = 1e-300

# Triangles with area below COLLINEAR_RTOL * L^2 count as degenerate.
COLLINEAR_RTOL = 1e-14


@dataclass(frozen=True)
class KernelParams:
    """Kernel exponent a and ambient dimension n, with 0 < a < n."""

    alpha: float
    n: int

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise DomainError(f"ambient dimension must be a positive integer, got {self.n}")
        if not (0.0 < self.alpha < self.n):
            raise DomainError(f"alpha must lie in (0, n) = (0, {self.n}), got {self.alpha}")

    def require_fractional(self) -> None:
        """Reject exponents outside (0, 1), where positivity fails."""
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(
                f"operation requires 0 < alpha < 1 (positivity range), got alpha={self.alpha}"
            )


def as_point(x, n: int | None = None) -> np.ndarray:
    """Coerce to a finite float vector, optionally checking its dimension."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise GeometryError(f"point must be a 1-d coordinate sequence, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise GeometryError("point has non-finite coordinates")
    if n is not None and p.size != n:
        raise GeometryError(f"point has dimension {p.size}, expected {n}")
    return p


def riesz_kernel(x, params: KernelParams) -> np.ndarray:
    """Evaluate k_a(x) = x / |x|^(1+a).

    Odd in x, with |k_a(x)| = |x|^(-a).  Raises GeometryError at the origin.
    """
    p = as_point(x, params.n)
    r = float(np.linalg.norm(p))
    if r <= COINCIDENCE_EPS:
        raise GeometryError("Riesz kernel is undefined at the origin")
    return p * r ** (-(1.0 + params.alpha))


def _triple(x1, x2, x3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = as_point(x1)
    b = as_point(x2, a.size)
    c = as_point(x3, a.size)
    return a, b, c


def pairwise_distances(x1, x2, x3) -> tuple[float, float, float]:
    """Distances (|x1-x2|, |x1-x3|, |x2-x3|); raises on coincident points."""
    a, b, c = _triple(x1, x2, x3)
    d12 = float(np.linalg.norm(a - b))
    d13 = float(np.linalg.norm(a - c))
    d23 = float(np.linalg.norm(b - c))
    if min(d12, d13, d23) <= COINCIDENCE_EPS:
        raise GeometryError("triple contains coincident points")
    return d12, d13, d23


def largest_side(x1, x2, x3) -> float:
    """Largest pairwise distance of three mutually distinct points."""
    return max(pairwise_distances(x1, x2, x3))


def symmetrization(x1, x2, x3, params: KernelParams) -> float:
    """Three-point symmetrization of the Riesz kernel.

    Sum over the three cyclic orderings of the triple of the dot product of
    the two kernel legs leaving the base point:

        k_a(x2-x1).k_a(x3-x1) + k_a(x3-x2).k_a(x1-x2) + k_a(x1-x3).k_a(x2-x3)

    Invariant under all six argument orderings (the full six-permutation sum
    is exactly twice this value) and homogeneous of degree -2a.
    """
    a, b, c = _triple(x1, x2, x3)
    if a.size != params.n:
        raise GeometryError(f"triple has dimension {a.size}, params expect {params.n}")
    pairwise_distances(a, b, c)
    k12 = riesz_kernel(b - a, params)
    k13 = riesz_kernel(c - a, params)
    k23 = riesz_kernel(c - b, params)
    return float(np.dot(k12, k13) + np.dot(-k12, k23) + np.dot(-k13, -k23))


def symmetrization_many(triples: np.ndarray, alpha: float) -> np.ndarray:
    """Vectorized symmetrization for an array of triples.

    Parameters
    ----------
    triples : array of shape (T, 3, n)
        Coordinate triples; all must be pairwise distinct.
    alpha : float
        Kernel exponent, 0 < alpha < n.

    Returns
    -------
    array of shape (T,) with the symmetrization value of each triple.
    """
    t = np.asarray(triples, dtype=float)
    if t.ndim != 3 or t.shape[1] != 3:
        raise GeometryError(f"expected shape (T, 3, n), got {t.shape}")
    u12 = t[:, 1] - t[:, 0]
    u13 = t[:, 2] - t[:, 0]
    u23 = t[:, 2] - t[:, 1]
    d12 = np.linalg.norm(u12, axis=1)
    d13 = np.linalg.norm(u13, axis=1)
    d23 = np.linalg.norm(u23, axis=1)
    if min(d12.min(initial=np.inf), d13.min(initial=np.inf), d23.min(initial=np.inf)) <= COINCIDENCE_EPS:
        raise GeometryError("some triple contains coincident points")
    e = -(1.0 + alpha)
    k12 = u12 * (d12**e)[:, None]
    k13 = u13 * (d13**e)[:, None]
    k23 = u23 * (d23**e)[:, None]
    return (
        np.einsum("ij,ij->i", k12, k13)
        - np.einsum("ij,ij->i", k12, k23)
        + np.einsum("ij,ij->i", k13, k23)
    )


def sandwich_bounds(alpha: float) -> tuple[float, float]:
    """Two-sided bounds (lo, hi) for symmetrization * L^(2a), 0 < a < 1."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"bounds hold only for 0 < alpha < 1, got {alpha}")
    return 2.0 - 2.0**alpha, 2.0 ** (1.0 + alpha)


def _planar_triple(x1, x2, x3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a, b, c = _triple(x1, x2, x3)
    if a.size != 2:
        raise GeometryError(f"curvature requires planar points, got dimension {a.size}")
    return a, b, c


def menger_curvature_sq(x1, x2, x3) -> float:
    """Squared Menger curvature (1/R)^2 of three distinct planar points.

    R is the circumradius, computed from the side lengths and the triangle
    area (R = abc / 4A).  Collinear triples, detected by area below
    COLLINEAR_RTOL * L^2, return exactly 0.
    """
    p1, p2, p3 = _planar_triple(x1, x2, x3)
    d12, d13, d23 = pairwise_distances(p1, p2, p3)
    # Signed doubled area via the cross product; more stable than Heron's
    # formula for the thin triangles we must classify as collinear.
    twice_area = abs(
        (p2[0] - p1[0]) * (p3[1] - p1[1]) - (p3[0] - p1[0]) * (p2[1] - p1[1])
    )
    scale = max(d12, d13, d23)
    if twice_area <= 2.0 * COLLINEAR_RTOL * scale * scale:
        return 0.0
    # 1/R^2 = (4A)^2 / (abc)^2, written to avoid overflow for tiny sides.
    ratio = (2.0 * twice_area) / (d12 * d13 * d23)
    return float(ratio * ratio)


def curvature_permutation_sum(x1, x2, x3) -> float:
    """Six-permutation complex-kernel sum equal to the squared curvature.

    Treats the planar points as complex numbers z_j and sums
    1 / ((z_s1 - z_s3) * conj(z_s2 - z_s3)) over all six orderings.  The
    imaginary parts cancel in exact arithmetic; the real part is returned.
    """
    p1, p2, p3 = _planar_triple(x1, x2, x3)
    pairwise_distances(p1, p2, p3)
    z = [complex(p[0], p[1]) for p in (p1, p2, p3)]
    total = 0.0 + 0.0j
    for s1, s2, s3 in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        total += 1.0 / ((z[s1] - z[s3]) * (z[s2] - z[s3]).conjugate())
    return total.real


def equal_spacing_symmetrization(gap: float, alpha: float) -> float:
    """Closed form for three equally spaced collinear points with given gap.

    For points 0, g, 2g the cyclic sum collapses to (2^(1-a) - 1) * g^(-2a).
    Handy as an exact reference value in checks.
    """
    if gap <= 0.0:
        raise GeometryError(f"gap must be positive, got {gap}")
    return (2.0 ** (1.0 - alpha) - 1.0) * gap ** (-2.0 * alpha)


def random_triples(
    rng: np.random.Generator,
    count: int,
    n: int,
    min_area_frac: float = 0.0,
) -> np.ndarray:
    """Draw (count, 3, n) triples with mutually distinct points.

    Uniform in the box [-1, 1]^n; resamples the rare draws whose minimum
    pairwise distance is below 1e-9.  With
    ``min_area_frac`` > 0 (and n >= 2), triangles whose area is below
    min_area_frac * L^2 are also resampled: identities whose two sides both
    vanish at collinearity lose relative precision like (area/L^2)^-2 in
    doubles, so checks against tight relative tolerances need the floor.
    """
    out = rng.uniform(-1.0, 1.0, size=(count, 3, n))
    for _ in range(200):
        d = np.stack(
            [
                np.linalg.norm(out[:, 0] - out[:, 1], axis=1),
                np.linalg.norm(out[:, 0] - out[:, 2], axis=1),
                np.linalg.norm(out[:, 1] - out[:, 2], axis=1),
            ]
        )
        bad = d.min(axis=0) < 1e-9
        if min_area_frac > 0.0 and n >= 2:
            u = out[:, 1] - out[:, 0]
            v = out[:, 2] - out[:, 0]
            if n == 2:
                doubled = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
            else:
                sq = np.einsum("ij,ij->i", u, u) * np.einsum("ij,ij->i", v, v)
                doubled = np.sqrt(np.maximum(sq - np.einsum("ij,ij->i", u, v) ** 2, 0.0))
            bad |= 0.5 * doubled < min_area_frac * d.max(axis=0) ** 2
        if not bad.any():
            return out
        out[bad] = rng.uniform(-1.0, 1.0, size=(int(bad.sum()), 3, n))
    raise GeometryError("could not draw admissible triples")  # pragma: no cover


__all__ = [
    "COINCIDENCE_EPS",
    "KernelParams",
    "as_point",
    "riesz_kernel",
    "pairwise_distances",
    "largest_side",
    "symmetrization",
    "symmetrization_many",
    "sandwich_bounds",
    "menger_curvature_sq",
    "curvature_permutation_sum",
    "equal_spacing_symmetrization",
    "random_triples",
]
