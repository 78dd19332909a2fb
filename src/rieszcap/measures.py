"""Discrete measures, corner-Cantor generators and ball-mass queries.

A measure is a finite cloud of weighted atoms together with a resolution
scale ``delta``: the geometric scale below which the atomic representation
stops being meaningful.  Radial integrals and suprema taken against these
measures are truncated at ``delta`` (or a caller-chosen inner radius) by the
energy routines, because point masses make them diverge otherwise.

Ball masses use CLOSED balls throughout: mu(B(x, r)) counts atoms at
distance exactly r.  This makes the maximal function attain its supremum at
profile breakpoints.  An open-ball variant is deliberately not offered.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MeasureFormatError, SizeCapError
from .kernels import COINCIDENCE_EPS, as_point

DEFAULT_ATOM_CAP = 65536

# Slack for the delta <= min-gap invariant: generator arithmetic can land
# exactly on the boundary up to one ulp.
_GAP_RTOL = 1e-12

# Relative band around a block's extreme squared distance that holds its
# extreme distance as norm computes it: the two summation orders differ by
# a few ulps.  So is every off-diagonal entry of the distance matrix above
# min_gap * (1 - _EXTREME_RTOL).
_EXTREME_RTOL = 1e-12

# Byte budget of one row block of squared distances (float64), and of one
# sorted row block: small blocks keep the temporaries cache-sized and far
# below the N x N distance matrix.
_DISTANCE_BLOCK_BYTES = 2 << 20
_SORTED_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class DiscreteMeasure:
    """Immutable weighted atom cloud in R^n.

    Parameters
    ----------
    atoms : (N, n) array
        Pairwise-distinct atom positions.
    weights : (N,) array
        Nonnegative masses with positive total.
    delta : float, optional
        Resolution scale; must not exceed the minimum pairwise atom
        distance.  Defaults to that minimum (or 1.0 for a single atom).
    """

    atoms: np.ndarray
    weights: np.ndarray
    delta: float = None  # type: ignore[assignment]
    # The support's geometry, filled lazily and shared by reference with
    # every measure that ``with_weights`` makes: "min_gap", "diameter",
    # "dist" (8 N^2 bytes), the intp row orders "order" (8 R N bytes at the
    # R orbit representatives) and "full_order" (``_row_order``), and
    # "orbits", each atom's symmetry-orbit id (``_cantor_orbits``), which
    # only ``cantor_measure`` and a measure file that it reproduces set;
    # without it the orbits are singletons.
    _cache: dict = field(default_factory=dict, repr=False, compare=False)
    # The completed squares of these weights, one per (alpha, eps)
    # (``energies._completed_square``), kept by this measure alone.
    _squares: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if atoms.ndim != 2 or atoms.shape[0] != weights.shape[0]:
            raise MeasureFormatError(
                f"atoms {atoms.shape} and weights {weights.shape} do not align"
            )
        if atoms.shape[0] == 0:
            raise MeasureFormatError("measure needs at least one atom")
        if not np.all(np.isfinite(atoms)):
            raise MeasureFormatError("atom coordinates must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
            raise MeasureFormatError("weights must be finite and nonnegative")
        total = float(weights.sum())
        if total <= 0.0:
            raise MeasureFormatError("total mass must be positive")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        gap = self._cache.get("min_gap")
        if gap is None:
            gap = _extreme_pair_distance(atoms)
        if gap <= COINCIDENCE_EPS:
            raise MeasureFormatError("atoms must be pairwise distinct")
        delta = self.delta
        if delta is None:
            delta = gap if math.isfinite(gap) else 1.0
        delta = float(delta)
        if delta <= 0.0:
            raise MeasureFormatError(f"delta must be positive, got {delta}")
        if delta > gap * (1.0 + _GAP_RTOL):
            raise MeasureFormatError(
                f"delta={delta} exceeds the minimum pairwise atom distance {gap}"
            )
        object.__setattr__(self, "delta", delta)
        self._cache["min_gap"] = gap

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return self.atoms.shape[1]

    @property
    def size(self) -> int:
        return self.atoms.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def min_gap(self) -> float:
        """Minimum pairwise atom distance (inf for a single atom)."""
        return self._cache["min_gap"]

    @property
    def diameter(self) -> float:
        if "diameter" not in self._cache:
            self._cache["diameter"] = _extreme_pair_distance(self.atoms, largest=True)
        return self._cache["diameter"]

    def distance_matrix(self) -> np.ndarray:
        """Full (N, N) pairwise distance matrix, cached and read-only.

        Computed from explicit coordinate differences (never the Gram-matrix
        shortcut): nearby atoms of deep Cantor measures sit 1e-10 apart on
        O(1) coordinates, where the difference-of-squares form loses all
        significant digits.  Rows are built in blocks, one coordinate at a
        time (``_squared_distances``).
        """
        if "dist" not in self._cache:
            x = self.atoms
            m = x.shape[0]
            d = np.empty((m, m))
            block = max(1, _DISTANCE_BLOCK_BYTES // (8 * m))
            for i0 in range(0, m, block):
                rows = d[i0 : i0 + block]
                _squared_distances(x[i0 : i0 + block], x, rows)
                np.sqrt(rows, out=rows)
            np.fill_diagonal(d, 0.0)
            d.setflags(write=False)
            self._cache["dist"] = d
        return self._cache["dist"]

    # -- derived measures ----------------------------------------------------

    def translated(self, shift) -> "DiscreteMeasure":
        """Shift atom positions; the symmetry orbits move with them."""
        v = as_point(shift, self.n)
        return DiscreteMeasure(self.atoms + v, self.weights, self.delta, self._orbit_cache())

    def dilated(self, factor: float) -> "DiscreteMeasure":
        """Scale atom positions (and delta) by a positive factor; mass fixed.

        The symmetry orbits carry over: the dilation commutes with the
        symmetries about the dilated center.
        """
        if factor <= 0.0:
            raise DomainError(f"dilation factor must be positive, got {factor}")
        return DiscreteMeasure(self.atoms * factor, self.weights, self.delta * factor,
                               self._orbit_cache())

    def _orbit_cache(self) -> dict:
        return {"orbits": self._cache["orbits"]} if "orbits" in self._cache else {}

    def with_weights(self, weights) -> "DiscreteMeasure":
        """Same support with new weights.

        Weights equal to the measure's own return the measure itself.
        Otherwise the new measure shares the support's geometry (``_cache``)
        by reference, so what either builds serves both, and keeps
        completed squares of its own; the weights are checked as in the
        constructor.
        """
        if np.array_equal(np.asarray(weights, dtype=float).reshape(-1), self.weights):
            return self
        return DiscreteMeasure(self.atoms, weights, self.delta, self._cache)

    def normalized(self) -> "DiscreteMeasure":
        """Rescale weights to total mass one."""
        return self.with_weights(self.weights / self.total_mass)


def _squared_distances(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i, j] = |a_i - b_j|^2 from explicit coordinate differences.

    One coordinate at a time: each difference is squared in place, and the
    even and the odd coordinates are summed apart and then added.  That is
    the order in which NumPy's einsum reduces fewer than eight products, so
    below eight dimensions the sums equal an einsum over the differences
    bit for bit.
    """
    np.subtract.outer(a[:, 0], b[:, 0], out=out)
    out *= out
    odd = None
    for c in range(1, a.shape[1]):
        term = np.subtract.outer(a[:, c], b[:, c])
        term *= term
        if c % 2 == 0:
            out += term
        elif odd is None:
            odd = term
        else:
            odd += term
    if odd is not None:
        out += odd
    return out


def _extreme_pair_distance(atoms: np.ndarray, largest: bool = False) -> float:
    """Smallest (or largest) distance between two atoms, bit for bit as
    ``np.linalg.norm`` gives it: inf (or 0.0) for a single atom.

    Squared distances (``_squared_distances``) are summed in row blocks
    against the atoms from the block's first row on, so every unordered
    pair is seen without materializing N x N.  They can round a few ulps
    away from norm's sums, so a block's extreme square only locates its
    candidates, within ``_EXTREME_RTOL``, and those alone are measured
    with norm.
    """
    best = 0.0 if largest else math.inf
    m = atoms.shape[0]
    block = max(1, _DISTANCE_BLOCK_BYTES // (8 * m))
    for i0 in range(0, m, block):
        rows = atoms[i0 : i0 + block]
        sq = _squared_distances(rows, atoms[i0:], np.empty((len(rows), m - i0)))
        if largest:
            near = sq >= sq.max() * (1.0 - _EXTREME_RTOL)
        else:
            # Entry (k, k) of a block is its k-th row's own atom.
            np.fill_diagonal(sq, math.inf)
            low = sq.min()
            if low == math.inf:
                continue
            near = sq <= low * (1.0 + _EXTREME_RTOL)
        i, j = np.nonzero(near)
        dist = np.linalg.norm(rows[i] - atoms[i0 + j], axis=1)
        best = max(best, float(dist.max())) if largest else min(best, float(dist.min()))
    return best


def merge_measures(a: DiscreteMeasure, b: DiscreteMeasure) -> DiscreteMeasure:
    """Union of two atom clouds; delta shrinks to stay below the new min gap,
    which is measured once."""
    if a.n != b.n:
        raise MeasureFormatError(f"dimension mismatch: {a.n} vs {b.n}")
    atoms = np.vstack([a.atoms, b.atoms])
    weights = np.concatenate([a.weights, b.weights])
    gap = _extreme_pair_distance(atoms)
    return DiscreteMeasure(atoms, weights, min(a.delta, b.delta, gap), {"min_gap": gap})


# ---------------------------------------------------------------------------
# Corner-Cantor generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CantorSpec:
    """Corner-Cantor construction: 2^n corner sub-cubes of ratio lam per step.

    The depth-m set has (2^n)^m cells; atoms sit at cell centers with equal
    weights summing to one.  Similarity dimension is log(2^n) / log(1/lam).
    """

    n: int
    ratio: float
    depth: int
    base: float = 1.0
    offset: tuple = None  # type: ignore[assignment]
    max_atoms: int = DEFAULT_ATOM_CAP

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise DomainError(f"dimension must be a positive integer, got {self.n}")
        if not (0.0 < self.ratio <= 0.5):
            raise DomainError(f"contraction ratio must lie in (0, 1/2], got {self.ratio}")
        if self.depth < 0 or int(self.depth) != self.depth:
            raise DomainError(f"depth must be a nonnegative integer, got {self.depth}")
        if self.base <= 0.0:
            raise DomainError(f"base side must be positive, got {self.base}")
        offset = self.offset
        if offset is None:
            offset = (0.0,) * self.n
        offset = tuple(float(v) for v in np.asarray(offset, dtype=float).reshape(-1))
        if len(offset) != self.n:
            raise DomainError(f"offset has dimension {len(offset)}, expected {self.n}")
        object.__setattr__(self, "offset", offset)
        if self.atom_count > self.max_atoms:
            raise SizeCapError(
                f"depth {self.depth} would create {self.atom_count} atoms "
                f"(cap {self.max_atoms})"
            )

    @property
    def pieces(self) -> int:
        return 2**self.n

    @property
    def atom_count(self) -> int:
        return self.pieces**self.depth

    @property
    def similarity_dimension(self) -> float:
        return math.log(self.pieces) / math.log(1.0 / self.ratio)

    @property
    def cell_side(self) -> float:
        """Side length of a depth-m cell: base * ratio^m."""
        return self.base * self.ratio**self.depth


def cantor_spec_for_dimension(
    n: int, dimension: float, depth: int, base: float = 1.0, offset=None,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> CantorSpec:
    """Spec whose similarity dimension equals the requested value (<= n)."""
    if not (0.0 < dimension <= n):
        raise DomainError(f"dimension must lie in (0, {n}], got {dimension}")
    ratio = 2.0 ** (-n / dimension)
    return CantorSpec(n=n, ratio=ratio, depth=depth, base=base, offset=offset,
                      max_atoms=max_atoms)


def cantor_measure(spec: CantorSpec) -> DiscreteMeasure:
    """Depth-m corner-Cantor measure: cell centers, equal weights, mass one.

    Deterministic: corners are visited in lexicographic order level by
    level, so identical specs give bit-identical measures.  The resolution
    delta equals the cell side base * ratio^m.  The measure carries the
    symmetry orbits of its atoms (``_cantor_orbits``).
    """
    weights = np.full(spec.atom_count, 1.0 / spec.atom_count)
    return DiscreteMeasure(_cantor_atoms(spec), weights, spec.cell_side,
                           {"orbits": _cantor_orbits(spec.n, spec.depth)})


def _cantor_atoms(spec: CantorSpec) -> np.ndarray:
    """The cell centers of the spec, corners in lexicographic order."""
    lam = spec.ratio
    corners = np.array(
        [[float(b) for b in np.binary_repr(k, width=spec.n)] for k in range(spec.pieces)]
    )
    centers = np.full((1, spec.n), 0.5)
    for _ in range(spec.depth):
        shifted = lam * centers[:, None, :] + (1.0 - lam) * corners[None, :, :]
        centers = shifted.reshape(-1, spec.n)
    return spec.base * centers + np.asarray(spec.offset)


def _cantor_orbits(n: int, depth: int) -> np.ndarray:
    """Orbit ids of the depth-m Cantor atoms under the symmetries of the cube.

    Atom k has m base-2^n corner digits, the first level most significant,
    and bit j of a digit (coordinate 0 most significant) is the corner's
    coordinate j.  Read per coordinate, the bits form n columns of m bits.
    The reflection x_j -> 1 - x_j about the cube center complements column
    j, and a permutation of the coordinates permutes the columns: the
    hyperoctahedral group acts on the columns alone, exactly.  The orbit id
    is the smallest index in the orbit: complementing every column whose
    first bit is 1 and sorting the columns ascending (coordinate 0 first)
    minimizes the index, whose bits interleave the columns level by level.
    """
    index = np.arange((2**n) ** depth)
    shifts = np.arange(n * depth - 1, -1, -1)
    columns = ((index[:, None] >> shifts) & 1).reshape(len(index), depth, n)
    # The first-level bits (none at depth 0) mark the complemented columns.
    columns ^= columns[:, :1, :].any(axis=1)[:, None, :]
    places = np.arange(depth - 1, -1, -1)
    values = np.sort(np.einsum("kln,l->kn", columns, 1 << places), axis=1)
    bits = (values[:, None, :] >> places[None, :, None]) & 1
    ids = bits.reshape(len(index), n * depth) @ (1 << shifts)
    ids.setflags(write=False)
    return ids


def _orbits(mu: DiscreteMeasure) -> np.ndarray:
    """Each atom's symmetry-orbit id: the smallest atom index in its orbit."""
    return mu._cache.get("orbits", np.arange(mu.size))


class _OrbitRows(NamedTuple):
    """The rows a functional of orbit-invariant weights reads.

    ``reps`` are the representatives' atom indices (ascending), ``index``
    each atom's position in ``reps`` and ``counts`` the orbit sizes.
    """

    reps: np.ndarray
    index: np.ndarray
    counts: np.ndarray

    def mean(self, at_atoms: np.ndarray) -> np.ndarray:
        """Orbit means of a per-atom scalar, at the representatives."""
        return np.bincount(self.index, at_atoms, len(self.reps)) / self.counts


def _symmetry_orbits(mu: DiscreteMeasure) -> _OrbitRows:
    """Representatives, orbit index and orbit sizes of the support's
    symmetry orbits, whatever the weights."""
    if "orbits" not in mu._cache:
        return _singleton_orbits(mu)
    return _OrbitRows(*np.unique(mu._cache["orbits"], return_inverse=True,
                                 return_counts=True))


def _singleton_orbits(mu: DiscreteMeasure) -> _OrbitRows:
    """Every atom its own representative."""
    every = np.arange(mu.size)
    return _OrbitRows(every, every, np.ones(mu.size, dtype=int))


def _orbit_rows(mu: DiscreteMeasure) -> _OrbitRows:
    """The symmetry orbits that a functional of mu's weights may reduce to.

    The support's orbits (``_symmetry_orbits``) are used when mu's weights
    are constant on them, bitwise (uniform weights and every Wolff
    optimizer iterate are); then every functional of the measure is
    constant on the orbits too, and a per-atom scalar is its value at the
    representative.  Otherwise every atom is its own representative, so
    R = N and the same code reads every row.
    """
    orbits = _symmetry_orbits(mu)
    if len(orbits.reps) == mu.size or np.array_equal(
            mu.weights[orbits.reps][orbits.index], mu.weights):
        return orbits
    return _singleton_orbits(mu)


# ---------------------------------------------------------------------------
# Ball profiles and the fractional maximal function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallProfile:
    """mu(B(x, r)) as a right-continuous step function of r.

    ``radii`` are the sorted distinct atom distances from the center;
    ``masses`` are the cumulative masses of the closed balls at those radii.
    """

    center: np.ndarray
    radii: np.ndarray
    masses: np.ndarray

    def mass_at(self, r: float) -> float:
        """Closed-ball mass mu(B(center, r))."""
        idx = int(np.searchsorted(self.radii, r, side="right"))
        return 0.0 if idx == 0 else float(self.masses[idx - 1])


def ball_profile(mu: DiscreteMeasure, x) -> BallProfile:
    """Distance breakpoints and cumulative closed-ball masses seen from x.

    Ties in distance are merged into a single breakpoint carrying the summed
    mass, making profiles canonical.
    """
    p = as_point(x, mu.n)
    dists = np.linalg.norm(mu.atoms - p, axis=1)
    radii, inverse = np.unique(dists, return_inverse=True)
    masses = np.cumsum(np.bincount(inverse, weights=mu.weights, minlength=len(radii)))
    radii.setflags(write=False)
    masses.setflags(write=False)
    return BallProfile(center=p, radii=radii, masses=masses)


def maximal_function(
    mu: DiscreteMeasure, x, alpha: float, r_min: float = 0.0, r_max: float = math.inf
) -> float:
    """sup over r in [max(r_min, 0+), r_max] of mu(B(x, r)) / r^alpha.

    With r_min = 0 this is the untruncated fractional maximal function; it
    returns +inf when x carries positive point mass.  For a discrete measure
    the supremum is attained at r_min or at a profile breakpoint.
    """
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if r_max < r_min:
        return 0.0
    prof = ball_profile(mu, x)
    keep = prof.radii <= r_max
    if not keep.any():
        # Every atom lies beyond r_max, so all admissible balls are empty.
        return 0.0
    r = np.maximum(prof.radii[keep], r_min)
    m = prof.masses[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(m > 0.0, m / r**alpha, 0.0)
    return float(np.max(vals))


def _row_order(mu: DiscreteMeasure, every: bool = False) -> np.ndarray:
    """Stable per-row order of the distance matrix, cached and read-only:
    row r lists the atoms by distance from the r-th row's atom, ties in
    index order.

    The rows are the support's orbit representatives (``_symmetry_orbits``),
    an (R, N) array kept as "order", or with ``every`` all N atoms, kept
    apart as "full_order".  Without orbits R = N and "order" is both.
    """
    reps = _symmetry_orbits(mu).reps
    every = every and len(reps) < mu.size
    key = "full_order" if every else "order"
    if key not in mu._cache:
        d = mu.distance_matrix()
        if not every and len(reps) < mu.size:
            d = d[reps]
        order = np.argsort(d, axis=1, kind="stable")
        order.setflags(write=False)
        mu._cache[key] = order
    return mu._cache[key]


def _sorted_rows(mu: DiscreteMeasure, subset=None):
    """Yield (rows, near, sorted distances) over blocks of atom rows.

    ``rows`` is a slice of atoms; ``sorted distances`` are their distance
    rows in ascending order and ``near`` the weights in each row's stable
    distance order (ties in index order).  Equal weights need no order:
    the rows are value-sorted and ``near`` is the one weight, broadcast.
    Other weights gather through the cached row order (``_row_order``)
    when it holds the rows read: the orbit representatives, or every atom
    once an order of every row is cached.  Otherwise each block's rows are
    argsorted on their own, and the order is not kept.  With an ascending
    index array ``subset`` of distinct atoms, only those rows are read and
    ``rows`` slices positions in ``subset``; a subset of every atom reads
    the blocks in place.  Blocks hold whole rows, so a tie group never
    straddles two blocks.
    """
    d = mu.distance_matrix()
    w = mu.weights
    if subset is not None and len(subset) == mu.size:
        subset = None
    equal = np.all(w == w[0])
    order = None
    if not equal:
        reps = _symmetry_orbits(mu).reps
        if np.array_equal(np.arange(mu.size) if subset is None else subset, reps):
            order = _row_order(mu)
        elif subset is None:
            order = mu._cache.get("full_order")
    count = mu.size if subset is None else len(subset)
    block = max(1, _SORTED_BLOCK_BYTES // (8 * mu.size))
    for i0 in range(0, count, block):
        rows = slice(i0, i0 + block)
        dist = d[rows if subset is None else subset[rows]]
        if equal:
            sorted_d = np.sort(dist, axis=1)
            yield rows, np.broadcast_to(w[0], sorted_d.shape), sorted_d
            continue
        by = np.argsort(dist, axis=1, kind="stable") if order is None else order[rows]
        yield rows, w[by], np.take_along_axis(dist, by, axis=1)


def maximal_at_atoms(
    mu: DiscreteMeasure, alpha: float, r_min: float = 0.0, r_max: float = math.inf
) -> np.ndarray:
    """Vectorized maximal_function evaluated at every atom site.

    Reads one row per symmetry orbit (``_orbit_rows``).
    """
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    orbits = _orbit_rows(mu)
    out = np.empty(len(orbits.reps))
    for rows, vals, _ in _maximal_rows(mu, alpha, r_min, r_max, orbits.reps):
        out[rows] = np.max(vals, axis=1)
    return out[orbits.index]


def _maximal_rows(mu: DiscreteMeasure, alpha: float, r_min: float, r_max: float,
                  subset=None):
    """Yield (rows, ratios, radii) over blocks of atom rows (of ``subset``,
    as in ``_sorted_rows``).

    Along a row in ascending distance order, ``radii`` are max(d, r_min) and
    ``ratios`` the closed-ball masses over radii^alpha, zero for an empty
    ball or a radius above r_max.  The row maximum is the maximal function
    at that atom, attained at the radius of its argmax.
    """
    for rows, near, sorted_d in _sorted_rows(mu, subset):
        cum = np.cumsum(near, axis=1)
        r = np.maximum(sorted_d, r_min)
        # Only radii in [r_min, r_max] are admissible: none when r_max < r_min.
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where((cum > 0.0) & (r <= r_max), cum / r**alpha, 0.0)
        yield rows, vals, r


# ---------------------------------------------------------------------------
# Serialization: JSON measure files and CSV import
# ---------------------------------------------------------------------------


def measure_to_json(mu: DiscreteMeasure, cantor: CantorSpec | None = None) -> str:
    """Canonical JSON document {n, delta, atoms, weights} with a newline.

    With the ``cantor`` spec that built mu, the document also records it
    under "cantor" (n, ratio, depth, base, offset), so that reading the file
    back restores the measure's symmetry orbits.
    """
    doc = {
        "n": mu.n,
        "delta": mu.delta,
        "atoms": [[float(v) for v in row] for row in mu.atoms],
        "weights": [float(w) for w in mu.weights],
    }
    if cantor is not None:
        doc["cantor"] = {"n": cantor.n, "ratio": cantor.ratio, "depth": cantor.depth,
                         "base": cantor.base, "offset": list(cantor.offset)}
    return json.dumps(doc) + "\n"


def measure_from_json(text: str) -> DiscreteMeasure:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MeasureFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MeasureFormatError("measure document must be a JSON object")
    missing = {"n", "delta", "atoms", "weights"} - set(doc)
    if missing:
        raise MeasureFormatError(f"measure document missing keys: {sorted(missing)}")
    try:
        atoms = np.asarray(doc["atoms"], dtype=float)
        weights = np.asarray(doc["weights"], dtype=float)
        delta = float(doc["delta"])
    except (TypeError, ValueError) as exc:
        raise MeasureFormatError(f"non-numeric atoms, weights or delta: {exc}") from exc
    if atoms.ndim != 2 or atoms.shape[1] != doc["n"]:
        raise MeasureFormatError(
            f"atoms must be a list of length-{doc['n']} rows, got shape {atoms.shape}"
        )
    geometry = {} if "cantor" not in doc else _file_orbits(doc["cantor"], atoms)
    return DiscreteMeasure(atoms, weights, delta, geometry)


def _file_orbits(key, atoms: np.ndarray) -> dict:
    """The symmetry orbits of a measure file's "cantor" spec, when the spec
    rebuilds the file's atoms bit for bit; no orbits otherwise."""
    fields = ("n", "ratio", "depth", "base", "offset")
    if not isinstance(key, dict) or set(key) != set(fields):
        raise MeasureFormatError(f'"cantor" must be an object with keys {list(fields)}')
    if not all(type(key[f]) is int for f in ("n", "depth")):
        raise MeasureFormatError('"cantor" n and depth must be integers')
    try:
        # The file's own atom count is the cap: a spec with more atoms
        # cannot rebuild them.
        spec = CantorSpec(**key, max_atoms=len(atoms))
    except SizeCapError:
        return {}
    except (TypeError, ValueError) as exc:
        raise MeasureFormatError(f'invalid "cantor" spec: {exc}') from exc
    if spec.atom_count != len(atoms):
        return {}
    built = _cantor_atoms(spec)
    if built.shape != atoms.shape or built.tobytes() != atoms.tobytes():
        return {}
    return {"orbits": _cantor_orbits(spec.n, spec.depth)}


def measure_from_csv(text: str) -> DiscreteMeasure:
    """Parse CSV with header columns x1..xn,w; delta defaults to the min gap."""
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise MeasureFormatError("empty CSV measure file")
    header = [h.strip() for h in rows[0]]
    if header[-1] != "w" or header[:-1] != [f"x{i}" for i in range(1, len(header))]:
        raise MeasureFormatError(
            f"CSV header must be x1..xn,w, got {','.join(header)}"
        )
    n = len(header) - 1
    try:
        data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise MeasureFormatError(f"non-numeric CSV entry: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != n + 1:
        raise MeasureFormatError("CSV rows do not match the header width")
    return DiscreteMeasure(data[:, :n], data[:, n])


def save_measure(mu: DiscreteMeasure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(measure_to_json(mu))


def load_measure(path) -> DiscreteMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".csv"):
        return measure_from_csv(text)
    return measure_from_json(text)
