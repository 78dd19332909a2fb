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
# below N x N.  Distance blocks of 256-512 KiB, whose few temporaries stay
# in a 2 MiB L2 cache, built rows 1.3-2 times as fast as 2 MiB blocks on
# a 2-core Xeon VM.
_DISTANCE_BLOCK_BYTES = 512 << 10
_SORTED_BLOCK_BYTES = 2 << 20

# Share of the available memory (``_memory_budget``) that one large
# allocation may take before it is refused with SizeCapError.
_MEMORY_SHARE = 0.5


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
    # and "orbits", each atom's symmetry-orbit id (``_cantor_orbits``),
    # which only ``cantor_measure`` and a measure file that it reproduces
    # set; without it the orbits are singletons.  The only row entries are
    # those of the R orbit representatives: their distance rows
    # "rep_rows" (``_distance_rows``) and their intp row order "order"
    # (``_row_order``), 8 R N bytes each.  Every other row is built on
    # demand.  Only this module reads or writes the cache.
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
        """Full (N, N) pairwise distance matrix, built afresh on each call.

        The rows of ``_distance_rows``, all of them: nothing is cached.  No
        energy or optimizer path calls it; the oracles and the tests do.
        """
        _check_bytes(8 * self.size * self.size, "the distance matrix")
        return _built_rows(self.atoms, self.atoms)

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


def _distance_rows(mu: DiscreteMeasure, rows, first: int = 0) -> np.ndarray:
    """Distances from the atoms ``rows`` (a slice or an index array) to
    every atom from index ``first`` on, one row each.

    Computed from explicit coordinate differences (never the Gram-matrix
    shortcut): nearby atoms of deep Cantor measures sit 1e-10 apart on
    O(1) coordinates, where the difference-of-squares form loses all
    significant digits.  The rows are filled in blocks of
    ``_DISTANCE_BLOCK_BYTES``, one coordinate at a time
    (``_squared_distances``), then square-rooted.  Every entry is
    elementwise arithmetic, so a row is the same bits whichever rows are
    built with it, and an atom's distance to itself is exactly 0.

    This is the one rule for which rows a support keeps.  On a support
    with symmetry orbits, every functional of orbit-constant weights reads
    the R representatives' rows, so these are built once and kept,
    read-only, as "rep_rows" (8 R N bytes).  Rows that are all
    representatives come from them: a consecutive run of representatives
    as a view, any other set gathered.  Every other row is built on
    demand and not kept.
    """
    if isinstance(rows, slice):
        rows = np.arange(mu.size)[rows]
    orbits = mu._cache.get("orbits")
    # An orbit's id is its smallest atom, so its representative.
    if orbits is None or not np.array_equal(orbits[rows], rows):
        return _built_rows(mu.atoms[rows], mu.atoms[first:])
    if "rep_rows" not in mu._cache:
        is_rep = orbits == np.arange(mu.size)
        reps = np.flatnonzero(is_rep)
        _check_bytes(8 * len(reps) * mu.size, "the representatives' distance rows")
        at_reps = _built_rows(mu.atoms[reps], mu.atoms)
        at_reps.setflags(write=False)
        mu._cache["rep_rows"] = (np.cumsum(is_rep) - 1, at_reps)
    position, at_reps = mu._cache["rep_rows"]
    at = position[rows]
    if len(at) and np.all(np.diff(at) == 1):
        return at_reps[at[0] : at[0] + len(at), first:]
    return at_reps[at, first:]


def _built_rows(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Distances from each of ``sources``, any points, to every one of
    ``targets`` (possibly none), in row blocks of ``_DISTANCE_BLOCK_BYTES``."""
    d = np.empty((len(sources), len(targets)))
    block = max(1, _DISTANCE_BLOCK_BYTES // (8 * max(1, len(targets))))
    for i0 in range(0, len(sources), block):
        out = d[i0 : i0 + block]
        _squared_distances(sources[i0 : i0 + block], targets, out)
        np.sqrt(out, out=out)
    return d


def _memory_budget() -> float:
    """Bytes one allocation may take: ``_MEMORY_SHARE`` of MemAvailable in
    /proc/meminfo, or unbounded where that cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return _MEMORY_SHARE * 1024.0 * int(line.split()[1])
    except (OSError, ValueError):
        pass
    return math.inf


def _check_bytes(nbytes: int, what: str) -> None:
    """Refuse, before allocating, an array of ``nbytes`` above the budget."""
    budget = _memory_budget()
    if nbytes > budget:
        raise SizeCapError(
            f"{what} would take {nbytes / 2**20:.0f} MiB, above the memory "
            f"budget of {budget / 2**20:.0f} MiB"
        )


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
    mass, making profiles canonical.  The distances are x's row of
    ``_built_rows``: at an atom, its distance row.
    """
    p = as_point(x, mu.n)
    dists = _built_rows(p[None], mu.atoms)[0]
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
    the supremum is attained at r_min or at an atom distance.  One row of
    ``maximal_at_atoms``: the same bits at an atom.
    """
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    p = as_point(x, mu.n)[None]
    near, sorted_d = _sort_rows(mu.weights, _built_rows(p, mu.atoms))
    return float(np.max(_ratios(near, sorted_d, alpha, r_min, r_max)[0]))


def _row_order(mu: DiscreteMeasure) -> np.ndarray:
    """Stable per-row order of the support's orbit representatives'
    distance rows (``_symmetry_orbits``), cached as "order" and read-only:
    row r lists the atoms by distance from the r-th representative, ties
    in index order.

    An (R, N) array; without orbits R = N.  It is checked against the
    memory budget (``_check_bytes``) and filled from blocks of distance
    rows, each argsorted on its own.
    """
    if "order" not in mu._cache:
        reps = _symmetry_orbits(mu).reps
        _check_bytes(8 * len(reps) * mu.size, "the distance-row order")
        order = np.empty((len(reps), mu.size), dtype=np.intp)
        block = max(1, _SORTED_BLOCK_BYTES // (8 * mu.size))
        for i0 in range(0, len(reps), block):
            rows = _distance_rows(mu, reps[i0 : i0 + block])
            order[i0 : i0 + block] = np.argsort(rows, axis=1, kind="stable")
        order.setflags(write=False)
        mu._cache["order"] = order
    return mu._cache["order"]


def _sorted_rows(mu: DiscreteMeasure, rows: np.ndarray):
    """Yield (sel, near, sorted distances) over blocks of the atom rows
    ``rows``, an ascending index array of distinct atoms.

    ``sel`` slices positions in ``rows``; each block's distance rows
    (``_distance_rows``) are sorted by ``_sort_rows``.  Unequal weights
    gather through the support's cached row order (``_row_order``) when
    ``rows`` are its orbit representatives; otherwise each block's rows are
    sorted on their own, and no order is kept.  Blocks hold whole rows, so
    a tie group never straddles two blocks.
    """
    w = mu.weights
    order = None
    if not np.all(w == w[0]) and np.array_equal(rows, _symmetry_orbits(mu).reps):
        order = _row_order(mu)
    block = max(1, _SORTED_BLOCK_BYTES // (8 * mu.size))
    for i0 in range(0, len(rows), block):
        sel = slice(i0, i0 + block)
        by = None if order is None else order[sel]
        yield (sel, *_sort_rows(w, _distance_rows(mu, rows[sel]), by))


def _sort_rows(w: np.ndarray, dist: np.ndarray, by=None) -> tuple:
    """(near, sorted distances) of distance rows to every atom: each row in
    ascending order, and the weights in its stable distance order (ties in
    index order), given as ``by`` or argsorted row by row.  Equal weights
    need no order: the rows are value-sorted and ``near`` is the one weight,
    broadcast."""
    if by is None:
        if np.all(w == w[0]):
            sorted_d = np.sort(dist, axis=1)
            return np.broadcast_to(w[0], sorted_d.shape), sorted_d
        by = np.argsort(dist, axis=1, kind="stable")
    return w[by], np.take_along_axis(dist, by, axis=1)


def _prefix_masses(near: np.ndarray, power=None) -> np.ndarray:
    """Cumulative masses along sorted rows (``_sort_rows``), raised to
    ``power`` when given, read-only.  When ``near`` is the one weight
    broadcast, every row has the same prefix sums: one row is summed (and
    raised), broadcast."""
    cum = np.cumsum(near[:1] if near.strides[0] == 0 else near, axis=1)
    if power is not None:
        cum **= power
    return np.broadcast_to(cum, near.shape)


def _ratios(near: np.ndarray, sorted_d: np.ndarray, alpha: float, r_min: float,
            r_max: float) -> tuple:
    """(ratios, radii) along sorted rows (``_sort_rows``): radii max(d, r_min)
    and closed-ball masses over radii^alpha, zero for an empty ball or a
    radius above r_max.  A row's maximum is the maximal function at its
    center, attained at the radius of its argmax."""
    cum = _prefix_masses(near)
    r = np.maximum(sorted_d, r_min)
    # Only radii in [r_min, r_max] are admissible: none when r_max < r_min.
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where((cum > 0.0) & (r <= r_max), cum / r**alpha, 0.0)
    return vals, r


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
    for rows, near, sorted_d in _sorted_rows(mu, orbits.reps):
        vals, _ = _ratios(near, sorted_d, alpha, r_min, r_max)
        out[rows] = np.max(vals, axis=1)
    return out[orbits.index]


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
