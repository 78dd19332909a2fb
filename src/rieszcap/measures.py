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

import numpy as np

from .errors import DomainError, MeasureFormatError, SizeCapError
from .kernels import COINCIDENCE_EPS, as_point

DEFAULT_ATOM_CAP = 65536

# Slack for the delta <= min-gap invariant: generator arithmetic can land
# exactly on the boundary up to one ulp.
_GAP_RTOL = 1e-12

# Cache entries that depend on the atoms only, shared by every weight vector.
# "orbits" holds each atom's symmetry-orbit id, the smallest atom index in
# its orbit; only ``cantor_measure`` sets it, and a measure without it has
# singleton orbits.
_GEOMETRY = ("min_gap", "dist", "order", "diameter", "orbits")

# Byte budget of one sorted row block (float64): small blocks keep the
# consumers' temporaries cache-sized and far below the cached N x N order.
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
    # The support's geometry (``_GEOMETRY``), filled lazily; ``with_weights``
    # seeds the new measure's cache with it.  The distance matrix and the
    # intp row order each take 8 N^2 bytes; ball-profile consumers add one
    # sorted row block (``_sorted_rows``) on top.  Entries that depend on
    # the weights, such as the completed square per (alpha, eps), live only
    # in this instance's cache.
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

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
            gap = _min_pairwise_distance(atoms)
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
            d = 0.0
            for block in _pair_distance_blocks(self.atoms):
                d = max(d, float(block.max(initial=0.0)))
            self._cache["diameter"] = d
        return self._cache["diameter"]

    def distance_matrix(self) -> np.ndarray:
        """Full (N, N) pairwise distance matrix, cached and read-only.

        Computed from explicit coordinate differences (never the Gram-matrix
        shortcut): nearby atoms of deep Cantor measures sit 1e-10 apart on
        O(1) coordinates, where the difference-of-squares form loses all
        significant digits.
        """
        if "dist" not in self._cache:
            x = self.atoms
            m = x.shape[0]
            d = np.empty((m, m))
            block = max(1, (4 << 20) // max(1, m * x.shape[1]))
            for i0 in range(0, m, block):
                diffs = x[i0 : i0 + block, None, :] - x[None, :, :]
                d[i0 : i0 + block] = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
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

        Weights equal to the measure's own return the measure itself, with
        its cache.  Otherwise the support's cached geometry (min gap,
        distance matrix, row order, diameter, symmetry orbits) carries over
        to the new measure in a cache of its own; the weights are checked as
        in the constructor.
        """
        if np.array_equal(np.asarray(weights, dtype=float).reshape(-1), self.weights):
            return self
        geometry = {k: self._cache[k] for k in _GEOMETRY if k in self._cache}
        return DiscreteMeasure(self.atoms, weights, self.delta, geometry)

    def normalized(self) -> "DiscreteMeasure":
        """Rescale weights to total mass one."""
        return self.with_weights(self.weights / self.total_mass)


def _pair_distance_blocks(atoms: np.ndarray):
    """Yield upper-triangle distance blocks of 1024 rows without
    materializing N x N."""
    n = atoms.shape[0]
    for i0 in range(0, n, 1024):
        rows = atoms[i0 : i0 + 1024]
        diffs = rows[:, None, :] - atoms[None, i0:, :]
        d = np.linalg.norm(diffs, axis=2)
        r, c = np.triu_indices(d.shape[0], k=1, m=d.shape[1])
        yield d[r, c]


def _min_pairwise_distance(atoms: np.ndarray) -> float:
    if atoms.shape[0] < 2:
        return math.inf
    best = math.inf
    for block in _pair_distance_blocks(atoms):
        if block.size:
            best = min(best, float(block.min()))
    return best


def merge_measures(a: DiscreteMeasure, b: DiscreteMeasure) -> DiscreteMeasure:
    """Union of two atom clouds; delta shrinks to stay below the new min gap."""
    if a.n != b.n:
        raise MeasureFormatError(f"dimension mismatch: {a.n} vs {b.n}")
    atoms = np.vstack([a.atoms, b.atoms])
    weights = np.concatenate([a.weights, b.weights])
    gap = _min_pairwise_distance(atoms)
    delta = min(a.delta, b.delta, gap if math.isfinite(gap) else min(a.delta, b.delta))
    return DiscreteMeasure(atoms, weights, delta)


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
    lam = spec.ratio
    corners = np.array(
        [[float(b) for b in np.binary_repr(k, width=spec.n)] for k in range(spec.pieces)]
    )
    centers = np.full((1, spec.n), 0.5)
    for _ in range(spec.depth):
        shifted = lam * centers[:, None, :] + (1.0 - lam) * corners[None, :, :]
        centers = shifted.reshape(-1, spec.n)
    atoms = spec.base * centers + np.asarray(spec.offset)
    weights = np.full(len(atoms), 1.0 / len(atoms))
    return DiscreteMeasure(atoms, weights, spec.cell_side,
                           {"orbits": _cantor_orbits(spec.n, spec.depth)})


def _cantor_orbits(n: int, depth: int) -> np.ndarray:
    """Orbit ids of the depth-m Cantor atoms under the symmetries of the cube.

    Atom k has m base-2^n corner digits, the first level most significant,
    and bit j of a digit (coordinate 0 most significant) is the corner's
    coordinate j.  Read per coordinate, the bits form n columns of m bits.
    The reflection x_j -> 1 - x_j about the cube center complements column
    j, and a permutation of the coordinates permutes the columns: the
    hyperoctahedral group acts on the columns alone, exactly.  The id is
    the smallest index in the orbit: complementing every column whose
    first bit is 1 and sorting the columns ascending (coordinate 0 first)
    minimizes the index, whose bits interleave the columns level by level.
    """
    index = np.arange((2**n) ** depth)
    shifts = np.arange(n * depth - 1, -1, -1)
    columns = ((index[:, None] >> shifts) & 1).reshape(len(index), depth, n)
    columns ^= columns[:, :1, :]
    places = np.arange(depth - 1, -1, -1)
    values = np.sort(np.einsum("kln,l->kn", columns, 1 << places), axis=1)
    bits = (values[:, None, :] >> places[None, :, None]) & 1
    ids = bits.reshape(len(index), n * depth) @ (1 << shifts)
    ids.setflags(write=False)
    return ids


def _orbits(mu: DiscreteMeasure) -> np.ndarray:
    """Each atom's symmetry-orbit id: the smallest atom index in its orbit."""
    return mu._cache.get("orbits", np.arange(mu.size))


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


def _row_order(mu: DiscreteMeasure) -> np.ndarray:
    """Stable per-row order of the distance matrix, cached and read-only:
    row i lists the atoms by distance from atom i, ties in index order."""
    if "order" not in mu._cache:
        order = np.argsort(mu.distance_matrix(), axis=1, kind="stable")
        order.setflags(write=False)
        mu._cache["order"] = order
    return mu._cache["order"]


def _sorted_rows(mu: DiscreteMeasure, subset=None):
    """Yield (rows, order, sorted distances) over blocks of atom rows.

    ``rows`` is a slice of atoms; ``order`` is its block of the cached row
    order and ``sorted distances`` the matching distance rows in that order.
    With an index array ``subset``, only those rows are read and ``rows``
    slices positions in ``subset``.  Blocks hold whole rows, so a tie group
    never straddles two blocks.
    """
    d = mu.distance_matrix()
    order = _row_order(mu)
    count = mu.size if subset is None else len(subset)
    block = max(1, _SORTED_BLOCK_BYTES // (8 * mu.size))
    for i0 in range(0, count, block):
        rows = slice(i0, i0 + block)
        sel = rows if subset is None else subset[rows]
        yield rows, order[sel], np.take_along_axis(d[sel], order[sel], axis=1)


def maximal_at_atoms(
    mu: DiscreteMeasure, alpha: float, r_min: float = 0.0, r_max: float = math.inf
) -> np.ndarray:
    """Vectorized maximal_function evaluated at every atom site."""
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    out = np.empty(mu.size)
    for rows, vals, _ in _maximal_rows(mu, alpha, r_min, r_max):
        out[rows] = np.max(vals, axis=1)
    return out


def _maximal_rows(mu: DiscreteMeasure, alpha: float, r_min: float, r_max: float):
    """Yield (rows, ratios, radii) over blocks of atom rows.

    Along a row in the cached row order, ``radii`` are max(d, r_min) and
    ``ratios`` the closed-ball masses over radii^alpha, zero for an empty
    ball or a radius above r_max.  The row maximum is the maximal function
    at that atom, attained at the radius of its argmax.
    """
    for rows, order, sorted_d in _sorted_rows(mu):
        cum = np.cumsum(mu.weights[order], axis=1)
        r = np.maximum(sorted_d, r_min)
        # Only radii in [r_min, r_max] are admissible: none when r_max < r_min.
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where((cum > 0.0) & (r <= r_max), cum / r**alpha, 0.0)
        yield rows, vals, r


# ---------------------------------------------------------------------------
# Serialization: JSON measure files and CSV import
# ---------------------------------------------------------------------------


def measure_to_json(mu: DiscreteMeasure) -> str:
    """Canonical JSON document {n, delta, atoms, weights} with a newline."""
    doc = {
        "n": mu.n,
        "delta": mu.delta,
        "atoms": [[float(v) for v in row] for row in mu.atoms],
        "weights": [float(w) for w in mu.weights],
    }
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
    return DiscreteMeasure(atoms, weights, delta=delta)


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
