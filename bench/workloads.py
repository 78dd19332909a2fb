"""The benchmark's workloads: inputs drawn from the seed, the items of one
pass, and the checks on their outputs.

Every workload is a closed loop with one caller: an item starts when the
previous one has returned.  The seed picks alpha; the library only sees
the generated inputs.  Names are looked up on the ``rieszcap`` modules at
call time, so the traced run sees every call the tracer wraps.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import rieszcap.energies as energies
import rieszcap.experiments as experiments
import rieszcap.measures as measures
from rieszcap.kernels import KernelParams

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ALPHAS = (0.25, 0.5, 0.75)

# The sweep archive is matched to this relative tolerance (acceptance
# criterion of the repository).
SWEEP_RTOL = 1e-12
# Energy references were recorded on one machine; a looser tolerance
# absorbs last-bit differences of other BLAS kernels.
ENERGY_RTOL = 1e-10
# Slack of the eps-monotonicity check, for rounding in equal values.
MONOTONE_RTOL = 1e-12

SWEEP_FACTORS = (1.0, 1.2, 1.5)
WIDE_EPS_FACTORS = (1.0, 4.0, 16.0, 64.0, 256.0)


def alpha_for_seed(seed: int) -> float:
    """Seed 0 draws alpha = 0.5; consecutive seeds cycle through ALPHAS."""
    return ALPHAS[(seed + 1) % len(ALPHAS)]


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


@dataclass(frozen=True)
class Item:
    """One library call of a pass; ``outputs`` is how many checks it feeds."""

    name: str
    call: object
    outputs: int


@dataclass
class Pass:
    """The items of one pass and the check that judges their results.

    ``check(results)`` returns one message per failed output; a pass makes
    one check per item output plus ``extra_checks``.
    """

    items: list
    check: object
    extra_checks: int = 0

    @property
    def attempted(self) -> int:
        return sum(item.outputs for item in self.items) + self.extra_checks


def load_sweep_archive() -> dict:
    """Archived sweep rows keyed by (alpha, dim, depth); set ids repeat."""
    rows = {}
    with open(REFERENCE_DIR / "comparability_sweep.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (float(row["alpha"]), float(row["dim"]), int(row["depth"]))
            rows[key] = row
    return rows


def _result_failures(results: dict, name: str, outputs: int):
    """Failure messages for an item that raised (one per output)."""
    value = results[name]
    if isinstance(value, BaseException):
        return [f"{name}: {type(value).__name__}: {value}"] * outputs
    return []


# ---------------------------------------------------------------------------
# sweep: the acceptance path, optimizer-bound
# ---------------------------------------------------------------------------

_SWEEP_FIELDS = (
    ("eps", "eps"), ("n_atoms", "N_atoms"), ("sym_energy", "sym_energy"),
    ("wolff_energy", "wolff_energy"), ("double_sum", "double_sum"),
    ("energy_proxy", "energy_proxy"), ("wolff_proxy", "wolff_proxy"),
    ("optimizer_iters", "iters"), ("converged", "converged"),
)


def _check_point(point, archive) -> list:
    key = (point.alpha, point.dimension, point.depth)
    row = archive.get(key)
    if row is None:
        return [f"cell {key}: not in the archive"]
    bad = [
        f"{attr}={getattr(point, attr)!r} vs {float(row[column])!r}"
        for attr, column in _SWEEP_FIELDS
        if not relative_error(float(getattr(point, attr)), float(row[column])) <= SWEEP_RTOL
    ]
    return [f"cell {key}: " + ", ".join(bad)] if bad else []


def sweep_pass(seed: int, smoke: bool) -> Pass:
    """Comparability cells and depth trends; the costly cells are fixed.

    The drawn alpha gets a shallow slice over every dimension factor and a
    supercritical trend that repeats cells of that slice.  The deep cells
    are the same for every seed, because their optimizer iteration counts
    (hence their cost) depend on alpha; at alpha = 0.5 they hold the
    200-iteration capped cell (dimension 0.75, depth 5), the N = 256 cells
    of the direct triple sum, and a critical trend that repeats them.
    """
    alpha = alpha_for_seed(seed)
    shallow = (2,) if smoke else (2, 3)
    deep = (2, 3) if smoke else (4, 5)
    grid = experiments.comparability_sweep
    calls = [
        (f"sweep a={alpha}", lambda: grid(alphas=(alpha,), dim_factors=SWEEP_FACTORS,
                                          depths=shallow),
         len(SWEEP_FACTORS) * len(shallow)),
        ("sweep a=0.5 critical", lambda: grid(alphas=(0.5,), dim_factors=(1.0,), depths=deep),
         len(deep)),
        ("sweep a=0.5 capped", lambda: grid(alphas=(0.5,), dim_factors=(1.5,), depths=deep[-1:]),
         1),
        ("trend a=0.5 f=1.0", lambda: experiments.depth_trend(0.5, 1.0, depths=shallow + deep),
         len(shallow + deep)),
        (f"trend a={alpha} f=1.5", lambda: experiments.depth_trend(alpha, 1.5, depths=shallow),
         len(shallow)),
    ]
    items = [Item(name, call, outputs) for name, call, outputs in calls]
    archive = load_sweep_archive()

    def check(results):
        failures = []
        for item in items:
            raised = _result_failures(results, item.name, item.outputs)
            if raised:
                failures += raised
                continue
            value = results[item.name]
            count = len(value) if isinstance(value, list) else len(value.depths)
            if count != item.outputs:
                failures.append(f"{item.name}: {count} cells, expected {item.outputs}")
            if isinstance(value, list):
                for point in value:
                    failures += _check_point(point, archive)
                continue
            for depth, wolff, proxy in zip(value.depths, value.wolff_energies, value.proxies):
                row = archive.get((value.alpha, value.dimension, depth))
                if row is None:
                    failures.append(f"{item.name} depth {depth}: not in the archive")
                elif not (
                    relative_error(wolff, float(row["wolff_energy"])) <= SWEEP_RTOL
                    and relative_error(proxy, float(row["energy_proxy"])) <= SWEEP_RTOL
                ):
                    failures.append(f"{item.name} depth {depth}: {wolff!r}, {proxy!r}")
        return failures

    return Pass(items, check)


# ---------------------------------------------------------------------------
# energy-deep and energy-wide-eps: the functionals without the optimizer
# ---------------------------------------------------------------------------


def _support(n: int, dimension: float, depth: int):
    spec = measures.cantor_spec_for_dimension(n, dimension, depth)
    return measures.cantor_measure(spec), spec.cell_side


def _functionals(mu, params, window, names):
    exps = energies.WolffExponents.matched(params)
    table = {
        "symmetrization_energy": lambda: energies.symmetrization_energy(mu, params, window),
        "wolff_energy": lambda: energies.wolff_energy(mu, exps, window),
        "ball_mass_double_sum": lambda: energies.ball_mass_double_sum(mu, params, window),
        "riesz_l2_energy": lambda: energies.riesz_l2_energy(mu, params, window.eps),
        "maximal_potential_energy": lambda: energies.maximal_potential_energy(mu, params, window),
    }
    return [(name, table[name]) for name in names]


def _check_against(results, items, refs) -> list:
    failures = []
    for item in items:
        raised = _result_failures(results, item.name, item.outputs)
        if raised:
            failures += raised
            continue
        value = float(results[item.name])
        ref = refs.get(item.name)
        if ref is None:
            failures.append(f"{item.name}: no recorded reference")
        elif not (math.isfinite(value) and relative_error(value, ref) <= ENERGY_RTOL):
            failures.append(f"{item.name}: {value!r} vs reference {ref!r}")
    return failures


DEEP_FUNCTIONALS = (
    "symmetrization_energy", "wolff_energy", "ball_mass_double_sum",
    "riesz_l2_energy", "maximal_potential_energy",
)


def energy_deep_pass(seed: int, smoke: bool) -> Pass:
    """Every energy functional on the deepest n = 2 support that fits, plus
    an n = 3 support; no optimizer, no close pairs."""
    alpha = alpha_for_seed(seed)
    # (label, n, dimension, depth): contraction ratio 1/4 in both.
    supports = (("n2", 2, 1.0, 3 if smoke else 6), ("n3", 3, 1.5, 2 if smoke else 3))
    items = []
    for label, n, dimension, depth in supports:
        mu, delta = _support(n, dimension, depth)
        params = KernelParams(alpha, n)
        window = energies.TruncationWindow(delta)
        for name, call in _functionals(mu, params, window, DEEP_FUNCTIONALS):
            items.append(Item(f"{label}-m{depth} {name}", call, 1))
    refs = energy_references("energy-deep", smoke, alpha)
    return Pass(items, lambda results: _check_against(results, items, refs))


WIDE_FUNCTIONALS = ("symmetrization_energy", "maximal_potential_energy", "wolff_energy")


def energy_wide_eps_pass(seed: int, smoke: bool) -> Pass:
    """Three functionals on one support across growing cutoffs: the close-pair
    count grows with eps; the Wolff energy does not depend on it."""
    alpha = alpha_for_seed(seed)
    mu, delta = _support(2, 0.75, 3 if smoke else 5)
    params = KernelParams(alpha, 2)
    items = []
    for factor in WIDE_EPS_FACTORS:
        window = energies.TruncationWindow(delta * factor)
        for name, call in _functionals(mu, params, window, WIDE_FUNCTIONALS):
            items.append(Item(f"eps={factor:g}delta {name}", call, 1))
    refs = energy_references("energy-wide-eps", smoke, alpha)

    def check(results):
        failures = _check_against(results, items, refs)
        for name in WIDE_FUNCTIONALS:
            series = [results[f"eps={f:g}delta {name}"] for f in WIDE_EPS_FACTORS]
            if any(isinstance(v, BaseException) for v in series):
                failures.append(f"{name}: monotonicity not checked, a call raised")
            elif any(b > a + MONOTONE_RTOL * abs(a) for a, b in zip(series, series[1:])):
                failures.append(f"{name}: increases with eps: {series}")
        return failures

    return Pass(items, check, extra_checks=len(WIDE_FUNCTIONALS))


def energy_references(workload: str, smoke: bool, alpha: float) -> dict:
    """Recorded values of one workload size and alpha, keyed by item name."""
    path = REFERENCE_DIR / "energies.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    return refs.get(workload + ("-smoke" if smoke else ""), {}).get(repr(alpha), {})


PASSES = {
    "sweep": sweep_pass,
    "energy-deep": energy_deep_pass,
    "energy-wide-eps": energy_wide_eps_pass,
}
