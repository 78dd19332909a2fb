"""Batch experiment driver.

Commands
--------
gen       generate a corner-Cantor measure file
energy    energy report rows for a measure over (alpha, eps) grids
capacity  capacity-proxy sweep over a Cantor family
compare   both capacity proxies and their ratio for one measure
bilip     capacity proxy before/after a registered planar bilipschitz map
verify    run the property-test battery

The CLI is a thin shell over the library: every number it emits is
available through plain function calls.  Every setting is a flag whose
default lives on the parser; the optimizer settings are fixed per command
(``capacity``: the library sweep's ``SWEEP_OPTIMIZER``, 200 iterations at
tolerance 1e-8;
``compare`` and ``bilip``: the ``OptimizerConfig`` defaults).  All
randomized steps take an explicit seed and identical invocations produce
byte-identical files.

Exit codes: 0 ok; 1 verification failure; 2 size cap exceeded; 3 malformed
input; 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_SIZE_CAP = 2
EXIT_BAD_INPUT = 3
EXIT_IO = 4


def _fmt(value) -> str:
    """CSV/JSON cell formatting: round-trip-safe 17 significant digits."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_text(path, text) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _floats(text) -> list:
    return [float(v) for v in text.split(",") if v != ""]


def _ints(text) -> list:
    return [int(v) for v in text.split(",") if v != ""]


def _measure(args):
    """The ``--measure`` file of a command that needs one."""
    from .measures import load_measure

    if not args.measure:
        raise ValueError("a measure file is required (--measure)")
    return load_measure(args.measure)


def _eps(args, mu) -> float:
    """The ``--eps`` truncation radius, the measure's delta by default."""
    return mu.delta if args.eps is None else float(args.eps)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    from .measures import CantorSpec, cantor_measure, cantor_spec_for_dimension, measure_to_json

    if (args.ratio is None) == (args.dimension is None):
        raise ValueError("exactly one of --ratio / --dimension is required")
    offset = _floats(args.offset) if args.offset else None
    if args.dimension is not None:
        spec = cantor_spec_for_dimension(args.n, args.dimension, args.depth, base=args.base,
                                         offset=offset, max_atoms=args.max_atoms)
    else:
        spec = CantorSpec(n=args.n, ratio=args.ratio, depth=args.depth, base=args.base,
                          offset=offset, max_atoms=args.max_atoms)
    mu = cantor_measure(spec)
    _write_text(args.out, measure_to_json(mu, cantor=spec))
    print(f"atoms: {mu.size}", file=sys.stderr)
    print(f"delta: {_fmt(mu.delta)}", file=sys.stderr)
    print(f"similarity_dimension: {_fmt(spec.similarity_dimension)}", file=sys.stderr)
    return EXIT_OK


def cmd_energy(args) -> int:
    from .energies import EnergyReport, TruncationWindow, energy_report
    from .kernels import KernelParams

    mu = _measure(args)
    reports = []
    for alpha in _floats(args.alpha):
        params = KernelParams(alpha, mu.n)
        for eps in _floats(args.eps) if args.eps else [mu.delta]:
            reports.append(energy_report(mu, params, TruncationWindow(eps, args.r_out)))
    if args.format == "json":
        _write_text(args.out, _json_dumps([r.to_json_dict() for r in reports]))
    else:
        _write_csv(args.out, EnergyReport.CSV_COLUMNS,
                   [r.to_csv_row() for r in reports])
    return EXIT_OK


def cmd_capacity(args) -> int:
    import math

    from .capacity import METHOD_ENERGY, METHOD_WOLFF, comparability_report
    from .energies import TruncationWindow
    from .experiments import CAPACITY_CSV_COLUMNS, SWEEP_OPTIMIZER, comparability_sweep

    rows = []
    if args.measure:
        mu = _measure(args)
        eps = _eps(args, mu)
        for alpha in _floats(args.alpha):
            rep = comparability_report(mu, alpha, TruncationWindow(eps), SWEEP_OPTIMIZER)
            diag = rep.wolff_proxy.diagnostics
            status = "ok" if diag["converged"] >= 1.0 else "max-iters"
            for est in (rep.energy_proxy, rep.wolff_proxy):
                rows.append((args.measure, mu.n, alpha, math.nan, math.nan, eps,
                             est.method, est.value, est.diagnostics["energy"],
                             diag["iterations"], status))
    else:
        for p in comparability_sweep(_floats(args.alpha), _floats(args.dim_factors),
                                     _ints(args.depths), n=args.n):
            status = "ok" if p.converged >= 1.0 else "max-iters"
            rows.append((p.set_id, p.n, p.alpha, p.dimension, p.depth, p.eps,
                         METHOD_ENERGY, p.energy_proxy,
                         1.0 / p.energy_proxy, p.optimizer_iters, status))
            rows.append((p.set_id, p.n, p.alpha, p.dimension, p.depth, p.eps,
                         METHOD_WOLFF, p.wolff_proxy,
                         p.wolff_proxy**-2.0, p.optimizer_iters, status))
    _write_csv(args.out, CAPACITY_CSV_COLUMNS + ("status",), rows)
    return EXIT_OK


def cmd_compare(args) -> int:
    from .capacity import comparability_report
    from .energies import TruncationWindow

    mu = _measure(args)
    alpha, eps = float(args.alpha), _eps(args, mu)
    report = comparability_report(mu, alpha, TruncationWindow(eps))
    doc = {
        "alpha": alpha,
        "eps": eps,
        "energy_proxy": report.energy_proxy.to_json_dict(),
        "wolff_proxy": report.wolff_proxy.to_json_dict(),
        "ratio": report.ratio,
    }
    _write_text(args.out, _json_dumps(doc))
    return EXIT_OK


def cmd_bilip(args) -> int:
    from .capacity import bilipschitz_experiment
    from .defaults import THRESHOLDS
    from .energies import TruncationWindow

    mu = _measure(args)
    result = bilipschitz_experiment(mu, args.map, float(args.alpha),
                                    TruncationWindow(_eps(args, mu)))
    bound = THRESHOLDS["bilipschitz_bounds"].get(args.map)
    doc = {
        "map": result.map_name,
        "distortion": result.distortion,
        "scale_hint": result.scale_hint,
        "before": result.before,
        "after": result.after,
        "ratio": result.ratio,
        "bound": bound,
        "within_bound": (bound is None) or (1.0 / bound <= result.ratio <= bound),
    }
    _write_text(args.out, _json_dumps(doc))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verification import run_battery

    summary = run_battery(seed=args.seed, full=args.full, fault=args.fault)
    for suite in summary["suites"]:
        status = "PASS" if suite["passed"] else "FAIL"
        line = f"[{status}] {suite['name']}: {suite['checks']} checks"
        if suite["failures"]:
            line += f"; first failure: {suite['failures'][0]}"
        print(line)
    if args.json is not None:
        _write_text(args.json, _json_dumps(summary))
    print("verification " + ("PASSED" if summary["passed"] else "FAILED"))
    return EXIT_OK if summary["passed"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszcap",
        description="Riesz-kernel symmetrization energies, Wolff potentials "
                    "and capacity proxies for discrete measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a corner-Cantor measure file")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--ratio", type=float)
    p.add_argument("--dimension", type=float)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--base", type=float, default=1.0)
    p.add_argument("--offset", help="comma-separated coordinates")
    p.add_argument("--max-atoms", type=int, dest="max_atoms", default=65536)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("energy", help="energy report rows for a measure")
    p.add_argument("--measure")
    p.add_argument("--alpha", default="0.5", help="comma-separated list")
    p.add_argument("--eps", help="comma-separated list (default: the measure's delta)")
    p.add_argument("--r-out", type=float, dest="r_out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser(
        "capacity",
        help="capacity proxies: a Cantor-family sweep, or one measure file",
    )
    p.add_argument("--measure", help="measure file instead of a Cantor sweep")
    p.add_argument("--eps", help="truncation radius for --measure runs (default: delta)")
    p.add_argument("--alpha", default="0.25,0.5,0.75", help="comma-separated list")
    p.add_argument("--dim-factors", dest="dim_factors", default="1.0,1.2,1.5",
                   help="comma-separated list")
    p.add_argument("--depths", default="2,3,4,5", help="comma-separated list")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_capacity)

    p = sub.add_parser("compare", help="both capacity proxies for one measure")
    p.add_argument("--measure")
    p.add_argument("--alpha", default="0.5")
    p.add_argument("--eps", help="truncation radius (default: delta)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("bilip", help="capacity proxy before/after a planar map")
    p.add_argument("--measure")
    p.add_argument("--map", default="shear_sine")
    p.add_argument("--alpha", default="0.5")
    p.add_argument("--eps", help="truncation radius (default: delta)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bilip)

    p = sub.add_parser("verify", help="run the property-test battery")
    p.add_argument("--full", action="store_true",
                   help="include the sweep-based suites")
    p.add_argument("--json", help="write a machine-readable summary (path or -)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fault", default=None,
                   help="test hook: inject a named fault into the battery")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .errors import (
        MeasureFormatError,
        RieszcapError,
        SizeCapError,
    )

    try:
        return args.fn(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except (MeasureFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RieszcapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
