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
available through plain function calls.  All randomized steps take an
explicit seed and identical invocations produce byte-identical files.

Exit codes: 0 ok; 1 verification failure; 2 size cap exceeded; 3 malformed
input; 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
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


def _load_config(path, allowed: set) -> dict:
    from .errors import MeasureFormatError

    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeasureFormatError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MeasureFormatError("config must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise MeasureFormatError(
            f"unknown config keys: {sorted(unknown)} (allowed: {sorted(allowed)})"
        )
    return doc


def _floats(text) -> list:
    return [float(v) for v in str(text).split(",") if v != ""]


def _ints(text) -> list:
    return [int(v) for v in str(text).split(",") if v != ""]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    from .measures import CantorSpec, cantor_measure, cantor_spec_for_dimension, measure_to_json

    cfg = _load_config(args.config, {"n", "ratio", "dimension", "depth", "base",
                                     "offset", "max_atoms"})
    n = args.n if args.n is not None else cfg.get("n", 2)
    depth = args.depth if args.depth is not None else cfg.get("depth", 3)
    base = args.base if args.base is not None else cfg.get("base", 1.0)
    offset = _floats(args.offset) if args.offset else cfg.get("offset")
    max_atoms = args.max_atoms if args.max_atoms is not None else cfg.get("max_atoms", 65536)
    ratio = args.ratio if args.ratio is not None else cfg.get("ratio")
    dimension = args.dimension if args.dimension is not None else cfg.get("dimension")
    if (ratio is None) == (dimension is None):
        raise ValueError("exactly one of --ratio / --dimension is required")
    if dimension is not None:
        spec = cantor_spec_for_dimension(n, dimension, depth, base=base,
                                         offset=offset, max_atoms=max_atoms)
    else:
        spec = CantorSpec(n=n, ratio=ratio, depth=depth, base=base,
                          offset=offset, max_atoms=max_atoms)
    mu = cantor_measure(spec)
    _write_text(args.out, measure_to_json(mu))
    print(f"atoms: {mu.size}", file=sys.stderr)
    print(f"delta: {_fmt(mu.delta)}", file=sys.stderr)
    print(f"similarity_dimension: {_fmt(spec.similarity_dimension)}", file=sys.stderr)
    return EXIT_OK


def cmd_energy(args) -> int:
    from .energies import TruncationWindow, energy_report
    from .kernels import KernelParams
    from .measures import load_measure

    cfg = _load_config(args.config, {"measure", "alpha", "eps", "r_out", "format"})
    measure_path = args.measure or cfg.get("measure")
    if not measure_path:
        raise ValueError("a measure file is required (--measure)")
    mu = load_measure(measure_path)
    alphas = _floats(args.alpha) if args.alpha else cfg.get("alpha", [0.5])
    eps_list = _floats(args.eps) if args.eps else cfg.get("eps", [mu.delta])
    r_out = args.r_out if args.r_out is not None else cfg.get("r_out")
    fmt = args.format or cfg.get("format", "csv")
    reports = []
    for alpha in alphas:
        params = KernelParams(float(alpha), mu.n)
        for eps in eps_list:
            window = TruncationWindow(float(eps), r_out)
            reports.append(energy_report(mu, params, window))
    if fmt == "json":
        _write_text(args.out, _json_dumps([r.to_json_dict() for r in reports]))
    else:
        from .energies import EnergyReport

        _write_csv(args.out, EnergyReport.CSV_COLUMNS,
                   [r.to_csv_row() for r in reports])
    return EXIT_OK


def cmd_capacity(args) -> int:
    import math

    from .capacity import (
        METHOD_ENERGY,
        METHOD_WOLFF,
        OptimizerConfig,
        comparability_report,
    )
    from .energies import TruncationWindow
    from .experiments import CAPACITY_CSV_COLUMNS, sweep_point

    cfg = _load_config(args.config, {"measure", "alpha", "dim_factors", "depths",
                                     "n", "eps", "max_iters", "tolerance"})
    alphas = _floats(args.alpha) if args.alpha else cfg.get("alpha", [0.25, 0.5, 0.75])
    opt = OptimizerConfig(
        max_iters=cfg.get("max_iters", 200), tolerance=cfg.get("tolerance", 1e-8),
    )
    measure_path = args.measure or cfg.get("measure")
    rows = []
    if measure_path:
        from .measures import load_measure

        mu = load_measure(measure_path)
        eps = _floats(args.eps)[0] if args.eps else cfg.get("eps", mu.delta)
        set_id = str(measure_path)
        for alpha in alphas:
            rep = comparability_report(mu, float(alpha), TruncationWindow(float(eps)), opt)
            for est, energy in (
                (rep.energy_proxy, rep.energy_proxy.diagnostics["energy"]),
                (rep.wolff_proxy, rep.wolff_proxy.diagnostics["energy"]),
            ):
                diag = rep.wolff_proxy.diagnostics
                status = "ok" if diag["converged"] >= 1.0 else "max-iters"
                rows.append((set_id, mu.n, alpha, math.nan, math.nan, eps,
                             est.method, est.value, energy, diag["iterations"],
                             status))
    else:
        dim_factors = _floats(args.dim_factors) if args.dim_factors else cfg.get(
            "dim_factors", [1.0, 1.2, 1.5]
        )
        depths = _ints(args.depths) if args.depths else cfg.get("depths", [2, 3, 4, 5])
        n = args.n if args.n is not None else cfg.get("n", 2)
        points = []
        for alpha in alphas:
            for factor in dim_factors:
                for depth in depths:
                    points.append(sweep_point(alpha, factor * alpha, depth, n=n, cfg=opt))
        for p in points:
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
    from .capacity import OptimizerConfig, comparability_report
    from .energies import TruncationWindow
    from .measures import load_measure

    cfg = _load_config(args.config, {"measure", "alpha", "eps", "max_iters", "tolerance"})
    measure_path = args.measure or cfg.get("measure")
    if not measure_path:
        raise ValueError("a measure file is required (--measure)")
    mu = load_measure(measure_path)
    alpha = _floats(args.alpha)[0] if args.alpha else cfg.get("alpha", 0.5)
    eps = _floats(args.eps)[0] if args.eps else cfg.get("eps", mu.delta)
    opt = OptimizerConfig(max_iters=cfg.get("max_iters", 400),
                          tolerance=cfg.get("tolerance", 1e-10))
    report = comparability_report(mu, float(alpha), TruncationWindow(float(eps)), opt)
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
    from .measures import load_measure

    cfg = _load_config(args.config, {"measure", "alpha", "eps", "map"})
    measure_path = args.measure or cfg.get("measure")
    if not measure_path:
        raise ValueError("a measure file is required (--measure)")
    mu = load_measure(measure_path)
    alpha = _floats(args.alpha)[0] if args.alpha else cfg.get("alpha", 0.5)
    eps = _floats(args.eps)[0] if args.eps else cfg.get("eps", mu.delta)
    map_id = args.map or cfg.get("map", "shear_sine")
    result = bilipschitz_experiment(mu, map_id, float(alpha),
                                    TruncationWindow(float(eps)))
    bound = THRESHOLDS["bilipschitz_bounds"].get(map_id)
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
    parser.add_argument("--threads", type=int, default=None,
                        help="cap BLAS/OpenMP worker threads")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a corner-Cantor measure file")
    p.add_argument("--config")
    p.add_argument("--n", type=int)
    p.add_argument("--ratio", type=float)
    p.add_argument("--dimension", type=float)
    p.add_argument("--depth", type=int)
    p.add_argument("--base", type=float)
    p.add_argument("--offset")
    p.add_argument("--max-atoms", type=int, dest="max_atoms")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("energy", help="energy report rows for a measure")
    p.add_argument("--config")
    p.add_argument("--measure")
    p.add_argument("--alpha", help="comma-separated list")
    p.add_argument("--eps", help="comma-separated list")
    p.add_argument("--r-out", type=float, dest="r_out")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--out")
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser(
        "capacity",
        help="capacity proxies: a Cantor-family sweep, or one measure file",
    )
    p.add_argument("--config")
    p.add_argument("--measure", help="measure file instead of a Cantor sweep")
    p.add_argument("--eps", help="truncation radius for --measure runs")
    p.add_argument("--alpha", help="comma-separated list")
    p.add_argument("--dim-factors", dest="dim_factors", help="comma-separated list")
    p.add_argument("--depths", help="comma-separated list")
    p.add_argument("--n", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_capacity)

    p = sub.add_parser("compare", help="both capacity proxies for one measure")
    p.add_argument("--config")
    p.add_argument("--measure")
    p.add_argument("--alpha")
    p.add_argument("--eps")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("bilip", help="capacity proxy before/after a planar map")
    p.add_argument("--config")
    p.add_argument("--measure")
    p.add_argument("--map")
    p.add_argument("--alpha")
    p.add_argument("--eps")
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


def _cap_threads(count: int) -> None:
    """Best-effort worker cap: runtime control when threadpoolctl is present,
    environment variables otherwise (reliable only before numpy loads)."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(count)
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(count)
    except ImportError:
        pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        _cap_threads(args.threads)
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
