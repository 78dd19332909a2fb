"""Print a digest of rieszcap's numbers, for a bit-for-bit comparison of two
checkouts.

Usage, with ROOT a checkout (default: the one holding this script):

    python3 tools/bitwise_digest.py [ROOT] > digest.txt

The script imports ``rieszcap`` from ROOT/src and the benchmark's workloads
from ROOT/bench/workloads.py, which it only reads.  It prints:

* the ``float.hex`` of every ``energy-deep`` and ``energy-wide-eps`` bench
  item at seeds 0-2;
* the 36 cells of the standard comparability sweep, each field with %.17g;
* capacity estimates (value, witness-weight bytes, diagnostics) on
  Cantor and random supports, and the Wolff optimizer on the random
  supports;
* on the same supports at eps and 4 eps, the ``float.hex`` of every
  ``energy_report`` field, and of the maximal function and the matched
  Wolff potential at three fixed points off the atoms.

Two checkouts compute the same bits when their digests are equal:

    cmp parent.txt change.txt

A run takes about ten seconds on a 2-core machine.  The functions import
``rieszcap`` only after ``_load`` has put ROOT/src first on the path.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path


def _load(root: Path):
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads

    import rieszcap

    if Path(rieszcap.__file__).resolve().parent != (root / "src" / "rieszcap").resolve():
        raise SystemExit(f"imported rieszcap from {rieszcap.__file__}, not {root / 'src'}")
    return workloads


def _bench_items(workloads) -> None:
    for name in ("energy-deep", "energy-wide-eps"):
        for seed in range(3):
            for item in workloads.PASSES[name](seed, False).items:
                print(f"{name} seed={seed} {item.name} {float(item.call()).hex()}")


def _sweep() -> None:
    from rieszcap.experiments import comparability_sweep

    for point in comparability_sweep():
        print("sweep", " ".join(
            v if isinstance(v, str) else "%.17g" % v for v in point.to_csv_row()))


def _supports():
    """(label, support) pairs: Cantor n = 2 depths 3-4 at dimension 1.5 alpha,
    and eight random clouds in n = 2, each with the alpha it is read at."""
    import numpy as np

    from rieszcap.measures import DiscreteMeasure, cantor_measure, cantor_spec_for_dimension

    for alpha in (0.25, 0.5, 0.75):
        for depth in (3, 4):
            spec = cantor_spec_for_dimension(2, 1.5 * alpha, depth)
            yield f"cantor a={alpha} m={depth}", alpha, cantor_measure(spec), spec.cell_side
    rng = np.random.default_rng(23)
    for k in range(8):
        size = int(rng.integers(20, 60))
        atoms = rng.uniform(0.0, 1.0, (size, 2))
        mu = DiscreteMeasure(atoms, rng.uniform(0.5, 1.5, size))
        alpha = (0.25, 0.5, 0.75)[k % 3]
        yield f"random k={k} N={size} a={alpha}", alpha, mu, 2.0 * mu.delta


def _estimate_line(label: str, est) -> str:
    weights = hashlib.sha256(est.witness.weights.tobytes()).hexdigest()[:16]
    diag = " ".join(f"{k}={float(v).hex()}" for k, v in sorted(est.diagnostics.items()))
    return f"{label} value={float(est.value).hex()} weights={weights} {diag}"


def _estimates() -> None:
    from rieszcap.capacity import OptimizerConfig, estimate_positive_capacity, minimize_wolff_energy
    from rieszcap.energies import TruncationWindow, WolffExponents
    from rieszcap.kernels import KernelParams

    cfg = OptimizerConfig(max_iters=200, tolerance=1e-8)
    for label, alpha, mu, eps in _supports():
        params = KernelParams(alpha, 2)
        window = TruncationWindow(eps)
        est = estimate_positive_capacity(mu, params, window, cfg)
        print(_estimate_line(f"estimate {label}", est))
        if label.startswith("random"):
            est = minimize_wolff_energy(mu, WolffExponents.matched(params), window, cfg)
            print(_estimate_line(f"wolff {label}", est))


def _reports() -> None:
    import dataclasses

    from rieszcap.energies import TruncationWindow, WolffExponents, energy_report, wolff_potential
    from rieszcap.kernels import KernelParams
    from rieszcap.measures import maximal_function

    points = ((0.5, 0.5), (0.123, 0.877), (1.3, -0.2))
    for label, alpha, mu, eps in _supports():
        params = KernelParams(alpha, 2)
        exps = WolffExponents.matched(params)
        for r in (eps, 4.0 * eps):
            window = TruncationWindow(r)
            report = energy_report(mu, params, window)
            fields = " ".join(f"{f.name}={float(getattr(report, f.name)).hex()}"
                              for f in dataclasses.fields(report)
                              if f.name not in ("params", "window"))
            print(f"report {label} eps={r.hex()} {fields}")
            for x in points:
                m = maximal_function(mu, x, alpha, r_min=r)
                v = wolff_potential(mu, x, exps, window)
                print(f"point {label} eps={r.hex()} x={x} maximal={m.hex()} wolff={v.hex()}")


def main(argv: list) -> None:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    workloads = _load(root.resolve())
    _bench_items(workloads)
    _sweep()
    _estimates()
    _reports()


if __name__ == "__main__":
    main(sys.argv)
