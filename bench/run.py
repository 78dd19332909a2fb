"""Benchmark of rieszcap: end-to-end metrics per workload, or a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run measures the workload in fresh worker processes,
one per pass, until ``--seconds`` of passes are spent, and reports the
medians of the end-to-end metrics.  Extra workers that only set up give
``setup_s`` several samples.  With ``--trace 1`` it runs one untraced pass,
one traced pass and, on ``energy-deep``, one pass with a single BLAS
thread, and reports the per-layer metrics.  Metric names and units come
from BENCHMARK.json.  The last line of standard output is one JSON object;
the exit code is 0 only when every output check passed.  See NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep", "energy-deep", "energy-wide-eps")

# BLAS threads of a worker: at most two, fewer on a smaller machine.
THREADS = min(2, len(os.sched_getaffinity(0)))
# Set-up samples per run: workers that only set up, plus one per pass.
SETUP_ONLY_WORKERS = 4
# A run ends within this many seconds; the contract allows 180.
RUN_DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(config: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("run deadline reached before a worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(config)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {config} passed the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"worker {config} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    result = json.loads(lines[-1])
    if Path(result["rieszcap"]).resolve() != (ROOT / "src" / "rieszcap").resolve():
        raise BenchmarkError(f"worker imported rieszcap from {result['rieszcap']}")
    return result


def timed_run(workload: str, seed: int, seconds: float, smoke: bool, deadline: float):
    """Passes in fresh workers until their processes have spent ``seconds``."""
    base = {"workload": workload, "seed": seed, "smoke": smoke, "threads": THREADS}
    setups = [
        run_worker(dict(base, mode="setup"), deadline)["setup_s"]
        for _ in range(SETUP_ONLY_WORKERS)
    ]
    passes = []
    spent = last = 0.0
    while not passes or (spent + last <= seconds and time.monotonic() + last < deadline):
        start = time.monotonic()
        passes.append(run_worker(dict(base, mode="pass"), deadline))
        last = time.monotonic() - start
        spent += last
    setups += [p["setup_s"] for p in passes]
    metrics = {
        key: statistics.median(p[key] for p in passes)
        for key in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setups)
    return metrics, passes


def traced_run(workload: str, seed: int, smoke: bool, deadline: float):
    base = {"workload": workload, "seed": seed, "smoke": smoke, "threads": THREADS}
    spans = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.json"
    spans.parent.mkdir(exist_ok=True)
    untraced = run_worker(dict(base, mode="pass"), deadline)
    traced = run_worker(dict(base, mode="traced", spans=str(spans)), deadline)
    workers = [untraced, traced]
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    metrics["trace.layer_sum_ratio"] = sum(
        metrics[f"{layer}.self_s"] for layer in ("measures", "energies", "capacity", "experiments")
    ) / untraced["wall_s"]
    # The single-threaded baseline applies to energy-deep only (0 elsewhere).
    metrics["trace.wall_s_1thread"] = 0.0
    if workload == "energy-deep":
        single = run_worker(dict(base, mode="pass", threads=1), deadline)
        metrics["trace.wall_s_1thread"] = single["wall_s"]
        workers.append(single)
    return metrics, workers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (depths <= 3) for the harness's own test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rieszcap" / "__init__.py").is_file():
        print(f"error: no rieszcap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    report = {}
    attempted = failed = 0
    try:
        for workload in names:
            deadline = time.monotonic() + RUN_DEADLINE_S
            if args.trace:
                metrics, workers = traced_run(workload, args.seed, args.smoke, deadline)
            else:
                metrics, workers = timed_run(
                    workload, args.seed, args.seconds, args.smoke, deadline)
            failures = [msg for w in workers for msg in w["failures"]]
            tried = sum(w["attempted"] for w in workers)
            env = json.dumps(workers[0]["environment"])
            print(f"[{workload}] seed={args.seed} environment: {env}")
            steal = [w["environment"]["host_steal_ratio"] for w in workers]
            print(f"[{workload}] host_steal_ratio per pass = "
                  + " ".join("n/a" if x is None else f"{x:.4f}" for x in steal))
            for name in units:
                print(f"[{workload}] {name} = {metrics[name]:.6g} {units[name]}")
            print(f"[{workload}] failed_ratio = {len(failures) / tried:.6g} "
                  f"({len(failures)}/{tried})")
            for msg in failures:
                print(f"[{workload}] FAILED {msg}")
            prefix = "" if len(names) == 1 else workload + "."
            for name in units:
                report[prefix + name] = {"value": metrics[name], "unit": units[name]}
            attempted += tried
            failed += len(failures)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
