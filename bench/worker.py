"""One benchmark worker: a fresh process per set-up or pass.

Usage: python3 worker.py '<json config>'; the config has the keys
``workload``, ``seed``, ``smoke``, ``threads``, ``mode`` (``setup``,
``pass`` or ``traced``) and, for ``traced``, ``spans`` (output path).

The worker pins the BLAS thread count before numpy is imported, caps its
own address space so that an allocation past the machine's memory raises
MemoryError (a counted failure) instead of getting the process killed,
builds the workload's inputs, runs one pass and checks the outputs.  It
prints one JSON object as the last line of its standard output.
"""

import contextlib
import json
import os
import resource
import sys
import time

START = time.perf_counter()

BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

# Share of physical memory the worker may map.
MEMORY_SHARE = 0.8


def memory_ceiling() -> int:
    return int(MEMORY_SHARE * os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))


def cpu_times():
    """The machine's aggregate CPU times from /proc/stat, or None without it."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(x) for x in fields[1:9]] if fields and fields[0] == "cpu" else None


def steal_ratio(before, after):
    """Share of the machine's CPU time the host stole between two samples:
    a pass run in a slow phase of a shared host shows up here."""
    if before is None or after is None:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


def environment(threads: int, steal) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "memory_ceiling_mb": memory_ceiling() >> 20,
        "host_steal_ratio": steal,
    }


def run_items(workload_pass, tracer=None) -> dict:
    """Call every item in order; an exception is the item's result."""
    results = {}
    for item in workload_pass.items:
        span = tracer.span(f"bench.item {item.name}") if tracer else contextlib.nullcontext()
        try:
            with span:
                results[item.name] = item.call()
        except Exception as exc:  # a failing item is counted, not fatal
            results[item.name] = exc
    return results


def main(config: dict) -> dict:
    threads = int(config["threads"])
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(threads)
    limit = memory_ceiling()
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    import rieszcap  # noqa: F401  (timed as part of set-up)
    import workloads

    make_pass = workloads.PASSES[config["workload"]]
    seed, smoke = int(config["seed"]), bool(config["smoke"])
    out = {"rieszcap": os.path.dirname(rieszcap.__file__)}

    tracer = None
    if config["mode"] == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload_pass = make_pass(seed, smoke)
    out["setup_s"] = time.perf_counter() - START
    if config["mode"] == "setup":
        return out

    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_before = cpu_times()
    begin = time.perf_counter()
    results = run_items(workload_pass, tracer)
    end = time.perf_counter()
    cpu_after = cpu_times()
    after = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.uninstall()

    failures = workload_pass.check(results)
    out.update(
        wall_s=end - begin,
        cpu_s=(after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime),
        peak_rss_mb=after.ru_maxrss / 1024.0,
        attempted=workload_pass.attempted,
        failed=len(failures),
        failures=failures,
        environment=environment(threads, steal_ratio(cpu_before, cpu_after)),
    )
    if tracer is not None:
        out["layers"] = tracer.metrics(begin, end)
        tracer.dump(config["spans"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
