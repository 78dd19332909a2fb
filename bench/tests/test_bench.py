"""Smoke tests of the benchmark harness, at tiny sizes (depths <= 3).

Run from the root of a checkout:  python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sweep", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_archive_is_the_repository_archive():
    archive = ROOT / "results" / "comparability_sweep.csv"
    if not archive.exists():
        pytest.skip("checkout without results/")
    copy = workloads.REFERENCE_DIR / "comparability_sweep.csv"
    assert copy.read_bytes() == archive.read_bytes()


@pytest.mark.parametrize("workload", sorted(workloads.PASSES))
def test_checks_catch_a_wrong_value(workload):
    workload_pass = workloads.PASSES[workload](0, True)
    results = {item.name: item.call() for item in workload_pass.items}
    assert workload_pass.check(results) == []
    first = workload_pass.items[0].name
    results[first] = RuntimeError("injected")
    failures = workload_pass.check(results)
    assert failures and len(failures) <= workload_pass.attempted


def test_wide_eps_check_catches_an_increase():
    workload_pass = workloads.PASSES["energy-wide-eps"](0, True)
    results = {item.name: item.call() for item in workload_pass.items}
    last = f"eps={workloads.WIDE_EPS_FACTORS[-1]:g}delta wolff_energy"
    results[last] *= 10.0
    assert any("increases with eps" in msg for msg in workload_pass.check(results))


def test_steal_ratio_is_the_stolen_share_of_the_interval():
    before = [100, 0, 50, 800, 0, 0, 0, 50]
    after = [160, 0, 60, 900, 0, 0, 0, 70]
    assert worker.steal_ratio(before, after) == pytest.approx(20 / 190)
    assert worker.steal_ratio(before, before) == 0.0
    assert worker.steal_ratio(None, after) is None


def test_allocation_past_the_ceiling_is_an_item_result():
    # The widest-cutoff triple sum needs about 2 GB; under a 1.2 GB address
    # space cap the allocation fails and the item records the MemoryError.
    script = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1200 << 20, 1200 << 20))
import workloads, worker
workload_pass = workloads.PASSES["energy-wide-eps"](0, False)
workload_pass.items[:] = [item for item in workload_pass.items
                          if item.name == "eps=256delta symmetrization_energy"]
print(type(worker.run_items(workload_pass).popitem()[1]).__name__)
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], cwd=BENCH, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "MemoryError"


def test_tracer_sees_imported_names_and_restores_them():
    import rieszcap.capacity as capacity
    import rieszcap.energies as energies
    import rieszcap.experiments as experiments
    from rieszcap.measures import DiscreteMeasure

    originals = (capacity.maximal_potential_energy, experiments.comparability_report,
                 DiscreteMeasure.with_weights)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.item"):
            start = tracer.spans[-1][1]
            experiments.sweep_point(0.5, 0.75, 2)
    finally:
        tracer.uninstall()
    end = tracer.spans[0][2]
    assert (capacity.maximal_potential_energy, experiments.comparability_report,
            DiscreteMeasure.with_weights) == originals
    assert energies.maximal_potential_energy is capacity.maximal_potential_energy
    names = {span[0] for span in tracer.spans}
    assert {"energies.maximal_potential_energy", "capacity.comparability_report",
            "capacity.project_to_simplex",
            "measures.DiscreteMeasure.with_weights"} <= names
    metrics = tracer.metrics(start, end)
    assert metrics["capacity.minimize_wolff_energy_calls"] == 2
    assert metrics["experiments.sweep_point_calls"] == 1
    assert metrics["energies.row_sorts"] > 0
    layers = sum(metrics[f"{layer}.self_s"] for layer in
                 ("measures", "energies", "capacity", "experiments"))
    assert layers == pytest.approx(end - start, rel=0.05)
