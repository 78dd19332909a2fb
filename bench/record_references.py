"""Record the reference values of the energy workloads.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 bench/record_references.py

Evaluates every item of ``energy-deep`` and ``energy-wide-eps``, at full
and smoke size, for each alpha the seed can draw, and writes them to
reference/energies.json.  Run it only at a commit whose values are trusted:
the benchmark's output checks compare against this file.
"""

import json
import os

for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[variable] = "2"

import workloads  # noqa: E402  (after the BLAS thread pinning)


def record() -> dict:
    refs = {}
    for workload in ("energy-deep", "energy-wide-eps"):
        for smoke in (False, True):
            key = workload + ("-smoke" if smoke else "")
            for seed in range(len(workloads.ALPHAS)):
                alpha = workloads.alpha_for_seed(seed)
                workload_pass = workloads.PASSES[workload](seed, smoke)
                values = {item.name: float(item.call()) for item in workload_pass.items}
                refs.setdefault(key, {})[repr(alpha)] = values
                print(key, alpha, "recorded", len(values), "values", flush=True)
    return refs


if __name__ == "__main__":
    path = workloads.REFERENCE_DIR / "energies.json"
    path.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print("wrote", path)
