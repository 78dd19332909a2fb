"""Outside-in tracer for the benchmark's traced run.

The tracer changes no library code.  It wraps every public function of the
four layers (``measures``, ``energies``, ``capacity``, ``experiments``) and
the two ``DiscreteMeasure`` methods the metrics name, and rebinds each
wrapper under every name a ``rieszcap`` module holds for the function: a
wrapper on the defining module alone would miss calls made through names
that other modules imported.  ``numpy.argsort`` is wrapped with a counter
for N x N row sorts.  Everything is restored by ``uninstall``.

Each span records name, start, end and parent; spans stay in memory until
the run writes them out.  A span's self time is its duration minus that of
its children.  Work the tracer does for a count (the close pairs) runs in a
``trace.bookkeeping`` span, so no layer is charged for it.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
import weakref

import numpy as np

PACKAGE = "rieszcap"
LAYERS = ("measures", "energies", "capacity", "experiments")

# Methods wrapped beside the module-level functions.
METHODS = {"measures": {"DiscreteMeasure": ("with_weights", "distance_matrix")}}

# Time metrics: the span whose self time each one reports.  Self time of a
# public helper without a metric of its own (wolff_potentials_at_atoms
# under wolff_energy, say) counts towards its nearest caller in the same
# layer that has one.
TIMED = {
    "measures.with_weights_s": "measures.DiscreteMeasure.with_weights",
    "measures.distance_matrix_s": "measures.DiscreteMeasure.distance_matrix",
    "measures.cantor_measure_s": "measures.cantor_measure",
    "measures.maximal_at_atoms_s": "measures.maximal_at_atoms",
    "energies.wolff_energy_s": "energies.wolff_energy",
    "energies.ball_mass_double_sum_s": "energies.ball_mass_double_sum",
    "energies.riesz_l2_energy_s": "energies.riesz_l2_energy",
    "energies.symmetrization_potentials_sq_s": "energies.symmetrization_potentials_sq_at_atoms",
    "energies.maximal_potential_energy_s": "energies.maximal_potential_energy",
    "energies.symmetrization_energy_s": "energies.symmetrization_energy",
    "capacity.minimize_wolff_energy_s": "capacity.minimize_wolff_energy",
    "capacity.estimate_positive_capacity_s": "capacity.estimate_positive_capacity",
}

# Span counts.
CALLS = {
    "measures.with_weights_calls": "measures.DiscreteMeasure.with_weights",
    "capacity.minimize_wolff_energy_calls": "capacity.minimize_wolff_energy",
    "capacity.energy_evals": "capacity.project_to_simplex",
    "experiments.sweep_point_calls": "experiments.sweep_point",
}

# Functionals whose fused path enumerates close pairs.
CLOSE_PAIR_USERS = (
    "energies.symmetrization_energy",
    "energies.symmetrization_potentials_sq_at_atoms",
)


def count_close_pairs(atoms: np.ndarray, eps: float) -> int:
    """Unordered atom pairs at distance in (0, eps], from the input alone.

    Distances use the same explicit-difference form as the library's
    distance matrix, in row blocks of bounded size.
    """
    m = atoms.shape[0]
    block = max(1, (16 << 20) // max(1, m * atoms.shape[1] * 8))
    ordered = 0
    for i0 in range(0, m, block):
        diffs = atoms[i0 : i0 + block, None, :] - atoms[None, :, :]
        d = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
        ordered += int(np.count_nonzero((d > 0.0) & (d <= eps)))
    return ordered // 2


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = collections.Counter()
        self._open = []
        self._patched = []
        self._matrices = {}  # id -> weakref of distance matrices returned
        self._cells = set()
        self._hooks = {
            "measures.DiscreteMeasure.distance_matrix": self._on_distance_matrix,
            "capacity.minimize_wolff_energy": self._on_minimize,
            "experiments.sweep_point": self._on_sweep_point,
        }
        for name in CLOSE_PAIR_USERS:
            self._hooks[name] = self._on_close_pair_user

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook:
                with self.span("trace.bookkeeping"):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(bound.arguments, result)
            return result

        return wrapper

    # -- counters fed from calls ---------------------------------------------

    def _on_distance_matrix(self, args, matrix) -> None:
        # A matrix object not handed out before is a build; a repeat is a hit.
        ref = self._matrices.get(id(matrix))
        if ref is not None and ref() is matrix:
            return
        self._matrices[id(matrix)] = weakref.ref(matrix)
        self.counts["measures.distance_matrix_builds"] += 1
        self.counts["measures.distance_bytes"] += int(matrix.size) * 8

    def _on_close_pair_user(self, args, result) -> None:
        mu = args["mu"]
        pairs = count_close_pairs(mu.atoms, args["window"].eps)
        self.counts["energies.close_pairs"] += pairs
        self.counts["energies.close_pair_bytes"] += mu.size * pairs * mu.n * 8

    def _on_minimize(self, args, estimate) -> None:
        diag = estimate.diagnostics
        self.counts["capacity.optimizer_iterations"] += int(diag["iterations"])
        self.counts["capacity.optimizer_backtracks"] += int(diag["backtracks"])
        self.counts["capacity.converged"] += int(diag["converged"])

    def _on_sweep_point(self, args, point) -> None:
        self._cells.add((args["alpha"], args["dimension"], args["depth"], args["n"]))

    def _count_row_sorts(self, argsort):
        @functools.wraps(argsort)
        def wrapper(a, *args, **kwargs):
            axis = kwargs.get("axis", args[0] if args else -1)
            shape = np.shape(a)
            if len(shape) == 2 and shape[0] == shape[1] > 1 and axis in (1, -1):
                self.counts["energies.row_sorts"] += 1
            return argsort(a, *args, **kwargs)

        return wrapper

    # -- installing ----------------------------------------------------------

    def _setattr(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    self._setattr(cls, method,
                                  self._wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._setattr(module, attr, entry[1])
        self._setattr(np, "argsort", self._count_row_sorts(np.argsort))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> list:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, pass_start: float, pass_end: float) -> dict:
        """Per-layer metrics.  ``<layer>.self_s`` covers the pass only; the
        other metrics cover set-up and pass, so that set-up work shows."""
        own = self.self_times()
        named = set(TIMED.values())
        bucket = []
        for name, _, _, parent in self.spans:
            layer = name.split(".")[0]
            while parent >= 0 and self.spans[parent][0].split(".")[0] != layer:
                parent = self.spans[parent][3]
            bucket.append(name if name in named else (bucket[parent] if parent >= 0 else None))
        out = {metric: 0.0 for metric in TIMED}
        by_span = {span: metric for metric, span in TIMED.items()}
        for target, seconds in zip(bucket, own):
            if target is not None:
                out[by_span[target]] += seconds
        calls = collections.Counter(span[0] for span in self.spans)
        for metric, span in CALLS.items():
            out[metric] = calls[span]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                seconds for (name, start, _, _), seconds in zip(self.spans, own)
                if name.split(".")[0] == layer and pass_start <= start <= pass_end
            )
        for key in ("measures.distance_matrix_builds", "measures.distance_bytes",
                    "energies.row_sorts", "energies.close_pairs",
                    "energies.close_pair_bytes", "capacity.optimizer_iterations",
                    "capacity.optimizer_backtracks"):
            out[key] = self.counts[key]
        minimize = [end - start for name, start, end, _ in self.spans
                    if name == "capacity.minimize_wolff_energy"]
        iterations = self.counts["capacity.optimizer_iterations"]
        # Zero where the layer is never called on the workload.
        out["capacity.s_per_iteration"] = sum(minimize) / iterations if iterations else 0.0
        out["capacity.converged_ratio"] = (
            self.counts["capacity.converged"] / len(minimize) if minimize else 0.0
        )
        sweep_calls = calls["experiments.sweep_point"]
        out["experiments.reuse_ratio"] = len(self._cells) / sweep_calls if sweep_calls else 0.0
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
