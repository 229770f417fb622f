"""Tracing of dictad's public functions from outside the package.

The tracer wraps each listed function at every module binding it is
reached through (``dictad.sparse_coding.omp`` inside ``batch_code`` and
``dictad.online.omp`` inside ``toddler_step`` are both the same function),
including dict values such as ``experiments.RUNNERS``. It records one span
(name, start, end, parent) per call and a few counts, all in memory, and
restores every binding on ``uninstall``. No ``src/`` code is touched.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter_ns

import numpy as np

ALL_WORKLOADS = ("ingest", "filter", "stream")

# (module, function, workloads that must record at least one call)
FUNCTIONS = [
    ("sparse_coding", "omp", ("stream",)),
    ("sparse_coding", "batch_code", ("filter", "stream")),
    ("sparse_coding", "representation_errors", ("filter", "stream")),
    ("sparse_coding", "atom_popularity", ("filter", "stream")),
    ("dictionary_learning", "train", ("filter", "stream")),
    ("dictionary_learning", "atom_update_pass", ("filter", "stream")),
    ("dictionary_learning", "objective", ("filter", "stream")),
    ("dictionary_learning", "init_dictionary", ("filter", "stream")),
    ("supervised", "pretrain", ("stream",)),
    ("supervised", "classify", ("stream",)),
    ("online", "toddler_step", ("stream",)),
    ("online", "lambda_select", ("stream",)),
    ("online", "spectral_norm", ("stream",)),
    ("online", "rls_update", ("stream",)),
    ("online", "tikhonov_update", ("stream",)),
    ("online", "init_state", ("stream",)),
    ("anomaly", "addl_run", ("filter",)),
    ("data_io", "load_csv", ("ingest", "stream")),
    ("data_io", "normalize", ("ingest", "stream")),
    ("data_io", "synth_generate", ("ingest",)),
    ("data_io", "save_csv", ("ingest",)),
    ("evaluation", "confusion", ("ingest",)),
    ("experiments", "run_eval", ("ingest",)),
    ("experiments", "run_synth", ("ingest",)),
    ("experiments", "run_addl", ("filter",)),
    ("experiments", "run_toddler", ("stream",)),
    ("cli", "main", ALL_WORKLOADS),
]

# module -> workloads on which none of its listed functions may run
MUST_NOT_RUN = {"online": ("ingest", "filter"), "sparse_coding": ("ingest",)}

# (metric name, unit, better); "<f>.calls" is a call count, "<f>.s" the
# inclusive total, "<f>.self_s" the total self time and "<f>.self_us" the
# mean self time per call
PER_LAYER = [
    ("sparse_coding.omp.calls", "count", "lower"),
    ("sparse_coding.omp.self_us", "us", "lower"),
    ("sparse_coding.omp.mean_nnz", "atoms", "lower"),
    ("sparse_coding.omp.early_exit_ratio", "ratio", "higher"),
    ("sparse_coding.batch_code.calls", "count", "lower"),
    ("sparse_coding.batch_code.signals", "count", "lower"),
    ("sparse_coding.batch_code.us_per_signal", "us", "lower"),
    ("sparse_coding.batch_code.self_s", "s", "lower"),
    ("sparse_coding.representation_errors.self_s", "s", "lower"),
    ("sparse_coding.atom_popularity.self_s", "s", "lower"),
    ("dictionary_learning.train.calls", "count", "lower"),
    ("dictionary_learning.train.self_s", "s", "lower"),
    ("dictionary_learning.atom_update_pass.self_s", "s", "lower"),
    ("dictionary_learning.objective.self_s", "s", "lower"),
    ("dictionary_learning.init_dictionary.self_s", "s", "lower"),
    ("supervised.pretrain.s", "s", "lower"),
    ("supervised.pretrain.self_s", "s", "lower"),
    ("supervised.classify.calls", "count", "higher"),
    ("supervised.classify.self_us", "us", "lower"),
    ("online.toddler_step.self_us", "us", "lower"),
    ("online.lambda_select.self_us", "us", "lower"),
    ("online.spectral_norm.calls", "count", "lower"),
    ("online.spectral_norm.self_us", "us", "lower"),
    ("online.rls_update.self_us", "us", "lower"),
    ("online.tikhonov_update.self_us", "us", "lower"),
    ("online.init_state.s", "s", "lower"),
    ("online.steps_completed", "count", "higher"),
    ("anomaly.addl_run.self_s", "s", "lower"),
    ("anomaly.iterations", "count", "higher"),
    ("anomaly.final_atoms", "count", "higher"),
    ("data_io.load_csv.s", "s", "lower"),
    ("data_io.load_csv.rows_per_s", "1/s", "higher"),
    ("data_io.load_csv.mb_per_s", "MB/s", "higher"),
    ("data_io.normalize.s", "s", "lower"),
    ("data_io.synth_generate.s", "s", "lower"),
    ("data_io.save_csv.rows_per_s", "1/s", "higher"),
    ("evaluation.confusion.s", "s", "lower"),
    ("experiments.run_eval.self_s", "s", "lower"),
    ("experiments.run_synth.self_s", "s", "lower"),
    ("experiments.run_addl.self_s", "s", "lower"),
    ("experiments.run_toddler.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
]


def _dictad_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dictad" or name.startswith("dictad."))]


class Tracer:
    """Spans and counts for one traced operation."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn, _ in FUNCTIONS]
        self.spans = []  # (name index, start ns, end ns, parent span index or -1)
        self.counts = {}
        self._stack = []
        self._patched = []  # (container, key, original, is_dict)
        self.observer_errors = {}  # function name -> first error its observer raised

    # -- installation -------------------------------------------------

    def install(self):
        import dictad.cli  # noqa: F401  (loads every dictad module)

        originals = {}
        for i, (mod, fn, _) in enumerate(FUNCTIONS):
            orig = getattr(sys.modules[f"dictad.{mod}"], fn)
            originals[id(orig)] = self._wrap(orig, i)
        for module in _dictad_modules():
            for key, value in list(vars(module).items()):
                if id(value) in originals:
                    self._patched.append((module, key, value, False))
                    setattr(module, key, originals[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in originals:
                            self._patched.append((value, k, v, True))
                            value[k] = originals[id(v)]

    def uninstall(self):
        for container, key, orig, is_dict in reversed(self._patched):
            if is_dict:
                container[key] = orig
            else:
                setattr(container, key, orig)
        self._patched.clear()

    def _wrap(self, fn, name_idx):
        spans, stack = self.spans, self._stack
        observe = getattr(self, "_observe_" + FUNCTIONS[name_idx][1], None)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name_idx, 0, 0, parent))  # completed when the call returns
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name_idx, t0, perf_counter_ns(), parent)
                stack.pop()
            if observe is not None:
                try:
                    observe(args, kwargs, result, parent)
                except Exception as e:  # the verb goes on; coverage_errors reports it
                    name = self.names[name_idx]
                    self.observer_errors.setdefault(name, f"{type(e).__name__}: {e}")
            return result

        traced.__wrapped__ = fn
        return traced

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    # -- per-function counts ------------------------------------------
    # Observers read the functions' arguments and the dense views of their
    # results, not the layout of the code types, which may change.

    def _observe_omp(self, args, kwargs, code, parent):
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        nnz = int(np.count_nonzero(code.to_dense()))
        self._add("omp.nnz", nnz)
        self._add("omp.early_exits", int(nnz < cfg.s))

    def _observe_batch_code(self, args, kwargs, codes, parent):
        D = args[0] if args else kwargs["D"]
        Y = args[1] if len(args) > 1 else kwargs["Y"]
        self._add("batch_code.signals", np.shape(Y)[1])
        if parent >= 0 and self.names[self.spans[parent][0]] == "anomaly.addl_run":
            self._add("addl.iterations", 1)
            self.counts["addl.final_atoms"] = np.shape(D.atoms)[1]

    def _observe_load_csv(self, args, kwargs, ds, parent):
        path = args[0] if args else kwargs["path"]
        self._add("load_csv.rows", ds.n_samples)
        self._add("load_csv.bytes", os.path.getsize(path))

    def _observe_save_csv(self, args, kwargs, result, parent):
        ds = args[0] if args else kwargs["dataset"]
        self._add("save_csv.rows", ds.n_samples)

    def _observe_toddler_step(self, args, kwargs, result, parent):
        self._add("toddler_step.completed", 1)

    # -- results --------------------------------------------------------

    def function_stats(self):
        """name -> (calls, inclusive ns, self ns)."""
        n = len(self.names)
        calls, incl, child = [0] * n, [0] * n, [0] * len(self.spans)
        for name_idx, t0, t1, parent in self.spans:
            calls[name_idx] += 1
            incl[name_idx] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns = [0] * n
        for k, (name_idx, t0, t1, _) in enumerate(self.spans):
            self_ns[name_idx] += t1 - t0 - child[k]
        return {self.names[i]: (calls[i], incl[i], self_ns[i]) for i in range(n)}

    def coverage_errors(self, workload):
        stats = self.function_stats()
        errors = []
        for mod, fn, required in FUNCTIONS:
            calls = stats[f"{mod}.{fn}"][0]
            if workload in required and calls == 0:
                errors.append(f"{mod}.{fn} recorded no call on {workload}")
            if workload in MUST_NOT_RUN.get(mod, ()) and calls > 0:
                errors.append(f"{mod}.{fn} recorded {calls} calls on {workload}")
        errors += [f"{name} observer failed: {e}" for name, e in self.observer_errors.items()]
        return errors

    def per_layer_metrics(self):
        stats = self.function_stats()
        c = self.counts

        def calls(name):
            return stats[name][0]

        def total_s(name):
            return stats[name][1] / 1e9

        def self_s(name):
            return stats[name][2] / 1e9

        def self_us(name):
            return stats[name][2] / 1e3 / stats[name][0] if stats[name][0] else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        omp_calls = calls("sparse_coding.omp")
        signals = c.get("batch_code.signals", 0)
        out = {
            "sparse_coding.omp.calls": omp_calls,
            "sparse_coding.omp.self_us": self_us("sparse_coding.omp"),
            "sparse_coding.omp.mean_nnz": ratio(c.get("omp.nnz", 0), omp_calls),
            "sparse_coding.omp.early_exit_ratio": ratio(c.get("omp.early_exits", 0), omp_calls),
            "sparse_coding.batch_code.calls": calls("sparse_coding.batch_code"),
            "sparse_coding.batch_code.signals": signals,
            "sparse_coding.batch_code.us_per_signal":
                ratio(total_s("sparse_coding.batch_code") * 1e6, signals),
            "sparse_coding.batch_code.self_s": self_s("sparse_coding.batch_code"),
            "sparse_coding.representation_errors.self_s":
                self_s("sparse_coding.representation_errors"),
            "sparse_coding.atom_popularity.self_s": self_s("sparse_coding.atom_popularity"),
            "dictionary_learning.train.calls": calls("dictionary_learning.train"),
            "supervised.pretrain.s": total_s("supervised.pretrain"),
            "supervised.classify.calls": calls("supervised.classify"),
            "online.spectral_norm.calls": calls("online.spectral_norm"),
            "online.init_state.s": total_s("online.init_state"),
            "online.steps_completed": c.get("toddler_step.completed", 0),
            "anomaly.iterations": c.get("addl.iterations", 0),
            "anomaly.final_atoms": c.get("addl.final_atoms", 0),
            "data_io.load_csv.s": total_s("data_io.load_csv"),
            "data_io.load_csv.rows_per_s":
                ratio(c.get("load_csv.rows", 0), total_s("data_io.load_csv")),
            "data_io.load_csv.mb_per_s":
                ratio(c.get("load_csv.bytes", 0) / 1e6, total_s("data_io.load_csv")),
            "data_io.normalize.s": total_s("data_io.normalize"),
            "data_io.synth_generate.s": total_s("data_io.synth_generate"),
            "data_io.save_csv.rows_per_s":
                ratio(c.get("save_csv.rows", 0), total_s("data_io.save_csv")),
            "evaluation.confusion.s": total_s("evaluation.confusion"),
        }
        for name in ("dictionary_learning.train", "dictionary_learning.atom_update_pass",
                     "dictionary_learning.objective", "dictionary_learning.init_dictionary",
                     "supervised.pretrain", "anomaly.addl_run", "experiments.run_eval",
                     "experiments.run_synth", "experiments.run_addl",
                     "experiments.run_toddler", "cli.main"):
            out[f"{name}.self_s"] = self_s(name)
        for name in ("supervised.classify", "online.toddler_step", "online.lambda_select",
                     "online.spectral_norm", "online.rls_update", "online.tikhonov_update"):
            out[f"{name}.self_us"] = self_us(name)
        return out

    def write_spans(self, path):
        with open(path, "w") as f:
            f.write("span,name,start_ns,end_ns,parent\n")
            f.writelines(f"{k},{self.names[i]},{t0},{t1},{p}\n"
                         for k, (i, t0, t1, p) in enumerate(self.spans))
