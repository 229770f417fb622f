"""Runs one workload's verbs in-process through ``dictad.cli.main``.

``run.py`` starts this file in a fresh process per workload, so the peak
memory it reports belongs to that workload alone, and with
``DICTAD_THREADS`` removed from the environment, so the program's default
coding path is what gets measured. With ``--setup`` it times only the
import of dictad plus a warm-up verb on tiny inputs and prints the seconds.
Otherwise it writes its measurements as JSON to ``--result``.

Each operation writes into its own output directory, is checked against
the generated truth outside the timed region, and the directory is then
removed.

Times are taken raw and converted into reference seconds with the
host-speed probes of ``hostspeed.py``, which sample the host every 50 ms
while the worker measures (not in the traced run).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SPEED = HostSpeed()

# filter: the concatenated dictionary grows 16 -> 64 atoms over 4 iterations
ADDL_DL_ITERATIONS = 3
ADDL_GLOBAL_ITERATIONS = 4
STREAM_PRETRAIN_FRACTION = 0.03
STEP_BLOCK = 1000  # a block's p99 has 10 samples beyond it
SYNTH_ROWS = {"n_normal": 56_500, "n_anomaly": 500}
TINY_SYNTH_ROWS = {"n_normal": 300, "n_anomaly": 30}
SYNTH_SHAPE = {"features": 29, "normal_atoms": 16, "anomaly_atoms": 8,
               "s_gen": 4, "noise_sigma": 0.1}


def _flags(d: dict) -> list:
    return [a for k, v in d.items() for a in (f"--{k.replace('_', '-')}", str(v))]


def synth_argv(rows: dict, out: Path, seed: int) -> list:
    return ["synth", "--out", str(out), "--seed", str(seed)] + _flags(rows) + _flags(SYNTH_SHAPE)


def eval_argv(dataset: Path, predictions: Path, out: Path, seed: int) -> list:
    return ["eval", "--normalize", "--dataset", str(dataset), "--predictions", str(predictions),
            "--out", str(out), "--seed", str(seed)]


def addl_argv(dataset: Path, out: Path, seed: int, dl_iterations: int, global_iterations: int):
    return ["addl", "--normalize", "--dataset", str(dataset), "--out", str(out),
            "--seed", str(seed), "--dl-iterations", str(dl_iterations),
            "--global-iterations", str(global_iterations)]


def toddler_argv(dataset: Path, out: Path, seed: int, pretrain_fraction: float) -> list:
    return ["toddler", "--normalize", "--dataset", str(dataset), "--out", str(out),
            "--seed", str(seed), "--pretrain-fraction", str(pretrain_fraction)]


def stream_length(n_rows: int, pretrain_fraction: float) -> int:
    """Samples the toddler verb streams after its pretraining split."""
    return n_rows - max(2, math.ceil(pretrain_fraction * n_rows))


def run_verb(argv: list):
    """One verb through dictad.cli.main; returns (exit code, start ns, end
    ns, stderr). A Python exception escaping the verb counts as a failed
    operation, with its traceback kept as the message."""
    import dictad.cli

    err = io.StringIO()
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = dictad.cli.main(argv)
    except Exception:
        rc = -1
        err.write(traceback.format_exc())
    t1 = time.perf_counter_ns()
    return rc, t0, t1, err.getvalue().strip()


# -- warm-up ------------------------------------------------------------

def warm_up(workload: str, inputs: Path, out: Path, seed: int):
    tiny, tiny_preds = inputs / "tiny.csv", inputs / "tiny_preds.txt"
    if workload == "ingest":
        argvs = [eval_argv(tiny, tiny_preds, out, seed), synth_argv(TINY_SYNTH_ROWS, out, seed)]
    elif workload == "filter":
        argvs = [addl_argv(tiny, out, seed, 1, 1)]
    else:
        argvs = [toddler_argv(tiny, out, seed, 0.3)]
    try:
        for argv in argvs:
            rc, _, _, err = run_verb(argv)
            if rc != 0:
                raise RuntimeError(f"warm-up {argv[0]} exited {rc}: {err}")
    finally:
        shutil.rmtree(out, ignore_errors=True)


# -- operations -----------------------------------------------------------

def _verb_record(name, rc, err, check_errors):
    return {"verb": name, "rc": rc, "stderr": err[-500:], "check_errors": check_errors}


def _chunk(raw_ms, ref_ms, rows: int, raw_s: float, ref_s: float) -> dict:
    """One timing chunk: the median and 99th-percentile latency of its
    operations and its rows per second, in reference seconds, with the raw
    figures beside them."""
    import numpy as np

    def stats(ms, s):
        return {"p50_ms": float(np.percentile(ms, 50)), "p99_ms": float(np.percentile(ms, 99)),
                "rows_per_s": rows / s}

    return {**stats(ref_ms, ref_s), "raw": stats(raw_ms, raw_s)}


def _step_chunks(starts, ends) -> list:
    """Streamed steps in consecutive blocks of STEP_BLOCK; each block is one
    chunk, its rate including the per-row CSV write in ``run_toddler``. A
    stream too short for one full block is one partial block. A step's
    latency excludes any probe that interrupted it."""
    import numpy as np

    inside = np.array([SPEED.probe_ns_within(s, e) for s, e in zip(starts, ends)], dtype=float)
    latency_ms = (ends - starts - inside) / 1e6
    factors = SPEED.factors(starts, ends)
    n = starts.size
    chunks = []
    for lo in range(0, max(n - STEP_BLOCK, 0) + 1, STEP_BLOCK):
        hi = min(lo + STEP_BLOCK, n)
        if hi == lo:
            break
        t0, t1 = int(starts[lo]), int(ends[hi - 1])
        raw_ms = latency_ms[lo:hi]
        chunks.append(_chunk(raw_ms, raw_ms * factors[lo:hi], hi - lo, _raw_s(t0, t1),
                             SPEED.seconds_of(t0, t1)))
    return chunks


def _raw_s(t0: int, t1: int) -> float:
    """An interval's raw seconds, probe time excluded."""
    return (t1 - t0 - SPEED.probe_ns_within(t0, t1)) / 1e9


def ingest_op(inputs: Path, k: int, out: Path, seed: int, meta: dict) -> dict:
    """eval on the full-size table, then synth of ~57k rows."""
    import checks
    import numpy as np

    rc, e0, e1, err = run_verb(eval_argv(inputs / f"table-{k}.csv", inputs / "preds.txt",
                                         out / "eval", seed))
    eval_rec = _verb_record("eval", rc, err,
                            checks.check_eval(out / "eval", meta["eval_confusion"]))
    rc, s0, s1, err = run_verb(synth_argv(SYNTH_ROWS, out / "synth", seed))
    n_synth = SYNTH_ROWS["n_normal"] + SYNTH_ROWS["n_anomaly"]
    synth_rec = _verb_record("synth", rc, err, checks.check_synth(
        out / "synth", n_synth, SYNTH_ROWS["n_anomaly"], SYNTH_SHAPE["features"]))
    verbs = [eval_rec, synth_rec]
    failed = sum(1 for v in verbs if v["rc"] != 0 or v["check_errors"])
    conf = meta["eval_confusion"] if not (eval_rec["rc"] or eval_rec["check_errors"]) else None
    raw = [_raw_s(e0, e1), _raw_s(s0, s1)]
    ref = [SPEED.seconds_of(e0, e1), SPEED.seconds_of(s0, s1)]
    return {"verbs": verbs, "attempted": 2, "failed": failed, "wall_s": sum(ref),
            "first_result_s": ref[0], "raw_first_result_s": raw[0], "confusion": conf,
            "chunks": [_chunk(np.array(raw) * 1e3, np.array(ref) * 1e3, meta["rows"] + n_synth,
                              sum(raw), sum(ref))]}


def filter_op(inputs: Path, k: int, out: Path, seed: int, meta: dict) -> dict:
    """addl on the 10:1 subsample. Its timed operations are the global
    coding calls: each codes every sample against the concatenated
    dictionary, which grows by one stage per global iteration."""
    import checks
    import dictad.anomaly
    import numpy as np

    truth = np.load(inputs / f"labels-{k}.npy")
    with CallTimer(dictad.anomaly, "batch_code") as coding:
        rc, t0, t1, err = run_verb(addl_argv(inputs / f"table-{k}.csv", out, seed,
                                             ADDL_DL_ITERATIONS, ADDL_GLOBAL_ITERATIONS))
    errors, labels = checks.check_addl(out, truth, ADDL_GLOBAL_ITERATIONS)
    if rc == 0 and len(coding.ends) != ADDL_GLOBAL_ITERATIONS:
        errors.append(f"addl made {len(coding.ends)} global coding calls, "
                      f"expected {ADDL_GLOBAL_ITERATIONS}")
    rec = _verb_record("addl", rc, err, errors)
    ok = rc == 0 and not errors
    calls = list(zip(coding.starts, coding.ends))
    raw_ms = [_raw_s(s, e) * 1e3 for s, e in calls]
    ref_ms = [SPEED.seconds_of(s, e) * 1e3 for s, e in calls]
    first = coding.ends[0] if calls else None
    return {"verbs": [rec], "attempted": 1, "failed": 0 if ok else 1,
            "wall_s": SPEED.seconds_of(t0, t1),
            "first_result_s": SPEED.seconds_of(t0, first) if calls else None,
            "raw_first_result_s": _raw_s(t0, first) if calls else None,
            "chunks": [_chunk(raw_ms, ref_ms, meta["rows"], _raw_s(t0, t1),
                              SPEED.seconds_of(t0, t1))] if calls else [],
            "confusion": checks.confusion(truth, labels) if ok else None}


class CallTimer:
    """Times each call made through one module binding of a dictad
    function, from outside the package; the binding is restored on exit."""

    def __init__(self, module, name: str):
        self.module, self.name = module, name
        self.inner = getattr(module, name)
        self.starts, self.ends = [], []

    def __enter__(self):
        inner, starts, ends, clock = self.inner, self.starts, self.ends, time.perf_counter_ns

        def timed(*args, **kwargs):
            t0 = clock()
            result = inner(*args, **kwargs)
            ends.append(clock())
            starts.append(t0)
            return result

        setattr(self.module, self.name, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.inner)


def stream_op(inputs: Path, k: int, out: Path, seed: int, meta: dict) -> dict:
    """toddler on the 20,000-row stream; one operation per streamed sample."""
    import checks
    import dictad.experiments
    import numpy as np

    truth = np.load(inputs / f"labels-{k}.npy")
    attempted = stream_length(truth.size, STREAM_PRETRAIN_FRACTION)
    with CallTimer(dictad.experiments, "toddler_step") as steps:
        rc, t0, t1, err = run_verb(toddler_argv(inputs / f"table-{k}.csv", out, seed,
                                                STREAM_PRETRAIN_FRACTION))
    n_steps = len(steps.ends)
    errors, scored, pred, true = checks.check_stream(out, truth, n_steps, finished=rc == 0)
    if rc == 0 and n_steps != attempted:
        errors.append(f"toddler finished after {n_steps} of {attempted} samples")
    rec = _verb_record("toddler", rc, err, errors)
    rec["steps"] = n_steps
    return {
        "verbs": [rec], "attempted": attempted, "failed": attempted - scored,
        "wall_s": SPEED.seconds_of(t0, t1),
        "first_result_s": SPEED.seconds_of(t0, steps.ends[0]) if n_steps else None,
        "raw_first_result_s": _raw_s(t0, steps.ends[0]) if n_steps else None,
        "chunks": _step_chunks(np.array(steps.starts), np.array(steps.ends)),
        "confusion": checks.confusion(true, pred) if pred is not None else None,
    }


OPERATIONS = {"ingest": ingest_op, "filter": filter_op, "stream": stream_op}


def peak_rss_mb() -> float:
    """This process image's peak resident memory. VmHWM starts afresh at
    exec, while ru_maxrss also counts the parent image the worker was
    forked from."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- environment record -----------------------------------------------------

def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as f:
            paths = {ln.split()[-1] for ln in f if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "DICTAD_THREADS": os.environ.get("DICTAD_THREADS"),
    }


# -- main ---------------------------------------------------------------------

def measure(args) -> dict:
    inputs, out = args.inputs, args.out
    with open(inputs / "meta.json") as f:
        meta = json.load(f)
    op = OPERATIONS[args.workload]
    warm_up(args.workload, inputs, out / "warm-up", args.seed)
    ops, result = [], {}

    def run_op(table):
        op_out = out / f"op{len(ops)}"
        rec = op(inputs, table, op_out, args.seed, meta)
        shutil.rmtree(op_out, ignore_errors=True)
        ops.append(rec)
        return rec

    if args.trace:
        from tracer import Tracer

        untraced = run_op(0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_op(0)
        finally:
            tracer.uninstall()
        per_layer = tracer.per_layer_metrics()
        per_layer["trace_overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
        result["per_layer"] = per_layer
        result["coverage_errors"] = tracer.coverage_errors(args.workload)
        spans = ROOT / ".bench_work" / "trace" / f"{args.workload}.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    else:
        SPEED.start()
        try:
            start = time.perf_counter()
            while not ops or time.perf_counter() - start < args.seconds:
                run_op(len(ops) % meta["samples"])
        finally:
            SPEED.stop()
    result["ops"] = ops
    result["peak_rss_mb"] = peak_rss_mb()
    result["env"] = environment()
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(OPERATIONS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--result", type=Path)
    ap.add_argument("--setup", action="store_true",
                    help="print the seconds to import dictad and run a warm-up verb")
    args = ap.parse_args()

    if args.setup:
        SPEED.start()
        t0 = time.perf_counter_ns()
        import dictad.cli  # noqa: F401

        warm_up(args.workload, args.inputs, args.out, args.seed)
        t1 = time.perf_counter_ns()
        SPEED.stop()
        print(_raw_s(t0, t1), SPEED.seconds_of(t0, t1))
        return
    result = measure(args)
    with open(args.result, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
