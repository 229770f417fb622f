"""dictad benchmark: ingest / filter / stream workloads.

Usage (from the repository root):

    python3 bench/run.py --workload {ingest,filter,stream,all} --seed N \
        --seconds S --trace {0,1}

Each workload drives real CLI verbs in-process through ``dictad.cli.main``
in a fresh worker process (one client, closed loop, the program's default
threading):

* ``ingest``: ``eval --normalize`` on a 284,807-row credit-card-shaped CSV,
  then ``synth`` writing a 57,000-row CSV. Only ``data_io`` (and the
  ``experiments``/``cli`` glue) work here.
* ``filter``: ``addl --normalize`` on the 10:1 subsample (5,412 rows),
  3 AK-SVD iterations per stage and 4 global iterations, so the
  concatenated dictionary grows from 16 to 64 atoms. Batch OMP dominates.
* ``stream``: ``toddler --normalize`` on a 20,000-row stream with a 3 %
  pretraining split; per-sample ``toddler_step`` dominates.

Inputs come from ``gen.py`` and depend only on ``--seed``; they are cached
by seed under ``.bench_work/`` at the repository root, where the verbs'
outputs and the trace spans also go. With ``--trace 0`` the run reports the
end-to-end metrics, with ``--trace 1`` the per-module metrics of a traced
operation (spans written to ``.bench_work/trace/<workload>.csv``). The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end times are medians in reference seconds: raw seconds scaled by
the host's speed, sampled while they were measured (``hostspeed.py``), so
that the shared host's drift cancels out. The raw figures are printed
beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import gen
from tracer import ALL_WORKLOADS, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKER = HERE / "worker.py"

RUN_LIMIT_S = 170  # the whole run, set-up included, must end within 180 s
SETUP_SAMPLES = 8  # half before the measured operations, half after
CACHED_SEEDS = 3  # input sets kept per workload

# (rows, anomalies) of each workload's table; filter's is the 10:1 subsample
TABLE_SHAPE = {"ingest": (284_807, 492), "filter": (492 * 11, 492), "stream": (20_000, 492)}
TINY_SHAPE = (300, 30)
# independent tables per seed that a run cycles through, so one table's
# quirks (such as where its stream aborts) weigh less in a run's figures
SAMPLES = {"ingest": 1, "filter": 2, "stream": 3}

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("first_result_s", "s"),
    ("rows_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("anomaly_recall", "ratio"),
    ("anomaly_precision", "ratio"),
]


def prepare_inputs(workload: str, seed: int) -> Path:
    """Generate (or reuse) the workload's inputs for this seed."""
    inputs = WORK / "inputs" / f"{workload}-{seed}"
    if (inputs / "meta.json").exists():
        os.utime(inputs)
        return inputs
    tmp = inputs.with_name(f"{inputs.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    n_rows, n_anom = TABLE_SHAPE[workload]
    meta = {"rows": n_rows, "samples": SAMPLES[workload]}
    for k in range(SAMPLES[workload]):
        table, labels = gen.credit_card_table(n_rows, n_anom, seed, k)
        gen.write_table(tmp / f"table-{k}.csv", table, labels)
        np.save(tmp / f"labels-{k}.npy", labels)
        del table
    if workload == "ingest":
        preds = gen.noisy_predictions(labels, seed)
        gen.write_predictions(tmp / "preds.txt", preds)
        meta["eval_confusion"] = checks.confusion(labels, preds)
    tiny, tiny_labels = gen.credit_card_table(*TINY_SHAPE, seed)
    gen.write_table(tmp / "tiny.csv", tiny, tiny_labels)
    gen.write_predictions(tmp / "tiny_preds.txt", gen.noisy_predictions(tiny_labels, seed))
    with open(tmp / "meta.json", "w") as f:
        json.dump(meta, f)
    shutil.rmtree(inputs, ignore_errors=True)
    tmp.rename(inputs)
    cached = sorted(inputs.parent.glob(f"{workload}-*"), key=lambda p: p.stat().st_mtime)
    for old in cached[:-CACHED_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
    return inputs


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DICTAD_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_worker(args: list, deadline: float) -> str:
    """Run worker.py to completion (killed at the deadline); returns stdout."""
    proc = subprocess.run([sys.executable, str(WORKER)] + args, cwd=ROOT, env=worker_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args[:2])} exited {proc.returncode}")
    return proc.stdout


def setup_seconds(workload: str, seed: int, inputs: Path, deadline: float, n: int) -> list:
    """Import + warm-up times of n fresh processes, as (raw, reference)
    seconds."""
    out = WORK / "out" / f"setup-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--inputs", str(inputs),
              "--out", str(out), "--setup"]
    return [tuple(map(float, run_worker(common, deadline).split()[-2:])) for _ in range(n)]


def measure(workload: str, seed: int, seconds: int, trace: int, inputs: Path, deadline):
    out = WORK / "out" / f"{workload}-{os.getpid()}"
    result_file = WORK / "out" / f"{workload}-{os.getpid()}.json"
    try:
        run_worker(["--workload", workload, "--seed", str(seed), "--inputs", str(inputs),
                    "--out", str(out), "--seconds", str(seconds), "--trace", str(trace),
                    "--result", str(result_file)], deadline)
        with open(result_file) as f:
            return json.load(f)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        result_file.unlink(missing_ok=True)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(result: dict, setup: list, raw: bool = False) -> dict:
    """The end-to-end metrics: medians over the run's chunks and set-up
    samples, in reference seconds (``hostspeed.py``), or in raw seconds
    with ``raw``."""
    ops = result["ops"]
    chunks = [c["raw"] if raw else c for op in ops for c in op["chunks"]]
    first = "raw_first_result_s" if raw else "first_result_s"
    firsts = [op[first] for op in ops if op[first] is not None]
    conf = {k: sum(op["confusion"][k] for op in ops if op["confusion"]) for k in ("tp", "fp", "fn")}
    values = {
        "setup_s": _median([s[0 if raw else 1] for s in setup]),
        "peak_rss_mb": result["peak_rss_mb"],
        "first_result_s": _median(firsts),
        "rows_per_s": _median([c["rows_per_s"] for c in chunks]),
        "op_p50_ms": _median([c["p50_ms"] for c in chunks]),
        "op_p99_ms": _median([c["p99_ms"] for c in chunks]),
        "anomaly_recall": _ratio(conf["tp"], conf["tp"] + conf["fn"]),
        "anomaly_precision": _ratio(conf["tp"], conf["tp"] + conf["fp"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    inputs = prepare_inputs(workload, seed)
    # set-up samples on both sides of the measured operations, so that a
    # stretch of host contention at one of the two moves only half of them
    setup = [] if trace else setup_seconds(workload, seed, inputs, deadline, SETUP_SAMPLES // 2)
    result = measure(workload, seed, seconds, trace, inputs, deadline)
    if not trace:
        setup += setup_seconds(workload, seed, inputs, deadline, SETUP_SAMPLES - len(setup))
    ops = result["ops"]
    check_errors = [e for op in ops for v in op["verbs"] for e in v["check_errors"]]
    check_errors += result.get("coverage_errors", [])
    if trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": float(result["per_layer"][name]), "unit": units[name]}
                   for name in units}
    else:
        metrics = end_to_end(result, setup)
    summary = {
        "workload": workload,
        "correct": not check_errors,
        "attempted": sum(op["attempted"] for op in ops),
        "failed": sum(op["failed"] for op in ops),
        "metrics": metrics,
    }
    raw = None if trace else end_to_end(result, setup, raw=True)
    report(summary, result, setup, check_errors, raw)
    return summary


def report(summary: dict, result: dict, setup: list, check_errors: list, raw):
    """Human-readable lines, printed before the final JSON line."""
    ops = result["ops"]
    w = summary["workload"]
    verbs = [v for op in ops for v in op["verbs"]]
    n_chunks = sum(len(op["chunks"]) for op in ops)
    print(f"[{w}] {len(verbs)} verb runs, {n_chunks} timed chunks, "
          f"{summary['attempted']} attempted, {summary['failed']} failed "
          f"(failed_ratio {_ratio(summary['failed'], summary['attempted']):.4f})")
    for v in verbs:
        if v["rc"] != 0:
            steps = f" after {v['steps']} scored samples" if "steps" in v else ""
            last = v["stderr"].splitlines()[-1] if v["stderr"] else ""
            print(f"[{w}] {v['verb']} exited {v['rc']}{steps}: {last}")
    for name, m in summary["metrics"].items():
        raw_value = f"   raw {raw[name]['value']:.6g}" if raw else ""
        print(f"[{w}] {name:<44} {m['value']:>16.6g} {m['unit']}{raw_value}")
    if setup:
        print(f"[{w}] setup samples, raw s (reference s): "
              f"{', '.join(f'{r:.4f} ({s:.4f})' for r, s in setup)}")
    if "spans_file" in result:
        print(f"[{w}] spans: {result['spans_file']}")
    for e in check_errors:
        print(f"[{w}] CHECK FAILED: {e}")
    print(f"[{w}] env: {json.dumps(result['env'], sort_keys=True)}")


def main() -> int:
    ap = argparse.ArgumentParser(description="dictad benchmark")
    ap.add_argument("--workload", required=True, choices=ALL_WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "dictad" / "__init__.py").is_file():
        print(f"error: no dictad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = ALL_WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = [run_workload(w, args.seed, args.seconds, args.trace) for w in workloads]
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(runs) == 1:
        out = {k: runs[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        out = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {f"{r['workload']}.{k}": v for r in runs for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
