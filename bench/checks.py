"""Checks of the verbs' outputs against the benchmark's own truth.

Each check returns a list of error strings (empty when the output is
correct). The checks read the verbs' files with the standard library and
numpy only, never with dictad, so a defect in the program cannot hide
itself.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


def confusion(truth, estimates) -> dict:
    truth, estimates = np.asarray(truth), np.asarray(estimates)
    return {
        "tp": int(np.sum((truth == 1) & (estimates == 1))),
        "fp": int(np.sum((truth == 0) & (estimates == 1))),
        "tn": int(np.sum((truth == 0) & (estimates == 0))),
        "fn": int(np.sum((truth == 1) & (estimates == 0))),
    }


def _result_metrics(out: Path, errors: list):
    try:
        with open(out / "result.json") as f:
            return json.load(f)["metrics"]
    except (OSError, ValueError, KeyError) as e:
        errors.append(f"result.json unreadable: {e}")
        return None


def _same_confusion(reported, expected, what, errors):
    got = {k: reported.get(k) for k in expected} if isinstance(reported, dict) else reported
    if got != expected:
        errors.append(f"{what} confusion {got} != benchmark count {expected}")


def check_eval(out: Path, expected: dict) -> list:
    errors = []
    metrics = _result_metrics(out, errors)
    if metrics is not None:
        _same_confusion(metrics, expected, "eval", errors)
    return errors


def check_synth(out: Path, n_rows: int, n_anomalies: int, n_features: int) -> list:
    errors = []
    try:
        with open(out / "dataset.csv") as f:
            header = f.readline().rstrip("\n")
            lines = f.read().splitlines()
    except OSError as e:
        return [f"dataset.csv unreadable: {e}"]
    want = ",".join([f"f{i}" for i in range(n_features)] + ["Class"])
    if header != want:
        errors.append(f"dataset.csv header {header[:60]!r}... != {want[:60]!r}...")
    if len(lines) != n_rows:
        errors.append(f"dataset.csv has {len(lines)} rows, expected {n_rows}")
    bad_width = sum(1 for ln in lines if ln.count(",") != n_features)
    if bad_width:
        errors.append(f"dataset.csv has {bad_width} rows without {n_features + 1} fields")
    classes = [ln[ln.rfind(",") + 1:] for ln in lines]
    n_anom = classes.count("1")
    if n_anom != n_anomalies or n_anom + classes.count("0") != len(lines):
        errors.append(f"dataset.csv Class column has {n_anom} anomalies, expected {n_anomalies}")
    metrics = _result_metrics(out, errors)
    if metrics is not None:
        want_m = {"n_samples": n_rows, "n_features": n_features, "n_anomalies": n_anomalies}
        if {k: metrics.get(k) for k in want_m} != want_m:
            errors.append(f"synth result metrics {metrics} != {want_m}")
    return errors


def check_addl(out: Path, truth: np.ndarray, iterations: int):
    """Returns (errors, labels or None)."""
    errors = []
    try:
        with open(out / "labels.txt") as f:
            text = f.read().split()
    except OSError as e:
        return [f"labels.txt unreadable: {e}"], None
    if len(text) != truth.size or any(t not in ("0", "1") for t in text):
        return [f"labels.txt has {len(text)} entries or non-0/1 values, expected {truth.size}"], None
    labels = np.array(text, dtype=int)
    own = confusion(truth, labels)
    metrics = _result_metrics(out, errors)
    if metrics is not None:
        if metrics.get("n_flagged") != int(labels.sum()):
            errors.append(f"n_flagged {metrics.get('n_flagged')} != {int(labels.sum())} labels")
        if metrics.get("iterations") != iterations:
            errors.append(f"addl reported {metrics.get('iterations')} iterations, ran {iterations}")
        _same_confusion(metrics.get("confusion"), own, "addl", errors)
    try:
        with open(out / "trace.csv", newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        return errors + [f"trace.csv unreadable: {e}"], labels
    if not rows or rows[0] != ["iter", "card_A", "fp", "fn", "mean_err"]:
        return errors + [f"trace.csv header {rows[:1]}"], labels
    body = rows[1:]
    if [r[0] for r in body] != [str(i) for i in range(1, iterations + 1)]:
        errors.append(f"trace.csv iterations {[r[0] for r in body]} != 1..{iterations}")
    elif body:
        last = body[-1]
        if (int(last[1]), int(last[2]), int(last[3])) != (int(labels.sum()), own["fp"], own["fn"]):
            errors.append(f"trace.csv last row {last[:4]} disagrees with labels.txt {own}")
        if not all(np.isfinite(float(r[4])) and float(r[4]) > 0 for r in body):
            errors.append("trace.csv mean_err is not finite and positive")
    return errors, labels


def check_stream(out: Path, truth: np.ndarray, steps_completed: int, finished: bool):
    """Returns (errors, number of correct scored rows, predicted, true).
    A finished stream must also report the confusion of its rows."""
    try:
        with open(out / "predictions.csv", newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        return [f"predictions.csv unreadable: {e}"], 0, None, None
    if not rows or rows[0] != ["index", "predicted", "true"]:
        return [f"predictions.csv header {rows[:1]}"], 0, None, None
    body = rows[1:]
    errors = []
    if len(body) != steps_completed:
        errors.append(f"predictions.csv has {len(body)} rows but {steps_completed} steps returned")
    try:
        a = np.array(body, dtype=np.int64).reshape(-1, 3)
    except ValueError:
        return errors + ["predictions.csv has non-integer cells"], 0, None, None
    idx, pred, true = a[:, 0], a[:, 1], a[:, 2]
    in_range = (idx >= 0) & (idx < truth.size)
    ok = in_range & np.isin(pred, (0, 1))
    ok[in_range] &= true[in_range] == truth[idx[in_range]]
    if np.unique(idx).size != idx.size:
        errors.append("predictions.csv repeats an index")
        ok[:] = False
    if not ok.all():
        errors.append(f"{int((~ok).sum())} predictions.csv rows disagree with the generated labels")
    if finished:
        metrics = _result_metrics(out, errors)
        if metrics is not None:
            _same_confusion(metrics.get("stream"), confusion(true, pred), "toddler", errors)
    return errors, int(ok.sum()), pred, true
