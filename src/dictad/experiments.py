"""Experiment drivers behind the CLI.

run_experiment checks a flat parameter dict against PARAMS, reads the
dataset and only then makes the output directory, which a run that fails
removes while it holds no file. The verb's driver in RUNNERS runs one
experiment on the dataset, writes its artifacts and returns its metrics;
run_experiment writes result.json: the resolved configuration, the metrics
and the wall time of load and run, the one field a rerun may change.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import numbers
import os
import time
from collections import namedtuple
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import ConfigError, DataError
from .anomaly import ADDLConfig, PopularityConfig, addl_run, popularity_filter_run
from .data_io import Dataset, SynthConfig, load_csv, normalize, save_csv, subsample, synth_generate
from .dictionary_learning import DLConfig
from .evaluation import confusion
from .online import LAMBDA_POLICIES, LambdaPolicy, init_state, save_state, toddler_step
from .sparse_coding import CodingConfig, batch_code
from .supervised import PretrainConfig, pretrain, save_model

# One row per parameter: config key and --flag name, type, range "[lo, hi)"
# or choices, default, the verbs that take it (as a flag, and with the
# default filled in), help text, and the SynthConfig field that a synth-verb
# flag sets.
Param = namedtuple("Param", "name type domain default verbs help synth", defaults=(None,))
SUPERVISED, FILTERS = ("pretrain", "toddler"), ("addl", "popularity")
LEARNERS = SUPERVISED + FILTERS  # the verbs that code and train
READERS = LEARNERS + ("eval",)  # the verbs that load a dataset

# paper-protocol defaults: s = 5, 20 AK-SVD iterations, phi = 0.95, gram-norm lambdas
PARAMS = (
    Param("seed", int, "[0, inf)", 0, READERS + ("synth",), "random seed"),
    Param("dataset", str, None, None, READERS, "input CSV path"),
    Param("schema", str, ("ulb", "generic"), "ulb", READERS, "CSV schema"),
    Param("label_column", str, None, None, READERS, "label column for the generic schema"),
    Param("normalize", bool, None, False, READERS, "z-score features before the experiment"),
    Param("subsample_ratio", int, "[0, inf)", 0, LEARNERS, "normals kept per anomaly, 0 = off"),
    Param("sparsity", int, "[1, inf)", 5, LEARNERS, "OMP sparsity s"),
    Param("residual_tol", float, "[0, inf)", 0.0, LEARNERS, "OMP residual early-exit norm"),
    Param("dl_iterations", int, "[1, inf)", 20, LEARNERS, "AK-SVD iterations per training"),
    Param("stage_atoms", int, "[1, inf)", 16, FILTERS, "atoms per training stage, >= sparsity"),
    Param("alpha", float, "[0, inf)", 1.0, SUPERVISED, "classifier weight"),
    Param("beta", float, "[0, inf)", 1.0, SUPERVISED, "label-consistency weight"),
    Param("atoms_per_class", int, "[1, inf)", 8, SUPERVISED, "dictionary atoms per class"),
    Param("phi", float, "(0, 1]", 0.95, ("toddler",), "forgetting factor"),
    Param("lambda_policy", str, LAMBDA_POLICIES, "gram-norm",
          ("toddler",), "regularization weights; fixed needs lambda1 and lambda2"),
    Param("lambda1", float, "(0, inf)", None, ("toddler",), "fixed classifier-update weight"),
    Param("lambda2", float, "(0, inf)", None, ("toddler",), "fixed label-map-update weight"),
    Param("pretrain_fraction", float, "(0, 1)", 0.1, ("toddler",), "share used to pretrain"),
    Param("global_iterations", int, "[1, inf)", 10, ("addl",), "filter iterations"),
    Param("n_anomalies", int, "[1, inf)", None, ("popularity",),
          "signals to flag; default: the labeled anomaly count"),
    Param("max_iterations", int, "[1, inf)", 100, ("popularity",), "filter iteration cap"),
    Param("n_normal", int, "[1, inf)", None, ("synth",), "normal samples", "n_normal"),
    Param("n_anomaly", int, "[0, inf)", None, ("synth",), "anomalies, <= n_normal", "n_anomaly"),
    Param("features", int, "[1, inf)", None, ("synth",), "signal dimension", "m"),
    Param("normal_atoms", int, "[1, inf)", None, ("synth",), "normal atoms", "normal_atoms"),
    Param("anomaly_atoms", int, "[1, inf)", None, ("synth",), "anomaly atoms", "anomaly_atoms"),
    Param("s_gen", int, "[1, inf)", None, ("synth",), "atoms per generated signal", "s_gen"),
    Param("noise_sigma", float, "[0, inf)", None, ("synth",), "noise level", "noise_sigma"),
    Param("predictions", str, None, None, ("eval",), "file with one 0/1 estimate per line"),
    Param("synth", dict, None, None, (), "SynthConfig fields; replaces the dataset"),
)

_ROWS = {p.name: p for p in PARAMS}
# keys and types of the synth object come from SynthConfig, ranges from the rows
_SYNTH_TYPES = get_type_hints(SynthConfig)
_SYNTH_DOMAINS = {"seed": _ROWS["seed"].domain, **{p.synth: p.domain for p in PARAMS if p.synth}}
_KINDS = {int: numbers.Integral, float: numbers.Real, str: str, bool: bool, dict: dict}


def _check(key: str, value, typ: type, domain):
    """value as typ; ConfigError when its type is wrong (bools are not
    numbers, 2.7 is not an int), it is not finite or it lies outside domain."""
    if isinstance(value, bool) != (typ is bool) or not isinstance(value, _KINDS[typ]):
        raise ConfigError(f"{key} must be of type {typ.__name__}, got {value!r}")
    value = typ(value)
    if isinstance(domain, str):
        lo, hi = (float(b) for b in domain[1:-1].split(","))
        inside = ((lo < value if domain[0] == "(" else lo <= value)
                  and (value < hi if domain[-1] == ")" else value <= hi))
    else:
        inside = domain is None or value in domain
    if not inside or (typ is float and not math.isfinite(value)):
        raise ConfigError(f"{key} must be in {domain}, got {value!r}")
    return value


def resolve_params(method: str, params: dict) -> dict:
    """params checked against PARAMS and completed with the defaults of
    method's rows. Unknown keys, wrong types, non-finite floats, values out
    of range and broken cross-key rules raise ConfigError. None counts as
    absent; a known key of another verb is checked, then dropped."""
    if not isinstance(params, dict):
        raise ConfigError(f"parameters must be an object, got {type(params).__name__}")
    out = {p.name: p.default for p in PARAMS if method in p.verbs and not p.synth}
    for key, value in params.items():
        if key not in _ROWS:
            raise ConfigError(f"unknown parameter {key!r}")
        if value is not None:
            value = _check(key, value, _ROWS[key].type, _ROWS[key].domain)
            if method in _ROWS[key].verbs or key == "synth":
                out[key] = value
    synth = out.pop("synth", None) or {}
    if method == "synth":
        synth.update({p.synth: out.pop(p.name) for p in PARAMS if p.synth and p.name in out})
        synth.setdefault("seed", out["seed"])
    for key, value in synth.items():
        if key not in _SYNTH_TYPES:
            raise ConfigError(f"unknown synth parameter {key!r}")
        synth[key] = _check(f"synth.{key}", value, _SYNTH_TYPES[key], _SYNTH_DOMAINS.get(key))
    if synth:
        try:  # a missing field, or more anomalies than normals
            SynthConfig(**synth)
        except (TypeError, DataError) as e:
            raise ConfigError(f"synth: {e}") from None
        out["synth"] = synth
    elif out["dataset"] is None:
        raise ConfigError("no dataset: provide 'dataset' (CSV path) or 'synth' parameters")
    if method in FILTERS and out["stage_atoms"] < out["sparsity"]:
        raise ConfigError(f"stage_atoms {out['stage_atoms']} < sparsity {out['sparsity']}")
    # the pretrained dictionary has 2 classes (normal, anomaly) x atoms_per_class atoms
    if method in SUPERVISED and 2 * out["atoms_per_class"] < out["sparsity"]:
        raise ConfigError(f"2 x atoms_per_class {out['atoms_per_class']} "
                          f"< sparsity {out['sparsity']}")
    if method == "toddler" and out["lambda_policy"] == "fixed" and None in (
            out["lambda1"], out["lambda2"]):
        raise ConfigError("lambda_policy fixed needs lambda1 and lambda2")
    if method == "toddler" and out["lambda_policy"] == "model-norms" and 0 in (
            out["alpha"], out["beta"]):
        raise ConfigError("lambda_policy model-norms needs alpha and beta > 0: "
                          "a zero weight trains W or A to 0, so its lambda is 0")
    if method == "eval" and out["predictions"] is None:
        raise ConfigError("evaluation needs a 'predictions' file (one 0/1 per line)")
    return out


def _load_dataset(params: dict) -> Dataset:
    if "synth" in params:
        ds = synth_generate(SynthConfig(**params["synth"]))
    else:
        ds = load_csv(params["dataset"], schema=params["schema"],
                      label_column=params["label_column"])
    if params.get("normalize"):  # the table was just made here, so it is z-scored in place
        ds = normalize(ds, copy=False)
    if params.get("subsample_ratio", 0) > 0:  # eval has no such row: predictions follow the rows
        ds = subsample(ds, params["subsample_ratio"], params["seed"])
    return ds


def _coding(params) -> CodingConfig:
    return CodingConfig(params["sparsity"], params["residual_tol"])


def _stage_dl(params) -> DLConfig:
    return DLConfig(params["stage_atoms"], params["dl_iterations"], _coding(params),
                    seed=params["seed"])


def _pretrain_model(Y, labels, params: dict):
    cfg = PretrainConfig(params["alpha"], params["beta"], params["atoms_per_class"],
                         params["dl_iterations"], _coding(params), params["seed"])
    return pretrain(Y, labels, cfg)


def run_pretrain(params: dict, ds: Dataset, out_dir: Path) -> dict:
    if ds.labels is None:
        raise DataError("pretraining needs labels")
    model = _pretrain_model(ds.Y, ds.labels, params)
    coding = _coding(params)
    codes = batch_code(model.D, ds.Y, coding)
    preds = np.argmax(model.W @ codes.to_dense(), axis=0)  # classify on every code at once
    rep = confusion(ds.labels, preds)
    save_model(out_dir / "model.npz", model, coding.s)
    return {"train": rep.as_dict()}


def run_toddler(params: dict, ds: Dataset, out_dir: Path) -> dict:
    if ds.labels is None:
        raise DataError("the online experiment needs labels for evaluation")
    N = ds.n_samples
    rng = np.random.default_rng(params["seed"])
    order = rng.permutation(N)
    n_pre = max(2, int(np.ceil(params["pretrain_fraction"] * N)))
    pre_idx, stream_idx = order[:n_pre], order[n_pre:]
    if len(set(ds.labels[pre_idx])) < 2:
        raise DataError("pretraining split does not contain both classes")
    if stream_idx.size == 0:
        raise DataError("nothing left to stream after the pretraining split")

    model = _pretrain_model(ds.Y[:, pre_idx], ds.labels[pre_idx], params)
    coding = _coding(params)
    warm_X = batch_code(model.D, ds.Y[:, pre_idx], coding)
    kind = params["lambda_policy"]  # only the fixed policy reads lambda1 and lambda2
    lambdas = (params["lambda1"], params["lambda2"]) if kind == "fixed" else ()
    state = init_state(model, ds.Y[:, pre_idx], warm_X, phi=params["phi"],
                       lambda_policy=LambdaPolicy(kind, *lambdas), coding=coding)

    preds = np.empty(stream_idx.size, dtype=int)
    with open(out_dir / "predictions.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "predicted", "true"])
        for k, i in enumerate(stream_idx):
            state, outcome = toddler_step(state, ds.Y[:, i])
            preds[k] = outcome.predicted_class
            w.writerow([int(i), int(outcome.predicted_class), int(ds.labels[i])])
    rep = confusion(ds.labels[stream_idx], preds)
    save_state(out_dir / "checkpoint.npz", state)
    return {"stream": rep.as_dict(), "n_pretrain": n_pre}


def _filter_outputs(ds: Dataset, labels, trace, out_dir: Path) -> dict:
    """Write a filter's labels.txt and trace.csv; returns its metrics."""
    with open(out_dir / "labels.txt", "w") as f:
        f.writelines(f"{int(v)}\n" for v in labels)
    trace.to_csv(out_dir / "trace.csv")
    metrics = {"n_flagged": int(np.sum(labels)), "iterations": len(trace.records)}
    if ds.labels is not None:
        metrics["confusion"] = confusion(ds.labels, labels).as_dict()
    return metrics


def run_addl(params: dict, ds: Dataset, out_dir: Path) -> dict:
    cfg = ADDLConfig(params["global_iterations"], _stage_dl(params), _coding(params))
    labels, trace = addl_run(ds.Y, cfg, truth=ds.labels)
    return _filter_outputs(ds, labels, trace, out_dir)


def run_popularity(params: dict, ds: Dataset, out_dir: Path) -> dict:
    n_anom = params["n_anomalies"]
    if n_anom is None:
        if ds.labels is None:
            raise ConfigError("n_anomalies is required when the dataset has no labels")
        n_anom = int(np.sum(ds.labels == 1))
        if n_anom == 0:
            raise DataError("the dataset labels no sample as an anomaly; "
                            "--n-anomalies sets the anomaly count")
    cfg = PopularityConfig(n_anom, _stage_dl(params), _coding(params), params["max_iterations"])
    labels, trace = popularity_filter_run(ds.Y, cfg, truth=ds.labels)
    return _filter_outputs(ds, labels, trace, out_dir)


def run_synth(params: dict, ds: Dataset, out_dir: Path) -> dict:
    save_csv(ds, out_dir / "dataset.csv")
    return {"n_samples": ds.n_samples, "n_features": ds.n_features,
            "n_anomalies": int(np.sum(ds.labels))}


def run_eval(params: dict, ds: Dataset, out_dir: Path) -> dict:
    if ds.labels is None:
        raise DataError("evaluation needs ground-truth labels in the dataset")
    pred_path = params["predictions"]
    try:
        with open(pred_path, encoding="utf-8-sig") as f:
            text = f.read()
    except OSError as e:
        raise DataError(f"cannot read {pred_path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{pred_path}: not UTF-8 text ({e.reason})") from None
    lines = text.split("\n")
    if not {"0", "1", ""}.issuperset(lines):  # spaces around a digit, or a fault
        lines = [t.strip() for t in lines]
        if not {"0", "1", ""}.issuperset(lines):
            k, t = next((k, t) for k, t in enumerate(lines, 1) if t not in ("0", "1", ""))
            raise DataError(f"{pred_path}: line {k} is {t!r}, not 0 or 1")
        text = "\n".join(lines)
    digits = np.frombuffer(text.encode(), dtype=np.uint8)
    preds = digits[digits != ord("\n")] == ord("1")
    if len(preds) != ds.n_samples:
        raise DataError(f"{pred_path} holds {len(preds)} predictions "
                        f"for {ds.n_samples} dataset rows")
    rep = confusion(ds.labels, preds)
    return rep.as_dict()


RUNNERS = {
    "pretrain": run_pretrain,
    "toddler": run_toddler,
    "addl": run_addl,
    "popularity": run_popularity,
    "synth": run_synth,
    "eval": run_eval,
}


def run_experiment(method: str, params: dict, out_dir) -> dict:
    """Run one verb into out_dir; returns the record it writes to result.json."""
    if method not in RUNNERS:
        raise ConfigError(f"unknown method {method!r}")
    params = resolve_params(method, params)
    out_dir = Path(out_dir)
    t0 = time.perf_counter()
    ds = _load_dataset(params)
    made = [p for p in (out_dir, *out_dir.parents) if not os.path.exists(p)]  # innermost first
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics = RUNNERS[method](params, ds, out_dir)
        result = {"method": method, "config": params, "seed": params["seed"],
                  "metrics": metrics, "wall_time_s": time.perf_counter() - t0}
        (out_dir / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        return result
    except OSError as e:  # loading reports its OSErrors as DataError: this is an output
        raise ConfigError(f"cannot write {e.filename or out_dir}: {e.strerror}") from None
    finally:  # a directory made here goes while it holds no file; a run that returned holds one
        with contextlib.suppress(OSError):
            for p in made:
                p.rmdir()
