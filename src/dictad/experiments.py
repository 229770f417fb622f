"""Experiment drivers behind the CLI.

Each driver consumes a flat parameter dict (config file merged with flag
overrides), runs one experiment and writes its artifacts plus a
result.json echoing the full configuration, the metrics and the wall time.
Identical config + seed reruns produce byte-identical artifacts except the
wall-time field.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .anomaly import ADDLConfig, PopularityConfig, addl_run, popularity_filter_run
from .data_io import Dataset, SynthConfig, load_csv, normalize, save_csv, subsample, synth_generate
from .dictionary_learning import DLConfig
from .evaluation import confusion
from .online import (
    GRAM_NORM,
    MODEL_NORMS,
    fixed_lambdas,
    init_state,
    save_state,
    toddler_step,
)
from .sparse_coding import CodingConfig, batch_code
from .supervised import PretrainConfig, classify, pretrain, save_model

# paper-protocol defaults: s = 5, 20 AK-SVD iterations, phi = 0.95, gram-norm lambdas
DEFAULTS = {
    "sparsity": 5,
    "residual_tol": 0.0,
    "dl_iterations": 20,
    "stage_atoms": 16,
    "phi": 0.95,
    "lambda_policy": "gram-norm",
    "alpha": 1.0,
    "beta": 1.0,
    "atoms_per_class": 8,
    "pretrain_fraction": 0.1,
    "normalize": False,
    "subsample_ratio": 0,
    "seed": 0,
}


def merged_params(params: dict) -> dict:
    out = dict(DEFAULTS)
    out.update({k: v for k, v in params.items() if v is not None})
    return out


def _load_dataset(params: dict) -> Dataset:
    if params.get("synth"):
        try:
            ds = synth_generate(SynthConfig(**params["synth"]))
        except TypeError as e:
            raise ConfigError(f"bad synth parameters: {e}") from None
    elif params.get("dataset"):
        ds = load_csv(
            params["dataset"],
            schema=params.get("schema", "ulb"),
            label_column=params.get("label_column"),
        )
    else:
        raise ConfigError("no dataset: provide 'dataset' (CSV path) or 'synth' parameters")
    if params.get("normalize"):
        ds = normalize(ds)
    ratio = int(params.get("subsample_ratio") or 0)
    if ratio > 0:
        ds = subsample(ds, ratio, int(params["seed"]))
    return ds


def _coding(params) -> CodingConfig:
    return CodingConfig(int(params["sparsity"]), float(params["residual_tol"]))


def _stage_dl(params) -> DLConfig:
    return DLConfig(
        n_atoms=int(params["stage_atoms"]),
        iterations=int(params["dl_iterations"]),
        coding=_coding(params),
        seed=int(params["seed"]),
    )


def _lambda_policy(params):
    kind = params["lambda_policy"]
    if kind == "gram-norm":
        return GRAM_NORM
    if kind == "model-norms":
        return MODEL_NORMS
    if kind == "fixed":
        return fixed_lambdas(float(params["lambda1"]), float(params["lambda2"]))
    raise ConfigError(f"unknown lambda policy {kind!r}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return obj


def _write_result(out_dir: Path, method: str, params: dict, metrics: dict, t0: float):
    result = {
        "method": method,
        "config": _jsonable(params),
        "seed": int(params["seed"]),
        "metrics": _jsonable(metrics),
        "wall_time_s": time.perf_counter() - t0,
    }
    with open(out_dir / "result.json", "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    return result


def _pretrain_model(ds: Dataset, params: dict):
    if ds.labels is None:
        raise DataError("pretraining needs labels")
    cfg = PretrainConfig(
        alpha=float(params["alpha"]),
        beta=float(params["beta"]),
        atoms_per_class=int(params["atoms_per_class"]),
        dl=_stage_dl(params),
    )
    return pretrain(ds.Y, ds.labels, cfg)


def run_pretrain(params: dict, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    ds = _load_dataset(params)
    model = _pretrain_model(ds, params)
    coding = _coding(params)
    codes = batch_code(model.D, ds.Y, coding)
    preds = [classify(model.W, x)[0] for x in codes.columns]
    rep = confusion(ds.labels, preds)
    save_model(out_dir / "model.npz", model, coding.s)
    return _write_result(out_dir, "pretrain", params, {"train": rep.as_dict()}, t0)


def run_toddler(params: dict, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    ds = _load_dataset(params)
    if ds.labels is None:
        raise DataError("the online experiment needs labels for evaluation")
    N = ds.n_samples
    frac = float(params["pretrain_fraction"])
    if not (0.0 < frac < 1.0):
        raise ConfigError("pretrain_fraction must lie in (0, 1)")
    rng = np.random.default_rng(int(params["seed"]))
    order = rng.permutation(N)
    n_pre = max(2, int(np.ceil(frac * N)))
    pre_idx, stream_idx = order[:n_pre], order[n_pre:]
    if len(set(ds.labels[pre_idx])) < 2:
        raise DataError("pretraining split does not contain both classes")
    if stream_idx.size == 0:
        raise DataError("nothing left to stream after the pretraining split")

    pre_params = dict(params)
    model = _pretrain_model(
        Dataset(ds.Y[:, pre_idx], ds.labels[pre_idx], ds.feature_names), pre_params
    )
    coding = _coding(params)
    warm_X = batch_code(model.D, ds.Y[:, pre_idx], coding)
    state = init_state(
        model, ds.Y[:, pre_idx], warm_X,
        phi=float(params["phi"]),
        lambda_policy=_lambda_policy(params),
        coding=coding,
    )

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
    return _write_result(
        out_dir, "toddler", params,
        {"stream": rep.as_dict(), "n_pretrain": int(n_pre)}, t0,
    )


def _write_labels(out_dir: Path, labels):
    with open(out_dir / "labels.txt", "w") as f:
        f.writelines(f"{int(v)}\n" for v in labels)


def _filter_metrics(ds: Dataset, labels, trace) -> dict:
    metrics = {"n_flagged": int(np.sum(labels)), "iterations": len(trace.records)}
    if ds.labels is not None:
        metrics["confusion"] = confusion(ds.labels, labels).as_dict()
    return metrics


def run_addl(params: dict, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    ds = _load_dataset(params)
    cfg = ADDLConfig(
        global_iterations=int(params.get("global_iterations", 10)),
        per_stage=_stage_dl(params),
        coding=_coding(params),
    )
    labels, trace = addl_run(ds.Y, cfg, truth=ds.labels)
    _write_labels(out_dir, labels)
    trace.to_csv(out_dir / "trace.csv")
    return _write_result(out_dir, "addl", params, _filter_metrics(ds, labels, trace), t0)


def run_popularity(params: dict, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    ds = _load_dataset(params)
    n_anom = params.get("n_anomalies")
    if n_anom is None:
        if ds.labels is None:
            raise ConfigError("n_anomalies is required when the dataset has no labels")
        n_anom = int(np.sum(ds.labels == 1))
    cfg = PopularityConfig(
        n_anomalies=int(n_anom),
        per_stage=_stage_dl(params),
        coding=_coding(params),
        max_iterations=int(params.get("max_iterations", 100)),
        literal_set_builder=bool(params.get("literal_set_builder", False)),
    )
    labels, trace = popularity_filter_run(ds.Y, cfg, truth=ds.labels)
    _write_labels(out_dir, labels)
    trace.to_csv(out_dir / "trace.csv")
    return _write_result(out_dir, "popularity", params, _filter_metrics(ds, labels, trace), t0)


def run_synth(params: dict, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    if not params.get("synth"):
        raise ConfigError("synth experiment needs 'synth' parameters")
    ds = synth_generate(SynthConfig(**params["synth"]))
    save_csv(ds, out_dir / "dataset.csv")
    metrics = {"n_samples": ds.n_samples, "n_features": ds.n_features,
               "n_anomalies": int(np.sum(ds.labels))}
    return _write_result(out_dir, "synth", params, metrics, t0)


def run_eval(params: dict, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    ds = _load_dataset(params)
    if ds.labels is None:
        raise DataError("evaluation needs ground-truth labels in the dataset")
    pred_path = params.get("predictions")
    if not pred_path:
        raise ConfigError("evaluation needs a 'predictions' file (one 0/1 per line)")
    preds = []
    try:
        with open(pred_path) as f:
            for k, line in enumerate(f, start=1):
                text = line.strip()
                if text not in ("0", "1", ""):
                    raise DataError(f"{pred_path}: line {k} is {text!r}, not 0 or 1")
                if text:
                    preds.append(int(text))
    except OSError as e:
        raise DataError(f"cannot read {pred_path}: {e.strerror}") from None
    rep = confusion(ds.labels, preds)
    return _write_result(out_dir, "eval", params, rep.as_dict(), t0)


RUNNERS = {
    "pretrain": run_pretrain,
    "toddler": run_toddler,
    "addl": run_addl,
    "popularity": run_popularity,
    "synth": run_synth,
    "eval": run_eval,
}


def run_experiment(method: str, params: dict, out_dir) -> dict:
    if method not in RUNNERS:
        raise ConfigError(f"unknown method {method!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return RUNNERS[method](merged_params(params), out_dir)
