"""Unsupervised iterative filters.

Both filters maintain a shrinking candidate-anomaly set over the samples.
The error-threshold filter (AD-DL) grows a concatenated dictionary, one
freshly trained stage per global iteration, and keeps as candidates the
samples whose reconstruction error exceeds the mean error frozen after the
first iteration. The popularity filter retrains from scratch each
iteration and keeps the samples whose codes touch at least one rare atom
(popularity <= the assumed anomaly count), stopping once the candidate set
is small enough or stops shrinking.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .dictionary_learning import DLConfig, train
from .evaluation import confusion
from .sparse_coding import (
    CodingConfig,
    Dictionary,
    atom_popularity,
    batch_code,
    representation_errors,
)


@dataclass
class TraceRecord:
    iteration: int
    card: int
    fp: int | None
    fn: int | None
    mean_err: float


@dataclass
class FilterTrace:
    records: list[TraceRecord] = field(default_factory=list)

    def append(self, iteration, active, truth, mean_err, n_total):
        fp = fn = None
        if truth is not None:
            rep = confusion(truth, _labels(active, n_total))
            fp, fn = rep.fp, rep.fn
        self.records.append(TraceRecord(iteration, int(active.size), fp, fn, float(mean_err)))

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["iter", "card_A", "fp", "fn", "mean_err"])
            for r in self.records:
                w.writerow([r.iteration, r.card, r.fp, r.fn, repr(r.mean_err)])


@dataclass(frozen=True)
class ADDLConfig:
    global_iterations: int
    per_stage: DLConfig  # its iterations = DL rounds per stage, n_atoms = atoms per stage
    coding: CodingConfig

    def __post_init__(self):
        if self.global_iterations < 1:
            raise DataError("global_iterations must be >= 1")


@dataclass(frozen=True)
class PopularityConfig:
    n_anomalies: int
    per_stage: DLConfig
    coding: CodingConfig
    max_iterations: int = 100

    def __post_init__(self):
        if self.n_anomalies < 1:
            raise DataError("n_anomalies must be >= 1")
        if self.max_iterations < 1:
            raise DataError("max_iterations must be >= 1")


def _checked_truth(truth, N: int):
    truth = None if truth is None else np.asarray(truth, dtype=int)
    if truth is not None and truth.shape != (N,):
        raise DataError("ground-truth labels must have one entry per sample")
    return truth


def _train_stage(Y: np.ndarray, per_stage: DLConfig, iteration: int) -> Dictionary:
    # seeded deterministically from (per_stage.seed, iteration)
    seed = int(np.random.SeedSequence([per_stage.seed, iteration]).generate_state(1)[0])
    return train(Y, replace(per_stage, seed=seed)).dictionary


def _labels(active: np.ndarray, N: int) -> np.ndarray:
    labels = np.zeros(N, dtype=int)
    labels[active] = 1
    return labels


def addl_run(Y: np.ndarray, cfg: ADDLConfig, truth=None):
    """Error-threshold filter over a growing concatenated dictionary.

    Each global iteration trains a fresh stage dictionary on the current
    candidate set, concatenates it, codes all N samples against the
    accumulated dictionary and recomputes all N errors. The mean error is
    frozen after iteration 1; candidates are the samples with error
    strictly above it. Returns ({0,1} labels, trace)."""
    Y = np.asarray(Y, dtype=float)
    N = Y.shape[1]
    truth = _checked_truth(truth, N)
    active = np.arange(N)
    acc_atoms = None
    e_mean = None
    trace = FilterTrace()
    for it in range(cfg.global_iterations):
        if active.size == 0:
            break
        stage = _train_stage(Y[:, active], cfg.per_stage, it).atoms
        acc_atoms = stage if acc_atoms is None else np.hstack([acc_atoms, stage])
        D = Dictionary(acc_atoms)
        X = batch_code(D, Y, cfg.coding)
        e = representation_errors(D, Y, X)
        if it == 0:
            e_mean = float(np.mean(e))
        active = np.flatnonzero(e > e_mean)
        trace.append(it + 1, active, truth, np.mean(e), N)
    return _labels(active, N), trace


def popularity_filter_run(Y: np.ndarray, cfg: PopularityConfig, truth=None):
    """Atom-popularity filter with a fresh dictionary per iteration.

    A candidate is kept only if its support touches a rare atom
    (popularity <= n_anomalies); signals represented exclusively by popular
    atoms are released as normal. Stops when the candidate set is
    <= n_anomalies, stops shrinking, or max_iterations is hit."""
    Y = np.asarray(Y, dtype=float)
    N = Y.shape[1]
    if cfg.n_anomalies >= N:
        raise DataError(f"n_anomalies {cfg.n_anomalies} must be < sample count {N}")
    if cfg.coding.s > cfg.per_stage.n_atoms:
        raise DataError("coding sparsity exceeds the stage dictionary size")
    truth = _checked_truth(truth, N)
    active = np.arange(N)
    trace = FilterTrace()
    for it in range(cfg.max_iterations):
        size_before = active.size
        D = _train_stage(Y[:, active], cfg.per_stage, it)
        X = batch_code(D, Y[:, active], cfg.coding)
        errs = representation_errors(D, Y[:, active], X)
        p = atom_popularity(X)
        rare = p <= cfg.n_anomalies
        active = active[np.any(rare[X.supports] & X.occupied(), axis=1)]
        trace.append(it + 1, active, truth, float(np.mean(errs)), N)
        if active.size <= cfg.n_anomalies or active.size == size_before:
            break
    return _labels(active, N), trace
