"""Dataset ingestion, normalization, class-ratio subsampling and a
planted-anomaly synthetic generator.

The credit-card schema keeps the 29 features V1..V28 + Amount, drops Time
and reads Class as the {0,1} anomaly label. Samples are stored as columns
of Y (features x samples).
"""

from __future__ import annotations

import csv
import warnings
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

ULB_FEATURES = [f"V{i}" for i in range(1, 29)] + ["Amount"]


@dataclass
class Dataset:
    Y: np.ndarray  # m x N
    labels: np.ndarray | None  # length N, {0,1}, 1 = anomaly
    feature_names: list[str]
    provenance: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.Y.shape[1]

    @property
    def n_features(self) -> int:
        return self.Y.shape[0]

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != self.Y.shape[1]:
            raise DataError("labels length does not match sample count")


@dataclass(frozen=True)
class SynthConfig:
    n_normal: int
    n_anomaly: int
    m: int
    normal_atoms: int
    anomaly_atoms: int
    s_gen: int
    noise_sigma: float
    disjoint_support: bool = True
    seed: int = 0
    positive_codes: bool = False  # sign-consistent coefficients, linearly classifiable codes

    def __post_init__(self):
        if min(self.n_normal, self.m, self.normal_atoms, self.anomaly_atoms, self.s_gen) < 1:
            raise DataError("all synthetic counts must be >= 1")
        if self.n_anomaly > self.n_normal:
            raise DataError("n_anomaly must not exceed n_normal")


def _parse_cell(text, row, col):
    try:
        return float(text)
    except ValueError:
        raise DataError(f"non-numeric cell {text!r} at row {row}, column {col!r}") from None


def load_csv(path, schema: str = "ulb", label_column: str | None = None) -> Dataset:
    """Load a headered CSV. schema 'ulb' selects V1..V28 + Amount with the
    Class label; schema 'generic' takes every non-label column as a feature
    (labels absent when label_column is None)."""
    if schema not in ("ulb", "generic"):
        raise DataError(f"unknown CSV schema {schema!r}")
    try:
        f = open(path, newline="")
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from None
    with f:
        reader = csv.reader(f)
        try:
            header = [h.strip().strip('"') for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if schema == "ulb":
            features = ULB_FEATURES
            label_column = "Class"
        else:
            features = [h for h in header if h != label_column]
        missing = [c for c in features if c not in header]
        if label_column is not None and label_column not in header:
            missing.append(label_column)
        if missing:
            raise DataError(f"{path}: missing expected columns {missing}")
        fidx = [header.index(c) for c in features]
        lidx = header.index(label_column) if label_column is not None else None
        rows, labels = array("d"), []
        for rnum, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise DataError(
                    f"{path}: row {rnum} has {len(rec)} fields, the header has {len(header)}"
                )
            rows.extend(_parse_cell(rec[i], rnum, header[i]) for i in fidx)
            if lidx is not None:
                label = _parse_cell(rec[lidx], rnum, label_column)
                if label not in (0.0, 1.0):
                    raise DataError(f"{path}: label {rec[lidx]!r} at row {rnum} is not 0 or 1")
                labels.append(int(label))
    if not rows:
        raise DataError(f"{path}: no data rows")
    Y = np.array(rows).reshape(-1, len(features)).T
    if not np.all(np.isfinite(Y)):
        j, i = np.argwhere(~np.isfinite(Y))[0]
        raise DataError(f"{path}: non-finite value in data row {i + 1}, column {features[j]!r}")
    return Dataset(
        Y,
        np.array(labels, dtype=int) if lidx is not None else None,
        list(features),
        {"source": str(path), "schema": schema},
    )


def save_csv(dataset: Dataset, path):
    """Export a dataset in the same dialect, adding a Class column when
    labels exist. Floats are written at 17 significant digits so text I/O
    round-trips exactly."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        header = list(dataset.feature_names)
        if dataset.labels is not None:
            header.append("Class")
        w.writerow(header)
        for i in range(dataset.n_samples):
            row = [f"{v:.17g}" for v in dataset.Y[:, i]]
            if dataset.labels is not None:
                row.append(str(int(dataset.labels[i])))
            w.writerow(row)


def normalize(dataset: Dataset) -> Dataset:
    """Feature-wise z-scoring: mean 0, sample standard deviation 1
    (N-1 divisor). Constant features map to zeros with a warning."""
    if dataset.n_samples < 2:
        raise DataError("normalization needs at least 2 samples")
    mu = dataset.Y.mean(axis=1, keepdims=True)
    sigma = dataset.Y.std(axis=1, ddof=1, keepdims=True)
    flat = np.flatnonzero(sigma.ravel() == 0.0)
    if flat.size:
        warnings.warn(
            f"constant features mapped to zero: {[dataset.feature_names[i] for i in flat]}"
        )
        sigma[flat] = 1.0
    Y = (dataset.Y - mu) / sigma
    Y[flat, :] = 0.0
    return Dataset(Y, dataset.labels, dataset.feature_names,
                   {**dataset.provenance, "normalized": True})


def subsample(dataset: Dataset, ratio: int, seed: int) -> Dataset:
    """Keep all anomalies plus a seeded uniform draw of ratio * (#anomalies)
    normals (all normals when fewer exist); output order is shuffled by the
    same seed."""
    if dataset.labels is None:
        raise DataError("subsampling needs labels")
    anom = np.flatnonzero(dataset.labels == 1)
    normal = np.flatnonzero(dataset.labels == 0)
    if anom.size == 0:
        raise DataError("subsampling needs at least one anomaly")
    rng = np.random.default_rng(seed)
    n_keep = min(ratio * anom.size, normal.size)
    kept_normal = rng.choice(normal, size=n_keep, replace=False)
    idx = np.concatenate([anom, kept_normal])
    rng.shuffle(idx)
    return Dataset(
        dataset.Y[:, idx],
        dataset.labels[idx],
        dataset.feature_names,
        {**dataset.provenance, "subsample_ratio": ratio, "subsample_seed": seed},
    )


def synth_generate(cfg: SynthConfig) -> Dataset:
    """Planted-dictionary generator: normals are sparse combinations of a
    seeded unit-atom dictionary plus Gaussian noise; anomalies come from a
    second dictionary, orthogonalized against the first when
    disjoint_support is set. Generative parameters land in provenance for
    test oracles."""
    rng = np.random.default_rng(cfg.seed)
    if cfg.disjoint_support and cfg.m < cfg.normal_atoms + cfg.anomaly_atoms:
        raise DataError(
            f"m={cfg.m} too small to orthogonalize {cfg.normal_atoms}+{cfg.anomaly_atoms} atoms"
        )
    Dn = rng.standard_normal((cfg.m, cfg.normal_atoms))
    Dn /= np.linalg.norm(Dn, axis=0)
    Da = rng.standard_normal((cfg.m, cfg.anomaly_atoms))
    if cfg.disjoint_support:
        # orthogonalize anomaly atoms against the normal atoms (and each other)
        Qn, _ = np.linalg.qr(Dn)
        Da -= Qn @ (Qn.T @ Da)
        Da, _ = np.linalg.qr(Da)
    else:
        Da /= np.linalg.norm(Da, axis=0)

    def draw(D, count):
        n_atoms = D.shape[1]
        s = min(cfg.s_gen, n_atoms)
        Y = np.empty((cfg.m, count))
        codes = np.zeros((n_atoms, count))
        for i in range(count):
            sup = rng.choice(n_atoms, size=s, replace=False)
            vals = rng.uniform(0.5, 1.5, size=s)
            if not cfg.positive_codes:
                vals *= rng.choice([-1.0, 1.0], size=s)
            codes[sup, i] = vals
            Y[:, i] = D[:, sup] @ vals
        Y += cfg.noise_sigma * rng.standard_normal(Y.shape)
        return Y, codes

    Yn, Cn = draw(Dn, cfg.n_normal)
    Ya, Ca = draw(Da, cfg.n_anomaly)
    Y = np.hstack([Yn, Ya])
    labels = np.concatenate([np.zeros(cfg.n_normal, dtype=int), np.ones(cfg.n_anomaly, dtype=int)])
    return Dataset(
        Y,
        labels,
        [f"f{i}" for i in range(cfg.m)],
        {
            "source": "synthetic",
            "config": cfg,
            "normal_dictionary": Dn,
            "anomaly_dictionary": Da,
            "normal_codes": Cn,
            "anomaly_codes": Ca,
        },
    )
