"""Dataset ingestion, normalization, class-ratio subsampling and a
planted-anomaly synthetic generator.

The credit-card schema keeps the 29 features V1..V28 + Amount, drops Time
and reads Class as the {0,1} anomaly label. Samples are stored as columns
of Y (features x samples).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

ULB_FEATURES = [f"V{i}" for i in range(1, 29)] + ["Amount"]
_SIGNS = np.array([-1.0, 1.0])
# synth_generate draws and multiplies in blocks of about this many elements
_BLOCK_ELEMENTS = 2**20
# synth_generate replays Generator.choice's Floyd sampling, which numpy uses
# up to 10,000 atoms (above that, for s > atoms // 50, a partial shuffle)
MAX_SYNTH_ATOMS = 10_000


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
        if self.n_anomaly < 0:
            raise DataError("n_anomaly must be >= 0")
        if max(self.normal_atoms, self.anomaly_atoms) > MAX_SYNTH_ATOMS:
            raise DataError(f"a synthetic dictionary has at most {MAX_SYNTH_ATOMS} atoms")
        if not 0 <= self.noise_sigma < np.inf:
            raise DataError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma!r}")
        if self.n_anomaly > self.n_normal:
            raise DataError("n_anomaly must not exceed n_normal")


def _parse_cell(text, row, col):
    # float() syntax as np.loadtxt reads it: no digit separators, ASCII only
    try:
        if "_" in text or not text.isascii():
            raise ValueError
        return float(text)
    except ValueError:
        raise DataError(f"non-numeric cell {text!r} at row {row}, column {col!r}") from None


def _raise_row_error(path, header, lidx, reason):
    """Re-read the body with csv.reader and raise a DataError naming the
    first row that is ragged, holds a non-numeric cell or a label other
    than 0/1; `reason` is the message if no row shows the fault."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        next(reader)
        for rnum, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise DataError(
                    f"{path}: row {rnum} has {len(rec)} fields, the header has {len(header)}"
                )
            vals = [_parse_cell(text, rnum, col) for text, col in zip(rec, header)]
            if lidx is not None and vals[lidx] not in (0.0, 1.0):
                raise DataError(f"{path}: label {rec[lidx]!r} at row {rnum} is not 0 or 1")
    raise DataError(f"{path}: {reason}")


def load_csv(path, schema: str = "ulb", label_column: str | None = None) -> Dataset:
    """Load a headered UTF-8 CSV. schema 'ulb' selects V1..V28 + Amount with
    the Class label; schema 'generic' takes every non-label column as a
    feature (labels absent when label_column is None). Every cell must be a
    number; cells may be quoted with '"' and blank lines are skipped."""
    if schema not in ("ulb", "generic"):
        raise DataError(f"unknown CSV schema {schema!r}")
    try:
        f = open(path, newline="", encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from None
    try:
        with f:
            return _read_csv(f, path, schema, label_column)
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None


def _read_csv(f, path, schema: str, label_column: str | None) -> Dataset:
    try:
        header = [h.strip().strip('"') for h in next(csv.reader(f))]
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
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            M = np.loadtxt(f, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError as e:
        _raise_row_error(path, header, lidx, e)
    if M.shape[0] == 0:
        raise DataError(f"{path}: no data rows")
    if M.shape[1] != len(header) or (lidx is not None and not np.isin(M[:, lidx], (0, 1)).all()):
        _raise_row_error(path, header, lidx, "rows do not match the header")
    # M is C-ordered N x m, so Y is m x N with strides (8, 8m): normalize's sums follow that layout
    Y = M.take(fidx, axis=1).T
    if not np.all(np.isfinite(Y)):
        j, i = np.argwhere(~np.isfinite(Y))[0]
        raise DataError(f"{path}: non-finite value in data row {i + 1}, column {features[j]!r}")
    return Dataset(
        Y,
        M[:, lidx].astype(int) if lidx is not None else None,
        list(features),
        {"source": str(path), "schema": schema},
    )


_SAVE_CHUNK = 4096  # rows formatted per write; bounds the text held at once


def save_csv(dataset: Dataset, path):
    """Export a dataset in the same dialect, adding a Class column when
    labels exist. Floats are written at 17 significant digits so text I/O
    round-trips exactly."""
    labels = dataset.labels
    header = list(dataset.feature_names)
    cells = ["%.17g"] * dataset.n_features
    if labels is not None:
        header.append("Class")
        cells.append("%d")
    fmt = ",".join(cells) + "\r\n"  # csv.writer's line end; no number needs quoting
    with open(path, "w", newline="") as f:
        csv.writer(f).writerow(header)
        for start in range(0, dataset.n_samples, _SAVE_CHUNK):
            stop = start + _SAVE_CHUNK
            rows = dataset.Y[:, start:stop].T.tolist()
            if labels is not None:
                rows = [(*r, c) for r, c in zip(rows, np.asarray(labels[start:stop]).tolist())]
            f.write("".join([fmt % tuple(r) for r in rows]))


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
    Y = dataset.Y - mu
    Y /= sigma
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
        # One sample's draws are those of choice(n_atoms, s, replace=False),
        # uniform(0.5, 1.5, s) and integers(0, 2, s), in order. All are
        # bounded draws, listed here by their inclusive upper bounds: Floyd's
        # picks, the shuffle of the picks, raw 64-bit words, then the signs.
        # One integers call per block of samples so makes the same draws
        # from the stream as the per-sample calls.
        highs = np.concatenate([
            np.arange(n_atoms - s, n_atoms, dtype=np.uint64),
            np.arange(s - 1, 0, -1, dtype=np.uint64),
            np.full(s, 2**64 - 1, dtype=np.uint64),
            np.ones(0 if cfg.positive_codes else s, dtype=np.uint64),
        ])
        sup = np.empty((count, s), dtype=np.intp)
        vals = np.empty((count, s))
        block = max(1, _BLOCK_ELEMENTS // (n_atoms + 5 * s))
        for b0 in range(0, count, block):
            B = min(block, count - b0)
            w = rng.integers(0, np.tile(highs, B), dtype=np.uint64, endpoint=True).reshape(B, -1)
            rows = np.arange(B)
            picks = sup[b0:b0 + B]
            picks[:] = w[:, :s]
            seen = np.zeros((B, n_atoms), dtype=bool)
            for t in range(s):  # Floyd: a value picked before gives way to the bound
                picks[seen[rows, picks[:, t]], t] = n_atoms - s + t
                seen[rows, picks[:, t]] = True
            for t, i in enumerate(range(s - 1, 0, -1)):  # swap i with a draw in [0, i]
                k = w[:, s + t]
                picked = picks[:, i].copy()
                picks[:, i] = picks[rows, k]
                picks[rows, k] = picked
            # uniform's low + (high - low) * double, the double being a
            # word's top 53 bits scaled to [0, 1)
            v = vals[b0:b0 + B]
            v[:] = 0.5 + 1.0 * ((w[:, 2 * s - 1:3 * s - 1] >> 11) * 2.0**-53)
            if not cfg.positive_codes:
                v *= _SIGNS[w[:, 3 * s - 1:]]
        codes[sup, np.arange(count)[:, None]] = vals
        # each item is F-ordered (m, s) like D[:, sup], so matmul makes the
        # same gemv call per sample as D[:, sup] @ vals
        step = max(1, _BLOCK_ELEMENTS // (cfg.m * s))
        for c in range(0, count, step):
            items = D.T[sup[c:c + step]].transpose(0, 2, 1)
            Y[:, c:c + step] = (items @ vals[c:c + step, :, None])[:, :, 0].T
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
