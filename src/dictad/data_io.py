"""Dataset ingestion, normalization, class-ratio subsampling and a
planted-anomaly synthetic generator.

The credit-card schema keeps the 29 features V1..V28 + Amount, drops Time
and reads Class as the {0,1} anomaly label. Samples are stored as columns
of Y (features x samples).
"""

from __future__ import annotations

import csv
import io
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
    repeated = [h for k, h in enumerate(header) if h in header[:k]]
    if repeated:
        raise DataError(f"{path}: column {repeated[0]!r} appears more than once in the header")
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


# save_csv formats this many rows per write; blocks of 4,096 rows (5 MB of
# slots at 29 features) ran ~1.6x slower on a 2-CPU host
_SAVE_ROWS = 1024
_U64 = np.uint64
# 5^k for k = 0..20 in 32-bit limbs: 1e-4 <= |x| < 1e17 needs 10^k with
# k = 16 - X for the decimal exponent X in -4..16
_POW5_HI = (5 ** np.arange(21, dtype=_U64)) >> _U64(32)
_POW5_LO = (5 ** np.arange(21, dtype=_U64)) & _U64(0xFFFF_FFFF)
_HEAD, _DOT = 10_000, 10_001


def _group_tables():
    """The 4-byte words "0000".."9999", then ",-0." (_HEAD) and "." (_DOT),
    the words of the 11-word value slot below; and the trailing decimal
    zeros of each 4-digit group, 4 for 0000."""
    g = np.arange(10_000, dtype=np.int16)
    digits = g[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10 + 48
    words = np.concatenate([digits.astype(np.uint8),
                            np.frombuffer(b",-0..\0\0\0", dtype=np.uint8).reshape(2, 4)])
    trailing = np.select([g % 10**j == 0 for j in (4, 3, 2, 1)], [4, 3, 2, 1])
    return words.view(np.uint32).ravel(), trailing.astype(np.int8)


_WORDS, _TRAILING = _group_tables()


def _slot_keep():
    """The kept bytes of a value slot, one row per (X + 4, z, sign), then
    the rows of 0 and -0: z is the index of the last nonzero digit of the
    17 digits d0..d16. The slot holds ',' '-' '0' '.' at 0..3, the five
    digit groups at 4..23 (d0 at 7, its three leading zeros making up
    "0.000" with 2..3), '.' at 24 and d1..d16 at 28..43: '%.17g' prints
    d0..dX '.' d(X+1)..dz for X >= 0 and "0." then -X-1 zeros and d0..dz
    for X < 0."""
    X, z, neg = (a.reshape(-1, 1) for a in np.meshgrid(
        np.arange(-4, 17), np.arange(17), [0, 1], indexing="ij"))
    c = np.arange(44)
    keep = (c == 0) | (c == 1) & (neg == 1)
    keep |= (c >= 2) & (c <= 2 - X) & (X < 0)
    keep |= (c >= 7) & (c <= 23) & (c - 7 <= np.where(X < 0, z, X))
    keep |= (c == 24) & (X >= 0) & (z > X)
    keep |= (c >= 28) & (X >= 0) & (c - 27 > X) & (c - 27 <= z)
    zero = (c == 0) | (c == 1) & np.array([[False], [True]]) | (c == 2)
    return np.concatenate([keep, zero]).view(np.uint32)


_KEEP = _slot_keep()


def _scaled(m, e, k):
    """floor(m 2^e 10^k) and its round-half-even value, exact in uint64:
    m (< 2^53) times 5^k is a 128-bit product in 32-bit limbs, shifted
    right by -(e + k)."""
    t = e + k
    # an integer lane (t >= 0) is shifted left one place further, so that
    # every shift below is by 1..63
    m = m << np.maximum(t + 1, 0).astype(_U64)
    s = np.maximum(-t, 1).astype(_U64)
    mh, ml = m >> _U64(32), m & _U64(0xFFFF_FFFF)
    ph, pl = _POW5_HI[k], _POW5_LO[k]
    mid = mh * pl + ml * ph
    low = mid << _U64(32)
    lo = ml * pl + low
    hi = mh * ph + (mid >> _U64(32)) + (lo < low)  # with the carry out of lo
    q = (hi << (_U64(64) - s)) | (lo >> s)
    rem = lo & ((_U64(1) << s) - _U64(1))
    half = _U64(1) << (s - _U64(1))
    return q, q + ((rem > half) | (rem == half) & (q & _U64(1) == 1))


def _fixed_17g(x):
    """'%.17g' of every value of the 1-D x, all zero or with 1e-4 <= |x| <
    1e17, as 44-byte slots (a leading ',') and the mask of their kept bytes."""
    zero = x == 0
    a = np.where(zero, 1.0, np.abs(x))
    mant, exp = np.frexp(a)
    m = (mant * 2.0**53).astype(_U64)  # |x| = m 2^e
    e = exp.astype(np.int64) - 53
    X = np.clip(np.floor(np.log10(a)).astype(np.int64), -4, 16)
    q, d = _scaled(m, e, 16 - X)
    # log10 can be off by one next to a power of ten. d stays below 10^17:
    # the largest double below each power of ten from 1e-3 to 1e17 lies
    # over 8 units of the 17th digit below it, so none rounds up to 10^17
    lo, hi = _U64(10**16), _U64(10**17)
    wrong = np.flatnonzero((q < lo) | (q >= hi))
    while wrong.size:
        X[wrong] += np.where(q[wrong] < lo, -1, 1)
        q[wrong], d[wrong] = _scaled(m[wrong], e[wrong], 16 - X[wrong])
        wrong = wrong[(q[wrong] < lo) | (q[wrong] >= hi)]
    # a slot's 11 words, filled word by word and transposed to one slot a row
    words = np.empty((11, x.size), dtype=np.uint32)
    words[0] = _WORDS[_HEAD]
    words[6] = _WORDS[_DOT]
    d = d.astype(np.int64)
    tz, zeros = 0, True
    for j in range(4, 0, -1):
        q = d // 10_000
        g = d - q * 10_000
        d = q
        words[1 + j] = words[6 + j] = _WORDS[g]
        tz = tz + zeros * _TRAILING[g]
        zeros = zeros & (g == 0)
    words[1] = _WORDS[d]
    # _KEEP's rows: (X + 4, z, sign) for X in -4..16 and z in 0..16, then 0 and -0
    key = np.where(zero, 21 * 17, (X + 4) * 17 + 16 - tz) * 2 + np.signbit(x)
    return np.ascontiguousarray(words.T).view(np.uint8), np.take(_KEEP, key, axis=0).view(bool)


def _csv_lines(x, ends):
    """The CSV lines of the rows of x, each ending in its bytes of ends."""
    v = x.reshape(-1)
    inside = (np.abs(v) >= 1e-4) & (np.abs(v) < 1e17) | (v == 0)
    slots, keep = _fixed_17g(np.where(inside, v, 1.0))
    other = np.flatnonzero(~inside)
    if other.size:
        # left-justified in 24 bytes, the length of -2.2250738585072014e-308
        text = (b"%-24.17g" * other.size) % tuple(v[other].tolist())
        text = np.frombuffer(text, dtype=np.uint8).reshape(other.size, 24)
        slots[other, 1:25] = text
        keep[other, 1:] = False
        keep[other, 1:25] = text != ord(" ")
    ends = ends.view(np.uint8).reshape(len(x), -1)
    lines = np.concatenate([slots.reshape(len(x), -1), ends], axis=1)
    kept = np.concatenate([keep.reshape(len(x), -1), ends != 0], axis=1)
    kept[:, 0] = lines[:, 0] != ord(",")  # a line's first value or label has no comma before it
    return lines[kept].tobytes()


def save_csv(dataset: Dataset, path):
    """Export a dataset in the same dialect, adding a Class column when
    labels exist. Every float is written as '%.17g' (17 significant digits,
    so text I/O round-trips exactly), every label as '%d', with csv.writer's
    CRLF line ends. Zero and the values in 1e-4 <= |x| < 1e17 are formatted
    by numpy in blocks of rows. Python formats the others: the tiny and huge
    values that '%.17g' writes in exponent notation, and non-finite ones."""
    labels = dataset.labels
    header = list(dataset.feature_names) + (["Class"] if labels is not None else [])
    text = io.StringIO()
    csv.writer(text).writerow(header)
    with open(path, "wb") as f:
        f.write(text.getvalue().encode())
        for start in range(0, dataset.n_samples, _SAVE_ROWS):
            x = np.ascontiguousarray(dataset.Y[:, start:start + _SAVE_ROWS].T, dtype=np.float64)
            if labels is None:
                ends = [b"\r\n"] * len(x)
            else:
                ends = [b",%d\r\n" % c for c in np.asarray(labels[start:start + len(x)]).tolist()]
            f.write(_csv_lines(x, np.array(ends)))


def normalize(dataset: Dataset) -> Dataset:
    """Feature-wise z-scoring: mean 0, sample standard deviation 1
    (N-1 divisor). Constant features map to zeros with a warning; a feature
    whose standard deviation is not finite (its variance overflows) raises
    DataError."""
    if dataset.n_samples < 2:
        raise DataError("normalization needs at least 2 samples")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = dataset.Y.mean(axis=1, keepdims=True)
        sigma = dataset.Y.std(axis=1, ddof=1, keepdims=True)
    huge = np.flatnonzero(~np.isfinite(sigma.ravel()))
    if huge.size:
        raise DataError("standard deviation not finite (variance overflow) for features "
                        f"{[dataset.feature_names[i] for i in huge]}")
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
