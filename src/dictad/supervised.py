"""LC-KSVD offline pretraining.

The discriminative objective (reconstruction + linear classifier + label
consistency) is solved as a plain dictionary-learning problem on the
stacked matrix [Y; sqrt(alpha) H; sqrt(beta) Q]. The learned stacked
dictionary is split by rows and renormalized so the reconstruction block
meets the unit-atom constraint, pushing the scale into W and A.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .dictionary_learning import DLConfig, train
from .sparse_coding import CodingConfig, Dictionary, SparseCode

# the layout of model.npz and of the online checkpoint, which extends it
MODEL_FORMAT_VERSION = 1
# the dimensions of the arrays of these files that are not scalars
_NDIM = {"D": 2, "W": 2, "A": 2, "class_of_atom": 1, "G": 2}


@dataclass
class DiscriminativeModel:
    D: Dictionary
    W: np.ndarray  # c x n
    A: np.ndarray  # n x n
    class_of_atom: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class PretrainConfig:
    alpha: float
    beta: float
    atoms_per_class: int
    iterations: int  # AK-SVD iterations on the stacked problem
    coding: CodingConfig
    seed: int = 0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise DataError("alpha and beta must be nonnegative")
        if self.atoms_per_class < 1:
            raise DataError("atoms_per_class must be >= 1")


def build_indicators(labels: np.ndarray, c: int, atoms_per_class: int):
    """One-hot label matrix H (c x N), binary atom allocation Q (n x N) and
    the class of each of the n = c * atoms_per_class atoms: atoms are
    assigned to classes in contiguous blocks of atoms_per_class."""
    labels = np.asarray(labels, dtype=int)
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise DataError(f"label out of range [0, {c})")
    N = labels.size
    H = np.zeros((c, N))
    H[labels, np.arange(N)] = 1.0
    class_of_atom = np.repeat(np.arange(c), atoms_per_class)
    Q = (class_of_atom[:, None] == labels[None, :]).astype(float)
    return H, Q, class_of_atom


def stack_training(Y, H, Q, alpha: float, beta: float) -> np.ndarray:
    """Vertical concatenation [Y; sqrt(alpha) H; sqrt(beta) Q]."""
    Y, H, Q = (np.asarray(M, dtype=float) for M in (Y, H, Q))
    if not (Y.shape[1] == H.shape[1] == Q.shape[1]):
        raise DataError("Y, H, Q must share the sample count")
    return np.vstack([Y, np.sqrt(alpha) * H, np.sqrt(beta) * Q])


def pretrain(Y: np.ndarray, labels: np.ndarray, cfg: PretrainConfig) -> DiscriminativeModel:
    """Train the stacked problem with c * atoms_per_class atoms and split the
    result into (D, W, A)."""
    Y = np.asarray(Y, dtype=float)
    labels = np.asarray(labels, dtype=int)
    c = int(labels.max()) + 1 if labels.size else 0
    counts = np.bincount(labels, minlength=c)
    if np.any(counts == 0):
        raise DataError(f"class {int(np.argmin(counts))} has no training samples")
    n = c * cfg.atoms_per_class
    if Y.shape[1] < n:
        raise DataError(f"need at least {n} samples for {n} atoms, got {Y.shape[1]}")

    H, Q, class_of_atom = build_indicators(labels, c, cfg.atoms_per_class)
    stacked = stack_training(Y, H, Q, cfg.alpha, cfg.beta)
    result = train(stacked, DLConfig(n, cfg.iterations, cfg.coding, cfg.seed))

    m = Y.shape[0]
    S = result.dictionary.atoms
    Dhat, What, Ahat = S[:m], S[m:m + c], S[m + c:]
    norms = np.linalg.norm(Dhat, axis=0)
    if np.any(norms == 0):
        raise DataError(f"stacked atom {int(np.argmin(norms))} has zero reconstruction block")
    D = Dhat / norms
    W = What / (np.sqrt(cfg.alpha) * norms) if cfg.alpha > 0 else np.zeros_like(What)
    A = Ahat / (np.sqrt(cfg.beta) * norms) if cfg.beta > 0 else np.zeros_like(Ahat)
    return DiscriminativeModel(Dictionary(D), W, A, class_of_atom)


def classify(W: np.ndarray, x: SparseCode):
    """Linear classification of a sparse code: scores = W x, argmax with
    ties broken toward the lowest class id."""
    scores = W[:, x.support] @ x.values
    return int(scores.argmax()), scores


def save_model_file(path, model: DiscriminativeModel, **extra):
    """Write format_version, D, W, A and class_of_atom, then the extra arrays,
    in that order (bit-exact round trip through load_model_file)."""
    np.savez(path, format_version=np.int64(MODEL_FORMAT_VERSION), D=model.D.atoms,
             W=model.W, A=model.A, class_of_atom=model.class_of_atom, **extra)


def load_model_file(path, kind: str, extra: tuple[str, ...]):
    """Inverse of save_model_file: (model, {name: array} of the extra names).
    DataError when path cannot be read, is not an .npz, lacks an array that a
    `kind` file ("model" or "state") holds, holds one of another dimension,
    of values that are not numbers (policy_kind is text) or of a size that
    D's atom count does not fit, has an empty D or W, a NaN or inf in D, W
    or A, a class_of_atom value that is not a row index of W, or another
    format version. D, W and A come back as float64, integer arrays cast,
    float64 ones as stored."""
    try:  # np.load leaks the handle it opens when the zip is truncated
        with open(path, "rb") as f:
            z = np.load(f)
            if not isinstance(z, np.lib.npyio.NpzFile):  # a bare .npy array
                raise ValueError
            arrays = {k: z[k] for k in z.files}
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from None
    except (ValueError, zipfile.BadZipFile):  # e.g. a CSV: numpy refuses it as pickled data
        raise DataError(f"{path} is not a {kind} file (.npz)") from None
    names = ("format_version", "D", "W", "A", "class_of_atom", *extra)
    missing = [k for k in names if k not in arrays]
    if missing:
        raise DataError(f"{path} is not a {kind} file: no {', '.join(missing)}")
    for k in names:
        a, ndim = arrays[k], _NDIM.get(k, 0)
        if a.ndim != ndim:
            raise DataError(f"{path} is not a {kind} file: {k} is {a.ndim}-d, not {ndim}-d")
        if a.dtype.kind not in "iuf" and k != "policy_kind":
            raise DataError(f"{path} is not a {kind} file: {k} holds {a.dtype} values, "
                            "not numbers")
        if k == "format_version" and int(a) != MODEL_FORMAT_VERSION:
            raise DataError(f"unsupported {kind} format version {int(a)}")
    for k in ("D", "W"):  # an empty W is a classifier of no classes
        if arrays[k].size == 0:
            raise DataError(f"{path} is not a {kind} file: {k} is empty")
    n = arrays["D"].shape[1]
    for k in (k for k in names[2:] if k in _NDIM):
        want = {"W": (len(arrays["W"]), n), "class_of_atom": (n,)}.get(k, (n, n))
        if arrays[k].shape != want:
            raise DataError(f"{path} is not a {kind} file: {k} has shape "
                            f"{arrays[k].shape}, D has {n} atoms")
    for k in ("D", "W", "A"):  # a stream on such a model predicts what the NaN decides
        if not np.all(np.isfinite(arrays[k])):
            raise DataError(f"{path} is not a {kind} file: {k} holds non-finite values")
    classes = arrays["class_of_atom"]
    stray = classes[~np.isin(classes, np.arange(len(arrays["W"])))]
    if stray.size:
        raise DataError(f"{path} is not a {kind} file: class_of_atom holds {stray[0]}, "
                        f"not a class of W (0..{len(arrays['W']) - 1})")
    model = DiscriminativeModel(Dictionary(arrays["D"]), np.asarray(arrays["W"], dtype=float),
                                np.asarray(arrays["A"], dtype=float),
                                classes.astype(int))
    return model, {k: arrays[k] for k in extra}


def file_sparsity(path, kind: str, key: str, value, atoms: int) -> int:
    """The array `key` of a `kind` file as an OMP sparsity; DataError unless
    it is an integer in 1..atoms."""
    s = float(value)
    if not (1 <= s <= atoms and s.is_integer()):
        raise DataError(f"{path} is not a {kind} file: {key} is {value}, "
                        f"not a sparsity in 1..{atoms}")
    return int(s)


def save_model(path, model: DiscriminativeModel, sparsity: int):
    """Serialize a pretrained model (bit-exact round trip, versioned)."""
    save_model_file(path, model, sparsity=np.int64(sparsity))


def load_model(path):
    """Inverse of save_model; returns (model, sparsity). DataError as in
    load_model_file, and for a sparsity that is not an integer in 1..atoms."""
    model, z = load_model_file(path, "model", ("sparsity",))
    return model, file_sparsity(path, "model", "sparsity", z["sparsity"], model.D.n)
