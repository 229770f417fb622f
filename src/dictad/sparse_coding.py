"""Sparse coding by Batch-OMP, array-backed sparse codes and code statistics.

Signals are columns of an m x N matrix; the dictionary holds n column atoms.
N codes are stored as padded (N x s) support and value arrays, never as the
dense n x N matrix, whose n grows under dictionary concatenation in the
unsupervised filters. One kernel, Batch-OMP (Rubinstein, Zibulevsky & Elad,
2008), codes every batch; omp() does the same arithmetic on one column,
bit-identical to a batch_code column, without the batch bookkeeping. Every
per-column operation in the kernel is independent of the other columns, so a
signal codes to the same bits alone or inside any batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# The LAPACK gufunc behind np.linalg.solve for one right-hand side; both OMP
# paths call it directly through _solve, since the wrapper's checks and
# conversions cost more than the solve itself on the k x k support Grams.
from numpy.linalg._umath_linalg import solve1 as _solve1

from .errors import CodingError


@dataclass
class Dictionary:
    """m x n matrix of column atoms."""

    atoms: np.ndarray

    def __post_init__(self):
        self.atoms = np.asarray(self.atoms, dtype=float)
        if self.atoms.ndim != 2 or self.atoms.shape[0] < 1 or self.atoms.shape[1] < 1:
            raise CodingError("dictionary must be a nonempty 2-d matrix")

    @property
    def m(self) -> int:
        return self.atoms.shape[0]

    @property
    def n(self) -> int:
        return self.atoms.shape[1]


@dataclass
class SparseCode:
    """Support/value representation of one coefficient vector of length dim."""

    support: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=int)
        self.values = np.asarray(self.values, dtype=float)
        if self.support.shape != self.values.shape:
            raise CodingError("support and values must have equal length")
        if len(np.unique(self.support)) != self.support.size:
            raise CodingError("duplicate indices in sparse support")
        if self.support.size and (self.support.min() < 0 or self.support.max() >= self.dim):
            raise CodingError("sparse support index out of range")

    @property
    def nnz(self) -> int:
        return self.support.size

    def to_dense(self) -> np.ndarray:
        x = np.zeros(self.dim)
        x[self.support] = self.values
        return x


def _trusted_code(support: np.ndarray, values: np.ndarray, dim: int) -> SparseCode:
    """A SparseCode view of kernel output, which needs no validation."""
    code = object.__new__(SparseCode)
    code.support, code.values, code.dim = support, values, dim
    return code


class SparseCodeMatrix:
    """N sparse columns of dimension dim: column i uses atoms supports[i, :nnz[i]]
    with coefficients values[i, :nnz[i]]. The padding slots after nnz[i] hold
    atom 0 with value 0, so a sum over all slots needs no mask."""

    def __init__(self, columns: list[SparseCode]):
        dims = {c.dim for c in columns}
        if len(dims) > 1:
            raise CodingError(f"inconsistent code dimensions: {sorted(dims)}")
        width = max((c.nnz for c in columns), default=0)
        self.supports = np.zeros((len(columns), width), dtype=int)
        self.values = np.zeros((len(columns), width))
        for i, c in enumerate(columns):
            self.supports[i, :c.nnz] = c.support
            self.values[i, :c.nnz] = c.values
        self.nnz = np.array([c.nnz for c in columns], dtype=int)
        self.dim = dims.pop() if dims else 0

    @classmethod
    def from_arrays(cls, supports, values, nnz, dim: int) -> "SparseCodeMatrix":
        """Wrap padded (supports, values, nnz) arrays without copying."""
        X = object.__new__(cls)
        X.supports, X.values, X.nnz, X.dim = supports, values, nnz, dim
        return X

    @property
    def n_columns(self) -> int:
        return self.nnz.size

    @property
    def columns(self) -> list[SparseCode]:
        return [
            _trusted_code(self.supports[i, :k], self.values[i, :k], self.dim)
            for i, k in enumerate(self.nnz.tolist())
        ]

    def occupied(self) -> np.ndarray:
        """Boolean mask of the slots in use, shaped like supports."""
        return np.arange(self.supports.shape[1]) < self.nnz[:, None]

    def to_dense(self) -> np.ndarray:
        X = np.zeros((self.dim, self.n_columns))
        used = self.occupied()
        X[self.supports[used], np.nonzero(used)[0]] = self.values[used]
        return X

    @classmethod
    def from_dense(cls, X: np.ndarray) -> "SparseCodeMatrix":
        X = np.asarray(X, dtype=float)
        return cls([SparseCode(np.flatnonzero(x), x[x != 0], X.shape[0]) for x in X.T])


@dataclass(frozen=True)
class CodingConfig:
    """OMP parameters: target sparsity and residual early-exit threshold.

    residual_tol is an absolute norm; the effective threshold is
    max(residual_tol, 1e-9 * ||y||) so exactly-representable signals
    terminate early instead of chasing rounding noise.
    """

    s: int
    residual_tol: float = 0.0

    def __post_init__(self):
        if self.s < 1:
            raise CodingError("sparsity must be >= 1")
        if self.residual_tol < 0:
            raise CodingError("residual_tol must be nonnegative")


# Signals coded in one lockstep pass; bounds the kernel's (chunk x s x n)
# temporaries whatever the number of signals.
_CHUNK = 256


def _weighted_rows(base: np.ndarray, rows: np.ndarray, supports: np.ndarray,
                   coef: np.ndarray) -> np.ndarray:
    """base[i] - sum_j coef[i, j] * rows[supports[i, j]], one product per i."""
    return base - np.matmul(coef[:, None, :], rows[supports])[:, 0, :]


def _check_shapes(A: np.ndarray, signal_dim: int, cfg: CodingConfig):
    if signal_dim != A.shape[0]:
        raise CodingError(f"signal dimension {signal_dim} != dictionary dimension {A.shape[0]}")
    if cfg.s > A.shape[1]:
        raise CodingError(f"sparsity {cfg.s} exceeds atom count {A.shape[1]}")


def _raise_linalg_error(err, flag):
    raise np.linalg.LinAlgError


def _solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """gram^-1 rhs for one system or a stack of them, under np.linalg.solve's
    own error state: only a singular matrix raises LinAlgError."""
    with np.errstate(call=_raise_linalg_error, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _solve1(gram, rhs, signature="dd->d")


def _lockstep(A, G, Y, cfg, first, supports, values, nnz):
    """Code the columns of Y (the first is column `first` of the batch) into
    the given output rows. Each step picks, for every live column, the atom
    with the largest |d_j^T r| (ties to the lowest index) from the correlations
    D^T y - G[:, S] x_S and re-solves least squares on the grown support. A
    column stops at s atoms or once ||y - D_S x_S|| drops below its threshold.
    """
    Yt = np.ascontiguousarray(Y.T)
    alpha0 = np.matmul(Yt[:, None, :], A)[:, 0, :]  # one product per signal
    ynorm = np.linalg.norm(Yt, axis=1)
    tol = np.maximum(cfg.residual_tol, 1e-9 * ynorm)
    live = np.flatnonzero(ynorm > tol)
    a0, y, tol = alpha0[live], Yt[live], tol[live]
    S = np.zeros((live.size, cfg.s), dtype=int)
    coef = np.zeros((live.size, cfg.s))
    for k in range(cfg.s):
        if live.size == 0:
            return
        rows = np.arange(live.size)[:, None]
        corr = np.abs(_weighted_rows(a0, G, S[:, :k], coef[:, :k]))
        corr[rows, S[:, :k]] = -1.0
        S[:, k] = np.argmax(corr, axis=1)
        Sk = S[:, :k + 1]
        gram = G[Sk[:, :, None], Sk[:, None, :]]
        try:
            coef[:, :k + 1] = _solve(gram, a0[rows, Sk])
        except np.linalg.LinAlgError:
            i = int(np.argmin(np.abs(np.linalg.det(gram))))
            raise CodingError(
                f"column {first + live[i]}: singular support sub-matrix on atoms "
                f"{Sk[i].tolist()} (duplicate or collinear atoms)"
            ) from None
        if k + 1 < cfg.s:
            r = _weighted_rows(y, A.T, Sk, coef[:, :k + 1])
            done = np.sqrt((r * r).sum(axis=1)) <= tol
            if done.any():
                out = live[done]
                supports[out], values[out], nnz[out] = S[done], coef[done], k + 1
                keep = ~done
                live, a0, y, tol, S, coef = (v[keep] for v in (live, a0, y, tol, S, coef))
    supports[live], values[live], nnz[live] = S, coef, cfg.s


def omp(D: Dictionary, y: np.ndarray, cfg: CodingConfig) -> SparseCode:
    """Orthogonal Matching Pursuit for one signal: the same arithmetic as the
    Batch-OMP kernel on one column, bit-identical to a batch_code column."""
    A = D.atoms
    n = A.shape[1]
    # contiguous like the kernel's signal rows: a strided y (a Y[:, i] view)
    # takes another summation path in matmul and can change the last bit
    y = np.ascontiguousarray(y, dtype=float).reshape(-1)
    _check_shapes(A, y.shape[0], cfg)
    G = A.T @ A
    a0 = y @ A
    ynorm = np.sqrt((y * y).sum())
    tol = max(cfg.residual_tol, 1e-9 * ynorm)
    S = np.zeros(cfg.s, dtype=int)
    if not ynorm > tol:
        return _trusted_code(S[:0], np.zeros(0), n)
    rows, coef = G[:0], np.zeros(0)  # rows = G[S[:k]]
    for k in range(cfg.s):
        corr = np.abs(a0 - coef @ rows)
        corr[S[:k]] = -1.0
        S[k] = corr.argmax()
        Sk = S[:k + 1]
        rows = G.take(Sk, axis=0)
        try:
            coef = _solve(rows.take(Sk, axis=1), a0.take(Sk))
        except np.linalg.LinAlgError:
            raise CodingError(
                f"singular support sub-matrix on atoms {Sk.tolist()} "
                "(duplicate or collinear atoms)"
            ) from None
        if k + 1 < cfg.s:
            r = y - coef @ A.T.take(Sk, axis=0)
            if np.sqrt((r * r).sum()) <= tol:
                return _trusted_code(Sk, coef, n)
    return _trusted_code(S, coef, n)


def batch_code(D: Dictionary, Y: np.ndarray, cfg: CodingConfig) -> SparseCodeMatrix:
    """Batch-OMP on every column of Y, _CHUNK columns in lockstep at a time,
    with G = D^T D computed once; column i's code equals omp(D, Y[:, i], cfg)."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] < 1:
        raise CodingError("batch input must be an m x N matrix with N >= 1")
    A = D.atoms
    _check_shapes(A, Y.shape[0], cfg)
    N = Y.shape[1]
    G = A.T @ A
    supports = np.zeros((N, cfg.s), dtype=int)
    values = np.zeros((N, cfg.s))
    nnz = np.zeros(N, dtype=int)
    for lo in range(0, N, _CHUNK):
        c = slice(lo, lo + _CHUNK)
        _lockstep(A, G, Y[:, c], cfg, lo, supports[c], values[c], nnz[c])
    return SparseCodeMatrix.from_arrays(supports, values, nnz, A.shape[1])


def residuals(D: Dictionary, Y: np.ndarray, X: SparseCodeMatrix) -> np.ndarray:
    """Per-signal residuals y_i - D x_i as the rows of an N x m array."""
    Y = np.asarray(Y, dtype=float)
    if Y.shape[0] != D.m or Y.shape[1] != X.n_columns or (X.n_columns and X.dim != D.n):
        raise CodingError(
            f"dimension mismatch: Y {Y.shape}, D {D.atoms.shape}, X {X.dim}x{X.n_columns}"
        )
    chunks = [slice(lo, lo + _CHUNK) for lo in range(0, max(X.n_columns, 1), _CHUNK)]
    return np.concatenate([_weighted_rows(Y.T[c], D.atoms.T, X.supports[c], X.values[c])
                           for c in chunks])


def representation_errors(D: Dictionary, Y: np.ndarray, X: SparseCodeMatrix) -> np.ndarray:
    """Per-signal residual norms e_i = ||y_i - D x_i||_2."""
    return np.linalg.norm(residuals(D, Y, X), axis=1)


def atom_popularity(X: SparseCodeMatrix) -> np.ndarray:
    """p_j = number of columns whose support contains atom j."""
    return np.bincount(X.supports[X.occupied()], minlength=X.dim)
