"""Sparse coding by Batch-OMP, array-backed sparse codes and code statistics.

Signals are columns of an m x N matrix; the dictionary holds n column atoms.
N codes are stored as padded (N x s) support and value arrays, never as the
dense n x N matrix, whose n grows under dictionary concatenation in the
unsupervised filters. One kernel, Batch-OMP (Rubinstein, Zibulevsky & Elad,
2008), codes every batch; omp() does the same arithmetic on one column,
bit-identical to a batch_code column, without the batch bookkeeping. Both
grow a Cholesky factor of the support's Gram matrix by one row per step and
solve by substitution, the kernel elementwise across its columns, omp on
Python floats. Every per-column operation in the kernel is independent of
the other columns, so a signal codes to the same bits alone or inside any
batch. A signal stops early once its residual norm is within the threshold.
Neither path forms that residual where a rounding bound on the correlation
it already holds shows the test cannot pass (_exit_bound), so the codes are
those of testing the exact residual at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CodingError, DataError


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

    def __init__(self, supports: np.ndarray, values: np.ndarray, nnz: np.ndarray, dim: int):
        """Wrap padded (supports, values, nnz) arrays without copying."""
        self.supports, self.values, self.nnz, self.dim = supports, values, nnz, dim

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
        """The codes of the columns of X: each column's nonzero atoms in
        ascending order."""
        X = np.asarray(X, dtype=float)
        col, atom = np.nonzero(X.T)
        nnz = np.bincount(col, minlength=X.shape[1])
        slot = np.arange(col.size) - (np.cumsum(nnz) - nnz)[col]
        supports = np.zeros((nnz.size, nnz.max(initial=0)), dtype=int)
        values = np.zeros(supports.shape)
        supports[col, slot], values[col, slot] = atom, X[atom, col]
        return cls(supports, values, nnz, X.shape[0])


@dataclass(frozen=True)
class CodingConfig:
    """OMP parameters: target sparsity and early-exit threshold.

    residual_tol is an absolute norm; the effective threshold is
    max(residual_tol, 1e-9 * ||y||) so exactly-representable signals
    terminate early instead of chasing rounding noise. A code of fewer than s
    atoms stops once its exact residual norm is within the threshold; both
    OMP paths form that residual only where the bound in _exit_bound leaves
    it open.
    """

    s: int
    residual_tol: float = 0.0

    def __post_init__(self):
        if self.s < 1:
            raise CodingError("sparsity must be >= 1")
        if not 0 <= self.residual_tol < math.inf:  # refuses NaN too
            raise CodingError("residual_tol must be finite and nonnegative")


# Signals coded in one lockstep pass; bounds the kernel's (chunk x s x n)
# temporaries whatever the number of signals. Of 256 to 2048, 1024 coded a
# 5,412-signal table fastest, or within 2 %, at 16 to 64 atoms.
_CHUNK = 1024


def _weighted_rows(base: np.ndarray, rows: np.ndarray, supports: np.ndarray,
                   coef: np.ndarray) -> np.ndarray:
    """base[i] - sum_j coef[i, j] * rows[supports[i, j]], one product per i."""
    return base - np.matmul(coef[:, None, :], rows[supports])[:, 0, :]


def _check_shapes(A: np.ndarray, signal_dim: int, cfg: CodingConfig):
    if signal_dim != A.shape[0]:
        raise CodingError(f"signal dimension {signal_dim} != dictionary dimension {A.shape[0]}")
    if cfg.s > A.shape[1]:
        raise CodingError(f"sparsity {cfg.s} exceeds atom count {A.shape[1]}")


# the refusal of a finite signal whose norm is inf: its threshold would be inf
# too, so it would be coded empty
_OVERFLOW = "the signal's norm overflows; rescale the features (--normalize)"


@np.errstate(over="ignore")
def _norm(y: np.ndarray):
    """||y||_2 of a vector, inf without a warning where it overflows."""
    return np.sqrt((y * y).sum())


# row k's pivot d must exceed (k + 1) _PIVOT_TOL G_jj (see _cholesky_row)
_PIVOT_TOL = 4 * 2.0**-52


def _cholesky_row(L, g, gjj):
    """Row k = len(L) of the Cholesky factor L of G[S, S] grown by atom j,
    from g = G[S, j] and gjj = G[j, j]: w with L w = g, and the pivot
    d = gjj - ||w||^2 whose sqrt ends the row. A duplicate of an atom in S
    leaves d at rounding noise of either sign, so the callers refuse
    d <= 4 (k + 1) eps gjj. These helpers take Python floats (omp) or
    arrays with one entry per signal (_lockstep) through the same
    operations in the same order, each sum left to right, so both give the
    same bits."""
    w = []
    for row, b in zip(L, g):
        for r, v in zip(row, w):
            b = b - r * v
        w.append(b / row[-1])
    d = gjj
    for v in w:
        d = d - v * v
    return w, d


def _cholesky_solve(L, z, w, l, b):
    """Ends row w of L with its diagonal l, extends L z = a0[S] by the new
    atom's b = a0_j, and returns x with L^T x = z by back substitution."""
    for r, v in zip(w, z):
        b = b - r * v
    w.append(l)
    L.append(w)
    z.append(b / l)
    x = z[:]
    for i in range(len(L) - 1, -1, -1):
        b = x[i]
        for t in range(i + 1, len(L)):
            b = b - L[t][i] * x[t]
        x[i] = b / L[i][i]
    return x


def _singular(G, Sk, column=""):
    """The refusal of a pivot on the atoms Sk. A G = A^T A with non-finite
    entries makes the pivot fail whatever the atoms' angles: their scale
    overflowed."""
    if not np.isfinite(G).all():
        return CodingError(f"{column}singular support sub-matrix on atoms {Sk}: the atom scale "
                           "overflowed (the atoms' Gram matrix holds non-finite entries)")
    return CodingError(f"{column}singular support sub-matrix on atoms {Sk} "
                       "(duplicate or collinear atoms)")


def _exit_bound(G: np.ndarray, m: int, s: int, ynorm, tol):
    """(base, slope): step k-1's code x can pass the exact exit test only if
    c* <= base + slope * sqrt(k) * ||x||_2. base is a float in omp and holds
    one entry per live column in _lockstep, as ynorm and tol do.

    Both paths test step k-1's code after step k's argmax, which holds
    c* = fl(|a0_j - G[j, S] x|) for an atom j outside S (k < s <= n leaves
    one). In exact arithmetic, |d_j^T r| <= nu ||r|| for r = y - D_S x and
    nu = max ||d_j|| = sqrt(max diag G). Rounding, to first order in
    u = eps / 2, with ||x||_1 <= sqrt(k) ||x||_2:
      - a0_j and G's entries are m-term dot products, G[j, S] x a k-term
        sum: c* <= (1 + u) |d_j^T r| + (m + 1) u nu ||y|| + (m + k + 1) u
        nu^2 ||x||_1;
      - the residual (k-term products, one subtraction) and its norm (the
        squares' sum within m u, then sqrt): ||r|| <= (1 + (m/2 + 3) u)
        fl(||r||) + k u nu ||x||_1;
      - fl(nu) and fl(max diag G) may lie (m/2 + 2) u and m u low, and the
        bound rounds a few times more.
    With gamma = 8 (m + s + 4) u, which covers every factor above with room,
    fl(||r||) <= tol gives c* <= nu ((1 + gamma) tol + 2 gamma (||y|| +
    nu sqrt(k) ||x||_2)). Gradual underflow adds absolute errors: up to
    sqrt((m + 1) 2^-1075) in fl(||r||) and m 2^-1075 in each a0 or G entry,
    which nu 2^-500 covers, and m 2^-1075 |x_i| per G-row term, which the
    nu^2 term covers once max diag G >= 2^-1000; below that the bound is
    NaN. A NaN bound or c*, and a c* that overflowed to inf, take the exact
    test.
    """
    gamma = 8 * (m + s + 4) * 2.0**-53  # a Python float, unlike np.finfo's eps
    gmax = float(G.diagonal().max())
    nu = math.sqrt(gmax) if gmax >= 2.0**-1000 else math.nan
    return nu * ((1 + gamma) * tol + 2 * gamma * ynorm + 2.0**-500), 2 * gamma * gmax


def _lockstep(A, G, Y, cfg, first, supports, values, nnz):
    """Code the columns of Y (the first is column `first` of the batch) into
    the given output rows. Each step picks, for every live column, the atom
    with the largest |d_j^T r| (ties to the lowest index) from the correlations
    D^T y - G[:, S] x_S, adds a row to its Cholesky factor of G[S, S] and
    solves least squares on the grown support. A column stops at s atoms or
    once ||y - D_S x_S|| <= its threshold, tested as in omp: after the next
    step's pick, and only for the columns whose correlation there leaves the
    test open (_exit_bound).
    """
    Yt = np.ascontiguousarray(Y.T)
    with np.errstate(over="ignore"):
        ynorm = np.linalg.norm(Yt, axis=1)
    inf = np.flatnonzero(np.isinf(ynorm))
    overflowed = inf[np.isfinite(Yt[inf]).all(axis=1)]
    if overflowed.size:
        raise DataError(f"column {first + overflowed[0]}: {_OVERFLOW}")
    tol = np.maximum(cfg.residual_tol, 1e-9 * ynorm)
    live = np.flatnonzero(ynorm > tol)
    y, tol = Yt[live], tol[live]
    a0 = np.matmul(y[:, None, :], A)[:, 0, :]  # one product per signal
    with np.errstate(over="ignore"):
        base, slope = _exit_bound(G, A.shape[0], cfg.s, ynorm[live], tol)
    S = np.zeros((live.size, cfg.s), dtype=int)
    coef = np.zeros((live.size, cfg.s))
    L, z = [], []  # L[i][t] and z[i] hold an entry of each live column's factor
    for k in range(cfg.s):
        if live.size == 0:
            return
        rows = np.arange(live.size)
        corr = np.abs(_weighted_rows(a0, G, S[:, :k], coef[:, :k]))
        corr[rows[:, None], S[:, :k]] = -1.0
        j = S[:, k] = np.argmax(corr, axis=1)
        if k:
            cstar = corr[rows, j]
            with np.errstate(over="ignore", invalid="ignore"):
                # ||x||_2 column by column: np.hypot.reduce along rows costs ~4x
                xnorm = np.abs(coef[:, 0])
                for t in range(1, k):
                    xnorm = np.hypot(xnorm, coef[:, t])
                bound = base + slope * math.sqrt(k) * xnorm
            test = np.flatnonzero(~((bound < cstar) & (cstar < np.inf)))
            done = np.zeros(live.size, dtype=bool)
            if test.size:
                r = _weighted_rows(y[test], A.T, S[test, :k], coef[test, :k])
                done[test] = np.sqrt((r * r).sum(axis=1)) <= tol[test]
            if done.any():
                S[done, k] = 0
                out, keep = live[done], ~done
                supports[out], values[out], nnz[out] = S[done], coef[done], k
                live, a0, y, tol, base, S, coef, j = (
                    v[keep] for v in (live, a0, y, tol, base, S, coef, j))
                rows = rows[:live.size]
                L = [[v[keep] for v in row] for row in L]
                z = [v[keep] for v in z]
        gjj = G[j, j]
        with np.errstate(all="ignore"):  # as silent as omp's Python floats
            w, d = _cholesky_row(L, G[S[:, :k].T, j], gjj)
            bad = ~(d > (k + 1) * _PIVOT_TOL * gjj)
            if bad.any():
                i = int(bad.argmax())
                raise _singular(G, S[i, :k + 1].tolist(), f"column {first + live[i]}: ")
            coef[:, :k + 1] = np.stack(_cholesky_solve(L, z, w, np.sqrt(d), a0[rows, j]),
                                       axis=1)
    supports[live], values[live], nnz[live] = S, coef, cfg.s


def omp(D: Dictionary, y: np.ndarray, cfg: CodingConfig) -> SparseCode:
    """Orthogonal Matching Pursuit for one signal: the same arithmetic as the
    Batch-OMP kernel on one column, bit-identical to a batch_code column,
    with the Cholesky factor's entries held as Python floats. A y with a NaN
    or inf codes empty; a finite y whose norm overflows raises DataError."""
    A = D.atoms
    n = A.shape[1]
    # contiguous like the kernel's signal rows: a strided y (a Y[:, i] view)
    # takes another summation path in matmul and can change the last bit
    y = np.ascontiguousarray(y, dtype=float).reshape(-1)
    _check_shapes(A, y.shape[0], cfg)
    ynorm = _norm(y)
    tol = max(cfg.residual_tol, 1e-9 * ynorm)
    S = np.zeros(cfg.s, dtype=int)
    if not ynorm > tol:
        if ynorm == math.inf and np.isfinite(y).all():
            raise DataError(_OVERFLOW)
        return _trusted_code(S[:0], np.zeros(0), n)
    G = A.T @ A
    a0 = y @ A
    base, slope = _exit_bound(G, y.shape[0], cfg.s, float(ynorm), float(tol))
    rows = G[:0]  # rows = G[S[:k]]
    L, z, x = [], [], []
    for k in range(cfg.s):
        if k:
            corr = np.abs(a0 - coef @ rows)
            corr[S[:k]] = -1.0
        else:  # the bits of the kernel's a0 - 0.0 on an empty support
            corr = np.abs(a0)
        j = S[k] = corr.argmax()
        if k and not base + slope * math.sqrt(k) * math.hypot(*x) < corr[j] < math.inf:
            r = y - coef @ A.T.take(S[:k], axis=0)
            if np.sqrt((r * r).sum()) <= tol:
                return _trusted_code(S[:k], coef, n)
        gjj = G.item(j, j)
        w, d = _cholesky_row(L, rows[:, j].tolist(), gjj)
        if not d > (k + 1) * _PIVOT_TOL * gjj:
            raise _singular(G, S[:k + 1].tolist())
        x = _cholesky_solve(L, z, w, math.sqrt(d), a0.item(j))
        coef = np.array(x)
        if k + 1 < cfg.s:  # the next step's correlations need them
            rows = G.take(S[:k + 1], axis=0)
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
    return SparseCodeMatrix(supports, values, nnz, A.shape[1])


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


def representation_errors(D: Dictionary, Y: np.ndarray, X: SparseCodeMatrix,
                          R: np.ndarray | None = None) -> np.ndarray:
    """Per-signal residual norms e_i = ||y_i - D x_i||_2; R, when given, is
    residuals(D, Y, X)."""
    return np.linalg.norm(residuals(D, Y, X) if R is None else R, axis=1)


def atom_popularity(X: SparseCodeMatrix) -> np.ndarray:
    """p_j = number of columns whose support contains atom j."""
    return np.bincount(X.supports[X.occupied()], minlength=X.dim)
