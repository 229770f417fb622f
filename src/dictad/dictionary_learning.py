"""Batch dictionary training by AK-SVD alternation.

One training iteration = OMP coding of all signals, then a single
power-iteration-style update of every used atom with supports held fixed.
Dead atoms are replaced by the currently worst-represented signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .sparse_coding import (
    CodingConfig,
    Dictionary,
    SparseCodeMatrix,
    atom_popularity,
    batch_code,
    representation_errors,
    residuals,
)


@dataclass(frozen=True)
class DLConfig:
    n_atoms: int
    iterations: int
    coding: CodingConfig
    seed: int = 0

    def __post_init__(self):
        if self.n_atoms < self.coding.s:
            raise DataError(f"n_atoms {self.n_atoms} < sparsity {self.coding.s}")
        if self.iterations < 1:
            raise DataError("iterations must be >= 1")


@dataclass
class DLResult:
    dictionary: Dictionary
    codes: SparseCodeMatrix
    objective_trace: np.ndarray
    unused_atoms: list[int] = field(default_factory=list)


def _select_init_columns(Y: np.ndarray, n_atoms: int, rng: np.random.Generator):
    """Pick distinct nonzero-column indices for initialization; returns the
    chosen indices (fewer than n_atoms when Y is short on columns)."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(Y, axis=0)
    if not np.isfinite(norms).all():
        raise DataError(f"the norm of {np.count_nonzero(~np.isfinite(norms))} sample(s) "
                        "overflows; rescale the features (--normalize)")
    nonzero = np.flatnonzero(norms > 0)
    if nonzero.size == 0:
        raise DataError("cannot initialize a dictionary from all-zero data")
    k = min(n_atoms, nonzero.size)
    return rng.choice(nonzero, size=k, replace=False)


def init_dictionary(Y: np.ndarray, n_atoms: int, seed: int) -> Dictionary:
    """Seeded initialization from distinct nonzero data columns, padded with
    unit-norm Gaussian atoms when there are not enough columns."""
    Y = np.asarray(Y, dtype=float)
    rng = np.random.default_rng(seed)
    chosen = _select_init_columns(Y, n_atoms, rng)
    atoms = Y[:, chosen] / np.linalg.norm(Y[:, chosen], axis=0)
    if chosen.size < n_atoms:
        extra = rng.standard_normal((Y.shape[0], n_atoms - chosen.size))
        extra /= np.linalg.norm(extra, axis=0)
        atoms = np.hstack([atoms, extra])
    return Dictionary(atoms)


def objective(D: Dictionary, Y: np.ndarray, X: SparseCodeMatrix,
              R: np.ndarray | None = None) -> float:
    """||Y - DX||_F (square root of the minimized quantity); R, when given,
    is residuals(D, Y, X)."""
    Y = np.asarray(Y, dtype=float)
    if Y.shape[0] != D.m or Y.shape[1] != X.n_columns:
        raise DataError(f"dimension mismatch: Y {Y.shape} vs D {D.atoms.shape}, N={X.n_columns}")
    return float(np.linalg.norm(residuals(D, Y, X) if R is None else R))


def _sign_fix(d: np.ndarray) -> np.ndarray:
    """Keep the first nonzero component nonnegative (reproducibility)."""
    nz = np.flatnonzero(d)
    if nz.size and d[nz[0]] < 0:
        return -d
    return d


def atom_update_pass(D: Dictionary, Y: np.ndarray, X: SparseCodeMatrix,
                     R: np.ndarray | None = None):
    """AK-SVD sweep: for each used atom j, one rank-one power-iteration step
    on the residual restricted to the signals using j. Supports stay fixed;
    coefficient values on them are re-solved. Unused atoms are skipped.
    R, when given, is residuals(D, Y, X) and is updated in place. One stable
    argsort groups each atom's nonzero slots in row order."""
    if R is None:
        R = residuals(D, Y, X)
    A = D.atoms.copy()  # C order, whatever D's: BLAS's bits depend on the layout
    values = X.values.copy()
    flat = values.reshape(-1)
    slots = np.flatnonzero(X.occupied() & (values != 0))
    atoms = X.supports.reshape(-1)[slots]
    ends = np.cumsum(np.bincount(atoms, minlength=A.shape[1])).tolist()
    # keys of 16 bits or fewer take numpy's radix sort: ~8x faster than int64's
    slots = slots[np.argsort(atoms.astype(np.min_scalar_type(A.shape[1] - 1)), kind="stable")]
    del atoms
    for j, (lo, hi) in enumerate(zip([0] + ends, ends)):
        if lo == hi:
            continue
        group = slots[lo:hi]
        used = group // values.shape[1]
        xrow = flat[group]
        E = R[used]  # updated in place: one temporary of its size fewer at the memory peak
        E += np.outer(xrow, A[:, j])
        with np.errstate(over="ignore"):
            g = xrow @ E
            gnorm = np.linalg.norm(g)
        if not np.isfinite(gnorm):
            raise DataError(f"the update of atom {j} overflows; "
                            "rescale the features (--normalize)")
        if gnorm > 0:
            A[:, j] = _sign_fix(g / gnorm)
        xnew = E @ A[:, j]
        flat[group] = xnew
        E -= np.outer(xnew, A[:, j])
        R[used] = E
    return Dictionary(A), SparseCodeMatrix(X.supports, values, X.nnz, X.dim)


def _replace_dead_atoms(A: np.ndarray, Y: np.ndarray, X: SparseCodeMatrix, errs: np.ndarray):
    """Swap, in place, the zero-popularity atoms of A for the signals worst
    represented by their errors errs (normalized, distinct signals per atom)."""
    dead = np.flatnonzero(atom_popularity(X) == 0)
    if dead.size == 0:
        return
    worst = np.argsort(-errs, kind="stable")
    k = 0
    for j in dead:
        while k < worst.size and np.linalg.norm(Y[:, worst[k]]) == 0:
            k += 1
        if k >= worst.size:
            break
        y = Y[:, worst[k]]
        A[:, j] = y / np.linalg.norm(y)
        k += 1


def train(Y: np.ndarray, cfg: DLConfig) -> DLResult:
    """Alternate batch coding and AK-SVD atom updates for cfg.iterations
    rounds from a seeded data-column initialization. The objective trace
    records ||Y - DX||_F after each iteration.

    Greedy recoding is not monotone on its own: a fresh OMP support can fit
    a column worse than the previous pass's re-solved coefficients. Each
    column therefore keeps whichever of the two codes has the smaller
    residual, which makes the whole trace non-increasing. The new codes'
    residual serves that test and starts the atom update; the post-update
    one gives the trace, the dead-atom ranking and the next test's errors."""
    Y = np.asarray(Y, dtype=float)
    D = init_dictionary(Y, cfg.n_atoms, cfg.seed)
    trace = np.empty(cfg.iterations)
    X = errs = None
    for it in range(cfg.iterations):
        X_new = batch_code(D, Y, cfg.coding)
        R = residuals(D, Y, X_new)
        if X is not None:
            new = representation_errors(D, Y, X_new, R) <= errs
            X = SparseCodeMatrix(
                np.where(new[:, None], X_new.supports, X.supports),
                np.where(new[:, None], X_new.values, X.values),
                np.where(new, X_new.nnz, X.nnz),
                X.dim,
            )
            old = np.flatnonzero(~new)
            R[old] = residuals(D, Y[:, old], SparseCodeMatrix(
                X.supports[old], X.values[old], X.nnz[old], X.dim))
        else:
            X = X_new
        D, X = atom_update_pass(D, Y, X, R)
        del R  # at most one N x m residual at a time
        R = residuals(D, Y, X)
        trace[it] = objective(D, Y, X, R)
        errs = representation_errors(D, Y, X, R)
        del R
        # a dead atom appears, if at all, only in padding slots of value 0: errs still holds
        _replace_dead_atoms(D.atoms, Y, X, errs)
    unused = [int(j) for j in np.flatnonzero(atom_popularity(X) == 0)]
    return DLResult(D, X, trace, unused)
