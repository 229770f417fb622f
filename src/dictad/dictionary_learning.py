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
    norms = np.linalg.norm(Y, axis=0)
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


def objective(D: Dictionary, Y: np.ndarray, X: SparseCodeMatrix) -> float:
    """||Y - DX||_F (square root of the minimized quantity)."""
    Y = np.asarray(Y, dtype=float)
    if Y.shape[0] != D.m or Y.shape[1] != X.n_columns:
        raise DataError(f"dimension mismatch: Y {Y.shape} vs D {D.atoms.shape}, N={X.n_columns}")
    return float(np.linalg.norm(residuals(D, Y, X)))


def _sign_fix(d: np.ndarray) -> np.ndarray:
    """Keep the first nonzero component nonnegative (reproducibility)."""
    nz = np.flatnonzero(d)
    if nz.size and d[nz[0]] < 0:
        return -d
    return d


def atom_update_pass(D: Dictionary, Y: np.ndarray, X: SparseCodeMatrix):
    """AK-SVD sweep: for each used atom j, one rank-one power-iteration step
    on the residual restricted to the signals using j. Supports stay fixed;
    coefficient values on them are re-solved. Unused atoms are skipped."""
    A = D.atoms.copy()
    values = X.values.copy()
    R = residuals(D, Y, X)
    nonzero = X.occupied() & (values != 0)
    for j in range(A.shape[1]):
        used, at = np.nonzero(nonzero & (X.supports == j))
        if used.size == 0:
            continue
        xrow = values[used, at]
        E = R[used] + np.outer(xrow, A[:, j])
        g = xrow @ E
        gnorm = np.linalg.norm(g)
        if gnorm > 0:
            A[:, j] = _sign_fix(g / gnorm)
        xnew = E @ A[:, j]
        values[used, at] = xnew
        R[used] = E - np.outer(xnew, A[:, j])
    return Dictionary(A), SparseCodeMatrix.from_arrays(X.supports, values, X.nnz, X.dim)


def _replace_dead_atoms(D: Dictionary, Y: np.ndarray, X: SparseCodeMatrix) -> Dictionary:
    """Swap zero-popularity atoms for the worst-represented signals
    (normalized, distinct signals per atom)."""
    dead = np.flatnonzero(atom_popularity(X) == 0)
    if dead.size == 0:
        return D
    errs = representation_errors(D, Y, X)
    worst = np.argsort(-errs, kind="stable")
    A = D.atoms.copy()
    k = 0
    for j in dead:
        while k < worst.size and np.linalg.norm(Y[:, worst[k]]) == 0:
            k += 1
        if k >= worst.size:
            break
        y = Y[:, worst[k]]
        A[:, j] = y / np.linalg.norm(y)
        k += 1
    return Dictionary(A)


def train(Y: np.ndarray, cfg: DLConfig) -> DLResult:
    """Alternate batch coding and AK-SVD atom updates for cfg.iterations
    rounds from a seeded data-column initialization. The objective trace
    records ||Y - DX||_F after each iteration.

    Greedy recoding is not monotone on its own: a fresh OMP support can fit
    a column worse than the previous pass's re-solved coefficients. Each
    column therefore keeps whichever of the two codes has the smaller
    residual, which makes the whole trace non-increasing."""
    Y = np.asarray(Y, dtype=float)
    D = init_dictionary(Y, cfg.n_atoms, cfg.seed)
    trace = np.empty(cfg.iterations)
    X = None
    for it in range(cfg.iterations):
        X_new = batch_code(D, Y, cfg.coding)
        if X is not None:
            new = representation_errors(D, Y, X_new) <= representation_errors(D, Y, X)
            X = SparseCodeMatrix.from_arrays(
                np.where(new[:, None], X_new.supports, X.supports),
                np.where(new[:, None], X_new.values, X.values),
                np.where(new, X_new.nnz, X.nnz),
                X.dim,
            )
        else:
            X = X_new
        D, X = atom_update_pass(D, Y, X)
        trace[it] = objective(D, Y, X)
        D = _replace_dead_atoms(D, Y, X)
    unused = [int(j) for j in np.flatnonzero(atom_popularity(X) == 0)]
    return DLResult(D, X, trace, unused)
