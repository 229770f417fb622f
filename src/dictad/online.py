"""Online dictionary and classifier updates (RLS + Tikhonov-anchored step).

The recursive least-squares dictionary update keeps the Gram matrix
G = sum phi^(t-i) x_i x_i^T and its inverse, both rank-one updated per
sample. A full online step codes the sample, classifies it with the
pre-update classifier, Tikhonov-updates W and A toward the estimated
indicators, then applies the rank-one dictionary update. Every sample
updates the model; there is no confidence gating. Atoms are not
renormalized (that would invalidate G), so nothing anchors their scale: on
long streams the atom norms grow by orders of magnitude while the codes, G
and the gram-norm lambdas shrink to match. Forgetting also decays the ridge
that keeps G invertible, and the diagonal entry of an atom the stream stops
using, until Ginv overflows; so every 100 updates the RLS step restores the
ridge and recomputes Ginv exactly, which also clears Sherman-Morrison drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# The LAPACK gufunc behind np.linalg.svd(M, compute_uv=False); its wrapper's
# checks cost about a quarter of the call on the n x n Grams of the stream.
from numpy.linalg._umath_linalg import svd as _svd

from .errors import DataError, NumericalError
from .sparse_coding import CodingConfig, Dictionary, SparseCode, SparseCodeMatrix, omp
from .supervised import DiscriminativeModel, classify, load_model_file, save_model_file

# Sherman-Morrison drift grows about 170x per 100 updates at phi = 0.95, so
# this keeps ||Ginv G - I||_F far below 1e-6*n at any point.
_RIDGE_EVERY = 100

LAMBDA_POLICIES = ("gram-norm", "model-norms", "fixed")


@dataclass(frozen=True)
class LambdaPolicy:
    """Regularization-weight policy: spectral norm of G, spectral norms of
    the current W and A, or the fixed constants lambda1 and lambda2."""

    kind: str  # one of LAMBDA_POLICIES
    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        if self.kind not in LAMBDA_POLICIES:
            raise DataError(f"unknown lambda policy {self.kind!r}")


@dataclass
class OnlineState:
    model: DiscriminativeModel
    G: np.ndarray
    Ginv: np.ndarray
    phi: float
    lambda_policy: LambdaPolicy
    samples_seen: int
    coding: CodingConfig


@dataclass
class ToddlerOutcome:
    predicted_class: int
    scores: np.ndarray
    code: SparseCode
    lambda1: float
    lambda2: float
    reconstruction_error: float


def _svd_nonconvergence(err, flag):
    raise NumericalError("spectral norm: SVD did not converge")


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value: LAPACK's SVD gufunc behind np.linalg.svd,
    called directly under that function's own error state, so the bits of
    np.linalg.norm(M, 2). Non-finite entries raise NumericalError before
    LAPACK sees them: given inf, LAPACK prints a DLASCL error to stderr and
    returns NaN."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:  # the gufunc would take a stack and return one row per matrix
        raise NumericalError(f"spectral norm: {M.ndim}-dimensional array given, "
                             "a matrix is needed")
    if M.size == 0:
        return 0.0
    if not np.isfinite(M).all():
        raise NumericalError("spectral norm of a matrix with non-finite entries")
    with np.errstate(call=_svd_nonconvergence, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return float(_svd(M, signature="d->d")[0])


def _ridge(G: np.ndarray) -> float:
    """Conditioning ridge for G: 1e-8 times its mean diagonal entry."""
    return 1e-8 * np.trace(G) / G.shape[0]


def init_state(
    model: DiscriminativeModel,
    warmup_Y: np.ndarray,
    warmup_X: SparseCodeMatrix,
    phi: float = 0.95,
    lambda_policy: LambdaPolicy = LambdaPolicy("gram-norm"),
    *,
    coding: CodingConfig,
) -> OnlineState:
    """Build the online state from pretraining codes: G = X X^T plus a small
    ridge (1e-8 times its mean diagonal) for conditioning, Ginv its exact
    inverse. The ridge stays in G for the whole stream, so at phi = 1 RLS
    solves the ridged least-squares problem, not the plain one. The state
    owns a copy of the model, so streaming never changes the caller's
    pretrained model."""
    if warmup_X.n_columns == 0:
        raise DataError("empty warmup: G is undefined")
    if warmup_X.dim != model.D.n:
        raise DataError("warmup codes inconsistent with the model dictionary")
    if not (0.0 < phi <= 1.0):
        raise DataError("forgetting factor must lie in (0, 1]")
    Xd = warmup_X.to_dense()
    n = model.D.n
    G = Xd @ Xd.T
    G += _ridge(G) * np.eye(n)
    try:
        Ginv = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        raise NumericalError("warmup Gram matrix is singular despite ridge") from None
    drift = np.linalg.norm(Ginv @ G - np.eye(n), "fro")
    if drift > 1e-6 * n:
        raise NumericalError(
            f"warmup Gram matrix is ill-conditioned (cond ~ {np.linalg.cond(G):.3g})"
        )
    model = DiscriminativeModel(Dictionary(model.D.atoms.copy()), model.W.copy(),
                                model.A.copy(), model.class_of_atom.copy())
    return OnlineState(model, G, Ginv, phi, lambda_policy, warmup_X.n_columns, coding)


def rls_update(state: OnlineState, y: np.ndarray, x: SparseCode) -> float:
    """Rank-one recursive least-squares dictionary update with forgetting:
    D absorbs the new sample, G <- phi G + x x^T and Ginv follows by
    Sherman-Morrison. Every 100 updates the ridge removed by forgetting is
    added back to G and Ginv is recomputed exactly; a non-finite G, Ginv or
    D at that point raises NumericalError. Updates state in place and
    returns the a-priori error ||y - D x|| under the pre-update D."""
    xd = x.to_dense()
    u = (state.Ginv @ xd) / state.phi
    denom = 1.0 + float(xd @ u)
    if denom <= 0.0:
        raise NumericalError("nonpositive RLS gain denominator: corrupted online state")
    alpha = 1.0 / denom
    r = np.asarray(y, dtype=float) - state.model.D.atoms @ xd
    state.model.D.atoms += alpha * (r[:, None] * u)
    state.G *= state.phi
    state.G += xd[:, None] * xd
    state.Ginv /= state.phi
    state.Ginv -= alpha * (u[:, None] * u)
    state.samples_seen += 1
    if state.samples_seen % _RIDGE_EVERY == 0:
        n = state.G.shape[0]
        state.G += (1.0 - state.phi**_RIDGE_EVERY) * _ridge(state.G) * np.eye(n)
        try:
            state.Ginv = np.linalg.inv(state.G)
        except np.linalg.LinAlgError:
            raise NumericalError("online Gram matrix became singular") from None
        if not all(np.all(np.isfinite(M)) for M in (state.G, state.Ginv, state.model.D.atoms)):
            raise NumericalError(
                f"online state became non-finite after {state.samples_seen} samples"
            )
    return math.sqrt(r.dot(r))  # np.linalg.norm's arithmetic on a vector


def lambda_select(state: OnlineState):
    """Regularization weights per the configured policy."""
    p = state.lambda_policy
    if p.kind == "gram-norm":
        lam = spectral_norm(state.G)
        return lam, lam
    if p.kind == "model-norms":
        return spectral_norm(state.model.W), spectral_norm(state.model.A)
    return p.lambda1, p.lambda2


def tikhonov_update(M0: np.ndarray, target: np.ndarray, x: SparseCode, lam: float) -> np.ndarray:
    """Closed-form minimizer of ||target - M x||^2 + lam ||M - M0||_F^2:
    a rank-one correction of the anchor M0."""
    if lam <= 0:
        raise NumericalError("Tikhonov weight must be positive")
    xd = x.to_dense()
    resid = np.asarray(target, dtype=float) - M0 @ xd
    return M0 + resid[:, None] * xd / (lam + float(xd @ xd))


def toddler_step(state: OnlineState, y: np.ndarray):
    """One full online step: code, classify with the pre-update model,
    Tikhonov-update W then A toward the estimated indicators, rank-one
    update D. Returns (state, outcome)."""
    x = omp(state.model.D, y, state.coding)
    pred, scores = classify(state.model.W, x)
    h_hat = (np.arange(state.model.n_classes) == pred).astype(float)
    q_hat = (state.model.class_of_atom == pred).astype(float)
    lam1, lam2 = lambda_select(state)
    state.model.W = tikhonov_update(state.model.W, h_hat, x, lam1)
    state.model.A = tikhonov_update(state.model.A, q_hat, x, lam2)
    err = rls_update(state, y, x)
    return state, ToddlerOutcome(pred, scores, x, lam1, lam2, err)


def save_state(path, state: OnlineState):
    """Checkpoint the full online state (bit-exact round trip, versioned)."""
    save_model_file(
        path,
        state.model,
        G=state.G,
        Ginv=state.Ginv,
        phi=np.float64(state.phi),
        policy_kind=np.array(state.lambda_policy.kind),
        policy_lambda1=np.float64(state.lambda_policy.lambda1),
        policy_lambda2=np.float64(state.lambda_policy.lambda2),
        samples_seen=np.int64(state.samples_seen),
        coding_s=np.int64(state.coding.s),
        coding_residual_tol=np.float64(state.coding.residual_tol),
    )


def load_state(path) -> OnlineState:
    model, z = load_model_file(path, "state", (
        "G", "Ginv", "phi", "policy_kind", "policy_lambda1", "policy_lambda2", "samples_seen",
        "coding_s", "coding_residual_tol"))
    policy = LambdaPolicy(
        str(z["policy_kind"]), float(z["policy_lambda1"]), float(z["policy_lambda2"])
    )
    return OnlineState(model, z["G"], z["Ginv"], float(z["phi"]), policy, int(z["samples_seen"]),
                       CodingConfig(int(z["coding_s"]), float(z["coding_residual_tol"])))
