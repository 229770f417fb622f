"""Online dictionary and classifier updates (RLS + Tikhonov-anchored step).

The recursive least-squares dictionary update keeps the Gram matrix
G = sum phi^(t-i) x_i x_i^T, rank-one updated per sample, and solves it for
each update's gain; no inverse of G is kept. A full online step codes the
sample, classifies it with the pre-update classifier, Tikhonov-updates W
and A toward the estimated indicators, then applies the rank-one dictionary
update. Every sample updates the model; there is no confidence gating.
Atoms are not renormalized (that would invalidate G), so nothing anchors
their scale: on long streams the atom norms grow by orders of magnitude
while the codes, G and the gram-norm lambdas shrink to match. Each update
adds back the share of G's ridge that its forgetting took, so the ridge
keeps G invertible at any phi, even for atoms the stream stops using.
A state admits phi and G by one rule, OnlineState's, whether init_state
builds it from a warm-up or load_state reads it from a checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DataError, NumericalError
from .sparse_coding import CodingConfig, Dictionary, SparseCode, SparseCodeMatrix, omp
from .supervised import DiscriminativeModel, classify, load_model_file, save_model_file

# updates between the finiteness checks of G and D
_CHECK_EVERY = 100

LAMBDA_POLICIES = ("gram-norm", "model-norms", "fixed")


@dataclass(frozen=True)
class LambdaPolicy:
    """Regularization-weight policy: spectral norm of G, spectral norms of
    the current W and A, or the fixed constants lambda1 and lambda2, which
    must be finite and positive."""

    kind: str  # one of LAMBDA_POLICIES
    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        if self.kind not in LAMBDA_POLICIES:
            raise DataError(f"unknown lambda policy {self.kind!r}")
        if self.kind == "fixed" and not all(0 < lam < math.inf
                                            for lam in (self.lambda1, self.lambda2)):
            raise DataError("fixed lambda weights must be finite and positive, got "
                            f"{self.lambda1} and {self.lambda2}")


@dataclass
class OnlineState:
    """The stream's model, forgotten Gram matrix G, forgetting factor phi,
    lambda policy, sample count and coding setting. Built, it refuses a phi
    outside (0, 1] (DataError) and a G that is not finite, bitwise
    symmetric and positive definite (NumericalError). The stream then
    updates G in place, and rls_update checks only that it stays finite."""

    model: DiscriminativeModel
    G: np.ndarray
    phi: float
    lambda_policy: LambdaPolicy
    samples_seen: int
    coding: CodingConfig

    def __post_init__(self):
        if not 0.0 < self.phi <= 1.0:  # refuses NaN too
            raise DataError(f"phi is {self.phi}, not in (0, 1]")
        try:
            np.linalg.cholesky(self.G)  # which reads only the lower triangle
            sound = np.isfinite(self.G).all() and self.G.tobytes() == self.G.T.tobytes()
        except np.linalg.LinAlgError:
            sound = False
        if not sound:
            raise NumericalError("G is not symmetric positive definite")

    @property
    def Ginv(self) -> np.ndarray:
        """G^-1, inverted from G when read: the stream itself never forms it."""
        return np.linalg.inv(self.G)


@dataclass
class ToddlerOutcome:
    predicted_class: int
    scores: np.ndarray
    code: SparseCode
    lambda1: float
    lambda2: float
    reconstruction_error: float


def _lapack(gufunc: str, signature: str, error: type, *message: str):
    """A function that calls numpy.linalg._umath_linalg.<gufunc>, the LAPACK
    gufunc behind an np.linalg function, with that function's bits and error
    state but not its checks, which cost more than the call on small matrices.
    The stream calls three: solve1 for the RLS gain, and svd and eigvalsh_lo
    for spectral norms.
    The decorator sets that state per call without building an errstate
    object: over, divide and underflow ignored, and the invalid flag, by
    which a LAPACK failure reaches numpy, raising error(*message). The
    gufunc is looked up at each call, so a test can stand one in."""
    def fail(err, flag):
        raise error(*message)

    @np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")
    def call(*arrays):
        return getattr(_umath_linalg, gufunc)(*arrays, signature=signature)
    return call


# the singular values of a matrix, descending: np.linalg.svd(M, compute_uv=False)
_svd = _lapack("svd", "d->d", NumericalError, "spectral norm: SVD did not converge")
# the eigenvalues of a symmetric matrix, ascending: np.linalg.eigvalsh(M)
_eigvalsh = _lapack("eigvalsh_lo", "d->d", NumericalError,
                    "spectral norm: eigenvalues did not converge")
# the RLS gain G^-1 x: np.linalg.solve(G, x)
_gain = _lapack("solve1", "dd->d", NumericalError, "online Gram matrix became singular")


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value. A square M with the bits of its transpose,
    such as the stream's G, gives its largest |eigenvalue| through
    _eigvalsh, which costs less than an SVD and may differ from it in the
    last bit; any other M goes through _svd, so the bits of
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
    if M.shape[0] == M.shape[1] and M.tobytes() == M.T.tobytes():
        w = _eigvalsh(M)
        return float(max(-w[0], w[-1]))
    return float(_svd(M)[0])


def _ridge(diagonal: np.ndarray) -> float:
    """Conditioning ridge for a Gram matrix G of this diagonal: 1e-8 times
    its mean entry. np.add.reduce gives the bits of G.trace() at less cost,
    which counts as the stream calls it at every update."""
    return 1e-8 * float(np.add.reduce(diagonal)) / len(diagonal)


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
    ridge (1e-8 times its mean diagonal) for conditioning. The ridge stays
    in G for the whole stream, so at phi = 1 RLS solves the ridged
    least-squares problem, not the plain one. A G that overflows raises
    NumericalError; OnlineState refuses phi and any other unsound G. The
    state owns a copy of the model, so streaming never changes the
    caller's pretrained model."""
    if warmup_X.n_columns == 0:
        raise DataError("empty warmup: G is undefined")
    if warmup_X.dim != model.D.n:
        raise DataError("warmup codes inconsistent with the model dictionary")
    if not np.isfinite(warmup_X.values).all():
        raise DataError("warmup codes must be finite")
    Xd = warmup_X.to_dense()
    n = model.D.n
    with np.errstate(over="ignore", invalid="ignore"):  # finite codes whose squares overflow
        G = Xd @ Xd.T
        G += _ridge(G.diagonal()) * np.eye(n)
    if not np.isfinite(G).all():
        raise NumericalError("warmup Gram matrix overflows: the warmup codes are too large")
    model = DiscriminativeModel(Dictionary(model.D.atoms.copy()), model.W.copy(),
                                model.A.copy(), model.class_of_atom.copy())
    return OnlineState(model, G, phi, lambda_policy, warmup_X.n_columns, coding)


def rls_update(state: OnlineState, y: np.ndarray, x: SparseCode) -> float:
    """Rank-one recursive least-squares dictionary update with forgetting:
    G <- phi G + x x^T + (1 - phi) c I, with c the ridge of that G, so
    forgetting does not wear the ridge down. D then absorbs the a-priori
    residual r = y - D x as D += r u^T, with the gain u = G^-1 x solved on
    the new G (a singular G raises NumericalError). A y with a NaN or inf
    raises DataError before anything moves; every 100 updates a non-finite
    G or D raises NumericalError. Updates state in place and returns ||r||."""
    xd = x.to_dense()
    y = np.asarray(y, dtype=float)
    r = y - state.model.D.atoms @ xd
    err = math.sqrt(r.dot(r))  # np.linalg.norm's arithmetic on a vector
    if not err < math.inf and not np.isfinite(y).all():
        raise DataError(f"sample {state.samples_seen + 1} holds a NaN or inf value")
    state.G *= state.phi
    state.G += xd[:, None] * xd
    # numpy hands out G's diagonal as a read-only view, in any layout of G;
    # flagged writeable, it writes through to G
    diagonal = state.G.diagonal()
    diagonal.flags.writeable = True
    diagonal += (1.0 - state.phi) * _ridge(diagonal)
    state.model.D.atoms += r[:, None] * _gain(state.G, xd)
    state.samples_seen += 1
    if state.samples_seen % _CHECK_EVERY == 0:
        if not (np.isfinite(state.G).all() and np.isfinite(state.model.D.atoms).all()):
            raise NumericalError(
                f"online state became non-finite after {state.samples_seen} samples"
            )
    return err


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
    if not lam > 0:  # refuses NaN too
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
    h_hat = np.zeros(state.model.n_classes)
    h_hat[pred] = 1.0
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
        phi=np.float64(state.phi),
        policy_kind=np.array(state.lambda_policy.kind),
        policy_lambda1=np.float64(state.lambda_policy.lambda1),
        policy_lambda2=np.float64(state.lambda_policy.lambda2),
        samples_seen=np.int64(state.samples_seen),
        coding_s=np.int64(state.coding.s),
        coding_residual_tol=np.float64(state.coding.residual_tol),
    )


def load_state(path) -> OnlineState:
    """Inverse of save_state. DataError as in load_model_file, for a
    samples_seen that is not a count and a coding_s that is not a sparsity
    of D's atoms, and for whatever CodingConfig, LambdaPolicy or
    OnlineState refuses (a residual_tol, a policy, phi or G), each message
    after "PATH is not a state file: ". G comes back as float64, as the
    model's arrays do, so the stream updates it in place."""
    model, z = load_model_file(path, "state", (
        "G", "phi", "policy_kind", "policy_lambda1", "policy_lambda2", "samples_seen",
        "coding_s", "coding_residual_tol"))
    seen, s = float(z["samples_seen"]), float(z["coding_s"])
    for fault, what in ((not (seen >= 0 and seen.is_integer()),
                         f"samples_seen is {z['samples_seen']}, not a count"),
                        (not (1 <= s <= model.D.n and s.is_integer()),
                         f"coding_s is {z['coding_s']}, not a sparsity in 1..{model.D.n}")):
        if fault:
            raise DataError(f"{path} is not a state file: {what}")
    try:
        coding = CodingConfig(int(s), float(z["coding_residual_tol"]))
        policy = LambdaPolicy(
            str(z["policy_kind"]), float(z["policy_lambda1"]), float(z["policy_lambda2"])
        )
        return OnlineState(model, np.asarray(z["G"], dtype=float), float(z["phi"]), policy,
                           int(z["samples_seen"]), coding)
    except (DataError, NumericalError) as e:  # CodingError is a NumericalError
        raise DataError(f"{path} is not a state file: {e}") from None
