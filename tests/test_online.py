import hashlib
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from dictad import (
    CodingConfig,
    DataError,
    Dictionary,
    DiscriminativeModel,
    LambdaPolicy,
    NumericalError,
    SparseCode,
    SparseCodeMatrix,
    init_state,
    lambda_select,
    load_model,
    load_state,
    rls_update,
    save_model,
    save_state,
    spectral_norm,
    tikhonov_update,
    toddler_step,
)

from dictad import online
from dictad.experiments import run_experiment
from helpers import planted_instance


def _model(D, c=2):
    n = D.shape[1]
    rng = np.random.default_rng(0)
    class_of_atom = np.repeat(np.arange(c), n // c)[:n]
    return DiscriminativeModel(
        Dictionary(D.copy()), rng.standard_normal((c, n)),
        rng.standard_normal((n, n)), class_of_atom,
    )


def _sparse_cols(rng, n, s, N):
    X = np.zeros((n, N))
    for i in range(N):
        sup = rng.choice(n, s, replace=False)
        X[sup, i] = rng.standard_normal(s)
    return X


def test_init_state_identity_warmup():
    D, _, _ = planted_instance(6, 4, 4, 2, seed=0)
    model = _model(D)
    X = SparseCodeMatrix.from_dense(np.eye(4))
    st = init_state(model, D @ np.eye(4), X, phi=1.0, coding=CodingConfig(2))
    assert np.array_equal(st.G, np.eye(4) + 1e-8 * np.eye(4))  # X X^T and its ridge
    assert st.samples_seen == 4


def test_init_state_empty_warmup_rejected():
    D, _, _ = planted_instance(6, 4, 4, 2, seed=0)
    with pytest.raises(DataError):
        init_state(_model(D), np.zeros((6, 0)),
                   SparseCodeMatrix(np.zeros((0, 0), dtype=int), np.zeros((0, 0)),
                                    np.zeros(0, dtype=int), 0),
                   phi=1.0, coding=CodingConfig(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_init_state_non_finite_codes_rejected(bad):
    D, _, _ = planted_instance(6, 4, 4, 2, seed=0)
    X = np.eye(4)
    X[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="^warmup codes must be finite$"):
            init_state(_model(D), D @ np.eye(4), SparseCodeMatrix.from_dense(X), phi=1.0,
                       coding=CodingConfig(2))


def test_init_state_all_zero_codes_rejected():
    # G = 0 and so is its ridge: G is not positive definite
    D, _, _ = planted_instance(6, 4, 4, 2, seed=0)
    X = SparseCodeMatrix.from_dense(np.zeros((4, 4)))
    with pytest.raises(NumericalError, match="^G is not symmetric positive definite$"):
        init_state(_model(D), D @ X.to_dense(), X, phi=1.0, coding=CodingConfig(2))


def test_init_state_overflowing_gram_rejected():
    # finite codes whose Gram overflows: a NumericalError, with no numpy
    # warning and no LinAlgError from a condition number of a non-finite G
    D, _, _ = planted_instance(6, 4, 4, 2, seed=0)
    X = np.eye(4)
    X[0, 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^warmup Gram matrix overflows"):
            init_state(_model(D), D @ X, SparseCodeMatrix.from_dense(X), phi=1.0,
                       coding=CodingConfig(2))


def test_init_state_inverse_accuracy():
    D, _, _ = planted_instance(8, 10, 40, 3, seed=1)
    rng = np.random.default_rng(1)
    X = _sparse_cols(rng, 10, 3, 40)
    st = init_state(_model(D), D @ X, SparseCodeMatrix.from_dense(X),
                    phi=0.95, coding=CodingConfig(3))
    assert np.linalg.norm(st.Ginv @ st.G - np.eye(10), "fro") <= 1e-10 * 10


def test_rls_zero_residual_leaves_dictionary_fixed():
    D, _, _ = planted_instance(8, 10, 40, 3, seed=2)
    rng = np.random.default_rng(2)
    X = _sparse_cols(rng, 10, 3, 30)
    st = init_state(_model(D), D @ X, SparseCodeMatrix.from_dense(X),
                    phi=1.0, coding=CodingConfig(3))
    D_before, G_before = st.model.D.atoms.copy(), st.G.copy()
    x = SparseCode([1, 4], [0.5, -1.0], 10)
    rls_update(st, st.model.D.atoms @ x.to_dense(), x)
    assert np.max(np.abs(st.model.D.atoms - D_before)) < 1e-12
    assert not np.array_equal(st.G, G_before)
    assert st.samples_seen == 31


def test_rls_streaming_equals_batch_least_squares():
    rng = np.random.default_rng(3)
    m, n, s = 10, 12, 3
    Dt, _, _ = planted_instance(m, n, 1, 1, seed=3)
    Xw = _sparse_cols(rng, n, s, 40)
    Yw = Dt @ Xw + 0.05 * rng.standard_normal((m, 40))
    G0 = Xw @ Xw.T + (1e-8 * np.trace(Xw @ Xw.T) / n) * np.eye(n)
    D0 = (Yw @ Xw.T) @ np.linalg.inv(G0)
    model = _model(D0)
    st = init_state(model, Yw, SparseCodeMatrix.from_dense(Xw),
                    phi=1.0, coding=CodingConfig(s))
    Xs = _sparse_cols(rng, n, s, 100)
    Ys = Dt @ Xs + 0.05 * rng.standard_normal((m, 100))
    cols = SparseCodeMatrix.from_dense(Xs).columns
    for i in range(100):
        rls_update(st, Ys[:, i], cols[i])
    Xall, Yall = np.hstack([Xw, Xs]), np.hstack([Yw, Ys])
    Dbatch = (Yall @ Xall.T) @ np.linalg.inv(Xall @ Xall.T)
    rel = np.linalg.norm(st.model.D.atoms - Dbatch, "fro") / np.linalg.norm(Dbatch, "fro")
    assert rel < 1e-8


def test_rls_corrupted_state_detected(capfd):
    # a zero G, then x x^T, is singular at an update that is not a check
    D, _, _ = planted_instance(6, 4, 4, 2, seed=4)
    X = SparseCodeMatrix.from_dense(np.eye(4))
    st = init_state(_model(D), D @ np.eye(4), X, phi=1.0, coding=CodingConfig(2))
    st.G[:] = 0.0
    st.samples_seen = 5
    with pytest.raises(NumericalError, match="^online Gram matrix became singular$"):
        rls_update(st, np.zeros(6), SparseCode([0], [1.0], 4))
    assert capfd.readouterr().err == ""


def _small_phi_stream(phi, unused, seed):
    """A state at forgetting factor phi (m = 8, s = 2, n = 6) whose warm-up
    and stream never use the last `unused` atoms, and the stream's updates."""
    rng = np.random.default_rng(seed)
    m, s, n = 8, 2, 6
    k = n - unused  # atoms that the warm-up and the stream use
    Dt = rng.standard_normal((m, n))
    Xw = np.vstack([_sparse_cols(rng, k, s, 20), np.zeros((unused, 20))])
    st = init_state(_model(Dt, c=1), Dt @ Xw, SparseCodeMatrix.from_dense(Xw), phi=phi,
                    coding=CodingConfig(s))
    updates = []
    for _ in range(1500):
        x = SparseCode(rng.choice(k, s, replace=False), rng.standard_normal(s), n)
        updates.append((Dt @ x.to_dense() + 0.05 * rng.standard_normal(m), x))
    return st, updates


@pytest.mark.parametrize("phi", [1e-4, 1e-3, 0.1, 0.3, 0.5])
@pytest.mark.parametrize("unused", [0, 1, 3])
def test_rls_streams_at_small_forgetting_factors(phi, unused):
    # strong forgetting leaves G near the sum of the last few x x^T plus the
    # ridge, and the stream goes on with no error, no numpy warning and a
    # finite D
    st, updates = _small_phi_stream(phi, unused, seed=int(phi * 100) + unused)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y, x in updates:
            rls_update(st, y, x)
    assert st.samples_seen == 1520
    assert np.isfinite(st.model.D.atoms).all()


@pytest.mark.parametrize("seed", range(10))
def test_rls_at_phi_0_01_streams_or_refuses_without_corrupting(seed):
    # At phi = 0.01 two atoms unused for ~8 updates would keep diagonals
    # below eps * x x^T, and an update that uses both would leave G singular
    # in floating point. The ridge that each update keeps on G's diagonal
    # rules that out: every update streams.
    st, updates = _small_phi_stream(0.01, seed % 3, seed=100 + seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y, x in updates:
            rls_update(st, y, x)
    assert st.samples_seen == 1520
    assert np.isfinite(st.model.D.atoms).all()


def test_rls_inverse_drift_bounded_with_forgetting():
    rng = np.random.default_rng(5)
    m, n, s = 10, 12, 3
    Dt, _, _ = planted_instance(m, n, 1, 1, seed=5)
    Xw = _sparse_cols(rng, n, s, 50)
    st = init_state(_model(Dt), Dt @ Xw, SparseCodeMatrix.from_dense(Xw),
                    phi=0.95, coding=CodingConfig(s))
    for _ in range(1200):
        x = _sparse_cols(rng, n, s, 1)
        y = Dt @ x[:, 0] + 0.05 * rng.standard_normal(m)
        rls_update(st, y, SparseCodeMatrix.from_dense(x).columns[0])
    drift = np.linalg.norm(st.Ginv @ st.G - np.eye(n), "fro")
    assert drift <= 1e-6 * n


def test_spectral_norm_identity_and_diagonal():
    assert abs(spectral_norm(np.eye(3)) - 1.0) < 1e-8
    assert abs(spectral_norm(np.diag([5.0, 1.0])) - 5.0) < 1e-8


def test_spectral_norm_matches_dense_eigensolver():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((8, 8))
        G = B @ B.T + 0.1 * np.eye(8)
        exact = np.max(np.abs(np.linalg.eigvalsh(G)))
        assert abs(spectral_norm(G) - exact) <= 1e-6 * exact


def test_lambda_policies():
    D, _, _ = planted_instance(8, 6, 6, 2, seed=6)
    model = _model(D)
    X = SparseCodeMatrix.from_dense(np.eye(6))
    st = init_state(model, D @ np.eye(6), X, phi=1.0,
                    lambda_policy=LambdaPolicy("gram-norm"), coding=CodingConfig(2))
    l1, l2 = lambda_select(st)
    assert l1 == l2
    assert abs(l1 - spectral_norm(st.G)) < 1e-10

    st.lambda_policy = LambdaPolicy("model-norms")
    l1, l2 = lambda_select(st)
    assert abs(l1 - spectral_norm(model.W)) < 1e-10
    assert abs(l2 - spectral_norm(model.A)) < 1e-10

    st.lambda_policy = LambdaPolicy("fixed", 2.5, 0.5)
    assert lambda_select(st) == (2.5, 0.5)


def test_tikhonov_already_optimal_anchor():
    rng = np.random.default_rng(7)
    M0 = rng.standard_normal((3, 6))
    x = SparseCode([0, 3], [1.0, -2.0], 6)
    M = tikhonov_update(M0, M0 @ x.to_dense(), x, 1.0)
    assert np.max(np.abs(M - M0)) < 1e-14


def test_tikhonov_large_lambda_pins_anchor():
    rng = np.random.default_rng(8)
    M0 = rng.standard_normal((3, 6))
    x = SparseCode([1, 2], [1.0, 1.0], 6)
    target = rng.standard_normal(3)
    lam = 1e9 * float(x.to_dense() @ x.to_dense())
    M = tikhonov_update(M0, target, x, lam)
    scale = np.linalg.norm(target - M0 @ x.to_dense()) * np.linalg.norm(x.values)
    assert np.linalg.norm(M - M0, "fro") <= 1e-6 * scale


def test_tikhonov_stationarity_and_gradient():
    rng = np.random.default_rng(9)
    for _ in range(10):
        M0 = rng.standard_normal((4, 8))
        x = SparseCode(rng.choice(8, 3, replace=False), rng.standard_normal(3), 8)
        target = rng.standard_normal(4)
        lam = float(rng.uniform(0.5, 5.0))
        M = tikhonov_update(M0, target, x, lam)
        xd = x.to_dense()
        stat = lam * (M - M0) - np.outer(target - M @ xd, xd)
        scale = np.linalg.norm(target) + np.linalg.norm(M0) * np.linalg.norm(xd) + 1.0
        assert np.linalg.norm(stat, "fro") <= 1e-8 * scale

        # finite-difference gradient of the regularized objective at M
        def f(Mat):
            return (np.linalg.norm(target - Mat @ xd) ** 2
                    + lam * np.linalg.norm(Mat - M0, "fro") ** 2)

        h = 1e-6
        grad = np.zeros_like(M)
        for i in range(M.shape[0]):
            for j in range(M.shape[1]):
                E = np.zeros_like(M)
                E[i, j] = h
                grad[i, j] = (f(M + E) - f(M - E)) / (2 * h)
        assert np.linalg.norm(grad, "fro") <= 1e-5 * (1.0 + abs(f(M)))


def test_tikhonov_nonpositive_lambda_rejected():
    for lam in (0.0, -1.0, np.nan):
        with pytest.raises(NumericalError):
            tikhonov_update(np.zeros((2, 3)), np.zeros(2), SparseCode([0], [1.0], 3), lam)


@pytest.mark.parametrize("lambdas", [(), (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                     (1.0, 0.0), (-1.0, 1.0)])
def test_fixed_lambda_policy_needs_finite_positive_weights(lambdas):
    with pytest.raises(DataError, match="^fixed lambda weights must be finite and positive"):
        LambdaPolicy("fixed", *lambdas)


def test_load_state_refuses_a_nan_fixed_weight(tmp_path):
    st, _ = _toy_state(seed=14, policy=LambdaPolicy("fixed", 1.5, 2.5))
    save_state(tmp_path / "state.npz", st)
    with np.load(tmp_path / "state.npz") as z:
        arrays = {k: z[k] for k in z.files}
    np.savez(tmp_path / "nan.npz", **{**arrays, "policy_lambda1": np.float64(np.nan)})
    with pytest.raises(DataError, match="nan.npz is not a state file: "
                                        "fixed lambda weights must be finite and positive"):
        load_state(tmp_path / "nan.npz")


def _toy_state(seed=10, phi=1.0, policy=LambdaPolicy("gram-norm")):
    rng = np.random.default_rng(seed)
    m, n, s = 10, 8, 2
    Dt, _, _ = planted_instance(m, n, 1, 1, seed=seed)
    X = _sparse_cols(rng, n, s, 30)
    Y = Dt @ X
    model = _model(Dt)
    return init_state(model, Y, SparseCodeMatrix.from_dense(X), phi=phi,
                      lambda_policy=policy, coding=CodingConfig(s)), Dt


def test_toddler_reconstruction_error_is_the_a_priori_error():
    # ||y - D x|| under the dictionary before the step's RLS update
    st, Dt = _toy_state(seed=12, phi=0.95)
    y = Dt[:, 3] + 0.1 * np.random.default_rng(12).standard_normal(Dt.shape[0])
    D_before = st.model.D.atoms.copy()
    _, outcome = toddler_step(st, y)
    expected = np.linalg.norm(y - D_before @ outcome.code.to_dense())
    assert outcome.reconstruction_error == expected > 0
    assert not np.array_equal(st.model.D.atoms, D_before)
    fresh, _ = _toy_state(seed=12, phi=0.95)
    assert rls_update(fresh, y, outcome.code) == expected


def test_toddler_zero_classifier_predicts_class_zero():
    st, Dt = _toy_state()
    st.model.W = np.zeros_like(st.model.W)
    _, outcome = toddler_step(st, Dt[:, 0])
    assert outcome.predicted_class == 0
    assert np.all(outcome.scores == 0)


def test_toddler_prediction_uses_pre_update_classifier():
    st, Dt = _toy_state(seed=11)
    y = Dt[:, 1] + 0.5 * Dt[:, 2]
    W_before = st.model.W.copy()
    x_expect = None
    from dictad import omp
    x_expect = omp(st.model.D, y, st.coding)
    expected_scores = W_before[:, x_expect.support] @ x_expect.values
    _, outcome = toddler_step(st, y)
    assert np.allclose(outcome.scores, expected_scores)
    assert not np.array_equal(st.model.W, W_before)


def test_toddler_step_deterministic():
    outs = []
    for _ in range(2):
        st, Dt = _toy_state(seed=12)
        st2, outcome = toddler_step(st, Dt[:, 0] + Dt[:, 3])
        outs.append((outcome.predicted_class, outcome.scores.copy(),
                     st2.model.D.atoms.copy(), st2.G.copy()))
    assert outs[0][0] == outs[1][0]
    assert np.array_equal(outs[0][1], outs[1][1])
    assert np.array_equal(outs[0][2], outs[1][2])
    assert np.array_equal(outs[0][3], outs[1][3])


def test_toddler_updates_every_sample():
    st, Dt = _toy_state(seed=13)
    G0 = st.G.copy()
    W0 = st.model.W.copy()
    A0 = st.model.A.copy()
    n0 = st.samples_seen
    toddler_step(st, Dt[:, 0])
    assert st.samples_seen == n0 + 1
    assert not np.array_equal(st.G, G0)
    assert not np.array_equal(st.model.W, W0)
    assert not np.array_equal(st.model.A, A0)


def test_state_checkpoint_round_trip(tmp_path):
    st, Dt = _toy_state(seed=14, phi=0.95, policy=LambdaPolicy("fixed", 1.5, 2.5))
    for k in range(5):
        toddler_step(st, Dt[:, k % Dt.shape[1]])
    path = tmp_path / "state.npz"
    save_state(path, st)
    st2 = load_state(path)
    assert np.array_equal(st2.model.D.atoms, st.model.D.atoms)
    assert np.array_equal(st2.model.W, st.model.W)
    assert np.array_equal(st2.model.A, st.model.A)
    assert np.array_equal(st2.G, st.G)
    assert st2.phi == st.phi
    assert st2.lambda_policy == st.lambda_policy
    assert st2.samples_seen == st.samples_seen
    assert st2.coding == st.coding


def test_load_state_reads_a_checkpoint_that_holds_Ginv(tmp_path):
    # the format of a state that kept G's inverse beside G: Ginv is ignored
    st, _ = _toy_state(seed=14, phi=0.95)
    save_state(tmp_path / "state.npz", st)
    with np.load(tmp_path / "state.npz") as z:
        arrays = {k: z[k] for k in z.files}
    np.savez(tmp_path / "old.npz", **arrays, Ginv=np.linalg.inv(st.G))
    old = load_state(tmp_path / "old.npz")
    assert np.array_equal(old.G, st.G)
    assert (old.phi, old.samples_seen) == (st.phi, st.samples_seen)


def test_load_state_streams_an_integer_checkpoint_like_its_float_copy(tmp_path):
    # integer G, W and A load as float64, so rls_update's G *= phi works in
    # place instead of failing in numpy, and the stream keeps the float
    # file's bits
    st, Dt = _toy_state(seed=18, phi=0.95)
    save_state(tmp_path / "checkpoint.npz", st)
    with np.load(tmp_path / "checkpoint.npz") as z:
        arrays = {k: z[k] for k in z.files}
    ints = {"G": np.eye(8, dtype=np.int64) * 3,
            "W": np.rint(4 * arrays["W"]).astype(np.int64),
            "A": np.rint(4 * arrays["A"]).astype(np.int32)}
    np.savez(tmp_path / "int.npz", **{**arrays, **ints})
    np.savez(tmp_path / "float.npz", **{**arrays, **{k: v.astype(float) for k, v in ints.items()}})
    states = [load_state(tmp_path / name) for name in ("int.npz", "float.npz")]
    assert all(a.dtype == float for s in states for a in (s.G, s.model.W, s.model.A))
    rng = np.random.default_rng(18)
    for y in (Dt[:, :3] @ rng.standard_normal((3, 120))).T:
        a, b = (toddler_step(s, y)[1] for s in states)
        assert a.predicted_class == b.predicted_class
        assert a.scores.tobytes() == b.scores.tobytes()
        assert a.code.values.tobytes() == b.code.values.tobytes()
    for name, s in zip(("int-after.npz", "float-after.npz"), states):
        save_state(tmp_path / name, s)
    with np.load(tmp_path / "int-after.npz") as a, np.load(tmp_path / "float-after.npz") as b:
        assert all(a[k].tobytes() == b[k].tobytes() for k in a.files)


_MODEL_ARRAYS = ["format_version", "D", "W", "A", "class_of_atom"]
_STATE_ARRAYS = ["G", "phi", "policy_kind", "policy_lambda1", "policy_lambda2",
                 "samples_seen", "coding_s", "coding_residual_tol"]


# files that replace arrays of the model (sparsity) or the checkpoint (the rest)
_MALFORMED = {
    "vector-version": {"format_version": np.array([1, 1])},
    "vector-sparsity": {"sparsity": np.array([2, 3])},
    "text-D": {"D": np.array([["a", "b"], ["c", "d"]])},
    "empty-D": {"D": np.zeros((10, 0))},
    "wide-W": {"W": np.zeros((2, 9))},
    "text-phi": {"phi": np.array("0.95")},
    "square-class-map": {"class_of_atom": np.zeros((8, 8), dtype=int)},
    "short-class-map": {"class_of_atom": np.zeros(7, dtype=int)},
    "fractional-class": {"class_of_atom": np.full(8, 0.7)},
    "negative-class": {"class_of_atom": np.full(8, -3)},
    "unknown-class": {"class_of_atom": np.full(8, 9)},
    "nan-class": {"class_of_atom": np.array([0.0] * 7 + [np.nan])},
    "tall-G": {"G": np.eye(9, 8)},
    "no-classes-W": {"W": np.zeros((0, 8))},
    "negative-G": {"G": -np.eye(8)},
    "asymmetric-G": {"G": np.eye(8) + np.eye(8, k=1)},  # its lower triangle factors
    "inf-G": {"G": np.diag([np.inf] + [1.0] * 7)},
    "phi-above-1": {"phi": np.float64(2.0)},
    "negative-phi": {"phi": np.float64(-1.0)},
    "zero-phi": {"phi": np.float64(0.0)},
    "nan-phi": {"phi": np.float64(np.nan)},
    "negative-samples-seen": {"samples_seen": np.int64(-5)},
    "fractional-samples-seen": {"samples_seen": np.float64(2.5)},
    "zero-sparsity": {"coding_s": np.int64(0)},
    "sparsity-above-atoms": {"coding_s": np.int64(99)},
    "nan-residual-tol": {"coding_residual_tol": np.float64(np.nan)},
    "inf-residual-tol": {"coding_residual_tol": np.float64(np.inf)},
    "negative-residual-tol": {"coding_residual_tol": np.float64(-1.0)},
}


def _model_files(tmp_path):
    """A model.npz and a checkpoint.npz of one toy state with 8 atoms, the
    checkpoint's first half, the checkpoint with the next format version,
    the _MALFORMED files and a dataset CSV."""
    st, _ = _toy_state(seed=18)
    save_model(tmp_path / "model.npz", st.model, sparsity=2)
    save_state(tmp_path / "checkpoint.npz", st)
    whole = (tmp_path / "checkpoint.npz").read_bytes()
    (tmp_path / "truncated.npz").write_bytes(whole[:len(whole) // 2])
    with np.load(tmp_path / "checkpoint.npz") as z:
        arrays = {k: z[k] for k in z.files}
    np.savez(tmp_path / "next-version.npz", **{**arrays, "format_version": np.int64(2)})
    for name, bad in _MALFORMED.items():
        with np.load(tmp_path / ("model.npz" if "sparsity" in bad else "checkpoint.npz")) as z:
            np.savez(tmp_path / f"{name}.npz", **{**{k: z[k] for k in z.files}, **bad})
    (tmp_path / "dataset.csv").write_text("a,Class\n1,0\n2,1\n")
    return {"model": load_model, "state": load_state}


def test_model_files_list_the_model_arrays_first(tmp_path):
    _model_files(tmp_path)
    with np.load(tmp_path / "model.npz") as z:
        assert z.files == _MODEL_ARRAYS + ["sparsity"]
    with np.load(tmp_path / "checkpoint.npz") as z:
        assert z.files == _MODEL_ARRAYS + _STATE_ARRAYS


@pytest.mark.parametrize("kind, name, message", [
    ("state", "model.npz", "is not a state file: no G, phi, policy_kind"),
    ("model", "checkpoint.npz", "is not a model file: no sparsity$"),
    ("state", "dataset.csv", r"is not a state file \(.npz\)$"),
    ("model", "dataset.csv", r"is not a model file \(.npz\)$"),
    ("state", "truncated.npz", r"is not a state file \(.npz\)$"),
    ("state", "missing.npz", "^cannot read .*missing.npz: No such file"),
    ("state", "next-version.npz", "^unsupported state format version 2$"),
    ("state", "vector-version.npz", "is not a state file: format_version is 1-d, not 0-d$"),
    ("model", "vector-sparsity.npz", "is not a model file: sparsity is 1-d, not 0-d$"),
    ("state", "text-D.npz", "is not a state file: D holds <U1 values, not numbers$"),
    ("state", "empty-D.npz", "is not a state file: D is empty$"),
    ("state", "wide-W.npz", r"is not a state file: W has shape \(2, 9\), D has 8 atoms$"),
    ("state", "text-phi.npz", "is not a state file: phi holds <U4 values, not numbers$"),
    ("state", "square-class-map.npz", "is not a state file: class_of_atom is 2-d, not 1-d$"),
    ("state", "short-class-map.npz",
     r"is not a state file: class_of_atom has shape \(7,\), D has 8 atoms$"),
    ("state", "fractional-class.npz",
     r"is not a state file: class_of_atom holds 0.7, not a class of W \(0..1\)$"),
    ("state", "negative-class.npz",
     r"is not a state file: class_of_atom holds -3, not a class of W \(0..1\)$"),
    ("state", "unknown-class.npz",
     r"is not a state file: class_of_atom holds 9, not a class of W \(0..1\)$"),
    ("state", "nan-class.npz",
     r"is not a state file: class_of_atom holds nan, not a class of W \(0..1\)$"),
    ("state", "tall-G.npz", r"is not a state file: G has shape \(9, 8\), D has 8 atoms$"),
    ("state", "no-classes-W.npz", "is not a state file: W is empty$"),
    ("state", "negative-G.npz", "is not a state file: G is not symmetric positive definite$"),
    ("state", "asymmetric-G.npz", "is not a state file: G is not symmetric positive definite$"),
    ("state", "inf-G.npz", "is not a state file: G is not symmetric positive definite$"),
    ("state", "phi-above-1.npz", r"is not a state file: phi is 2.0, not in \(0, 1\]$"),
    ("state", "negative-phi.npz", r"is not a state file: phi is -1.0, not in \(0, 1\]$"),
    ("state", "zero-phi.npz", r"is not a state file: phi is 0.0, not in \(0, 1\]$"),
    ("state", "nan-phi.npz", r"is not a state file: phi is nan, not in \(0, 1\]$"),
    ("state", "negative-samples-seen.npz", "is not a state file: samples_seen is -5, not a count$"),
    ("state", "fractional-samples-seen.npz",
     "is not a state file: samples_seen is 2.5, not a count$"),
    ("state", "zero-sparsity.npz", r"is not a state file: coding_s is 0, not a sparsity in 1\.\.8$"),
    ("state", "sparsity-above-atoms.npz",
     r"is not a state file: coding_s is 99, not a sparsity in 1\.\.8$"),
    ("state", "nan-residual-tol.npz",
     "is not a state file: residual_tol must be finite and nonnegative$"),
    ("state", "inf-residual-tol.npz",
     "is not a state file: residual_tol must be finite and nonnegative$"),
    ("state", "negative-residual-tol.npz",
     "is not a state file: residual_tol must be finite and nonnegative$"),
], ids=["model-as-state", "state-as-model", "csv-as-state", "csv-as-model", "truncated",
        "missing", "state-version", *_MALFORMED])
def test_load_wrong_file_raises_data_error(tmp_path, kind, name, message):
    loaders = _model_files(tmp_path)
    with pytest.raises(DataError, match=message):
        loaders[kind](tmp_path / name)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entries", [slice(3, 4), slice(None)], ids=["one", "all"])
def test_non_finite_sample_raises_before_the_state_moves(tmp_path, bad, entries):
    # on a checkpoint's state, through toddler_step and through rls_update:
    # G, D and samples_seen keep their bytes, and W and A their values
    st, Dt = _toy_state(seed=21, phi=0.95)
    save_state(tmp_path / "checkpoint.npz", st)
    st = load_state(tmp_path / "checkpoint.npz")
    y = Dt[:, 0] + Dt[:, 5]
    y[entries] = bad
    kept = (st.G.tobytes(), st.model.D.atoms.tobytes(), st.samples_seen)
    W, A = st.model.W.copy(), st.model.A.copy()
    message = f"^sample {st.samples_seen + 1} holds a NaN or inf value$"
    # OMP codes such a y empty before it forms a product with it, so numpy
    # flags no inf - inf under the suite's error filter
    with pytest.raises(DataError, match=message):
        toddler_step(st, y)
    with pytest.raises(DataError, match=message):
        rls_update(st, y, SparseCode([0, 5], [1.0, -0.5], 8))
    assert (st.G.tobytes(), st.model.D.atoms.tobytes(), st.samples_seen) == kept
    assert np.array_equal(st.model.W, W) and np.array_equal(st.model.A, A)


@pytest.mark.parametrize("value, entries", [
    (1e160, slice(3, 4)), (1e160, slice(None)), (1e154, slice(None)),
], ids=["one-square-overflows", "all-squares-overflow", "sum-overflows"])
def test_sample_whose_norm_overflows_raises_before_the_state_moves(value, entries):
    # a finite y with ||y|| = inf would be coded empty and scored as class 0
    st, Dt = _toy_state(seed=21, phi=0.95)
    y = Dt[:, 0] + Dt[:, 5]
    y[entries] = value
    kept = (st.G.tobytes(), st.model.D.atoms.tobytes(), st.samples_seen)
    W, A = st.model.W.copy(), st.model.A.copy()
    with pytest.raises(DataError, match=r"^the signal's norm overflows; rescale the features "
                                        r"\(--normalize\)$"):
        toddler_step(st, y)
    assert (st.G.tobytes(), st.model.D.atoms.tobytes(), st.samples_seen) == kept
    assert np.array_equal(st.model.W, W) and np.array_equal(st.model.A, A)


def test_rls_unused_atom_under_forgetting_stays_finite():
    # atom n-1 is never in a support, so its Gram diagonal decays like phi^t
    # until the ridge that each update adds back holds it
    rng = np.random.default_rng(15)
    m, n, s = 10, 12, 3
    Dt, _, _ = planted_instance(m, n, 1, 1, seed=15)
    Xw = _sparse_cols(rng, n, s, 50)
    st = init_state(_model(Dt), Dt @ Xw, SparseCodeMatrix.from_dense(Xw),
                    phi=0.95, coding=CodingConfig(s))
    for _ in range(15000):
        sup = rng.choice(n - 1, s, replace=False)
        x = SparseCode(sup, rng.standard_normal(s), n)
        rls_update(st, Dt @ x.to_dense() + 0.05 * rng.standard_normal(m), x)
    for M in (st.G, st.Ginv, st.model.D.atoms):
        assert np.all(np.isfinite(M))
    assert np.linalg.norm(st.Ginv @ st.G - np.eye(n), "fro") <= 1e-6 * n


def test_spectral_norm_non_finite_raises():
    with pytest.raises(NumericalError):
        spectral_norm(np.full((3, 3), np.nan))


def test_toddler_step_leaves_caller_model_unchanged():
    rng = np.random.default_rng(16)
    m, n, s = 10, 8, 2
    Dt, _, _ = planted_instance(m, n, 1, 1, seed=16)
    X = _sparse_cols(rng, n, s, 30)
    model = _model(Dt)
    D0, W0, A0 = model.D.atoms.copy(), model.W.copy(), model.A.copy()
    st = init_state(model, Dt @ X, SparseCodeMatrix.from_dense(X), phi=0.95,
                    coding=CodingConfig(s))
    toddler_step(st, Dt[:, 0] + 0.3 * rng.standard_normal(m))
    assert not np.array_equal(st.model.D.atoms, D0)
    assert np.array_equal(model.D.atoms, D0)
    assert np.array_equal(model.W, W0)
    assert np.array_equal(model.A, A0)


def test_spectral_norm_inf_raises_without_lapack_output(capfd):
    with pytest.raises(NumericalError):
        spectral_norm(np.full((3, 3), np.inf))
    assert capfd.readouterr().err == ""


def test_spectral_norm_keeps_the_error_state_and_warns_nothing(capfd, monkeypatch):
    rng = np.random.default_rng(18)
    mats = [rng.standard_normal((6, 6)), rng.standard_normal((3, 5)) * 1e-300,
            rng.standard_normal((4, 4)) * 1e300]
    X = rng.standard_normal((5, 7))
    # a bitwise-symmetric M takes the eigenvalue path; the last one is indefinite
    symmetric = [X @ X.T, (X @ X.T) * 1e-300, (X[:, :5] + X[:, :5].T) * 1e300]
    cases = ([(M, np.linalg.norm(M, 2)) for M in mats]
             + [(M, np.max(np.abs(np.linalg.eigvalsh(M)))) for M in symmetric])
    before = (np.geterr(), np.geterrcall())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M, want in cases:
            assert spectral_norm(M) == want
            with np.errstate(all="raise"):
                assert spectral_norm(M) == want
        for bad in (np.nan, np.inf, -np.inf):
            M = np.eye(3)
            M[1, 2] = bad
            with pytest.raises(NumericalError, match="non-finite"):
                spectral_norm(M)
        with pytest.raises(NumericalError, match="1-dimensional"):
            spectral_norm(np.ones(3))
        with pytest.raises(NumericalError, match="3-dimensional"):
            spectral_norm(np.ones((2, 2, 2)))
        # LAPACK's non-convergence reaches numpy as the invalid flag
        monkeypatch.setattr(online, "_umath_linalg", SimpleNamespace(
            svd=lambda M, signature: np.full(1, np.inf) - np.inf,
            eigvalsh_lo=lambda M, signature: np.full(1, np.inf) - np.inf))
        with pytest.raises(NumericalError, match="^spectral norm: SVD did not converge$"):
            spectral_norm(np.eye(3) + np.eye(3, k=1))
        with pytest.raises(NumericalError,
                           match="^spectral norm: eigenvalues did not converge$"):
            spectral_norm(np.eye(3))
    assert (np.geterr(), np.geterrcall()) == before
    assert capfd.readouterr().err == ""


def test_toddler_step_non_finite_gram_raises(capfd):
    rng = np.random.default_rng(17)
    m, n, s = 10, 8, 2
    Dt, _, _ = planted_instance(m, n, 1, 1, seed=17)
    X = _sparse_cols(rng, n, s, 30)
    st = init_state(_model(Dt), Dt @ X, SparseCodeMatrix.from_dense(X), phi=0.95,
                    coding=CodingConfig(s))
    st.G[0, 0] = np.inf
    with pytest.raises(NumericalError, match="non-finite"):
        toddler_step(st, Dt[:, 0])
    assert capfd.readouterr().err == ""


def _state_before_check():
    # the next update is the 100th: it checks that G and D are finite
    D, _, _ = planted_instance(6, 4, 4, 2, seed=19)
    st = init_state(_model(D), D @ np.eye(4), SparseCodeMatrix.from_dense(np.eye(4)), phi=0.95,
                    coding=CodingConfig(2))
    st.samples_seen = 99
    return st


def test_rls_checked_update_singular_gram_raises_without_lapack_output(capfd):
    # G = 0 stays 0 under an empty code's x x^T and its zero ridge, and the
    # gain's solve meets it
    st = _state_before_check()
    st.G[:] = 0.0
    with pytest.raises(NumericalError, match="^online Gram matrix became singular$"):
        rls_update(st, np.zeros(6), SparseCode([], [], 4))
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_rls_checked_update_non_finite_dictionary_raises_without_lapack_output(capfd, bad):
    st = _state_before_check()
    st.model.D.atoms[2, 1] = bad
    with np.errstate(invalid="ignore"):  # the a-priori residual's inf * 0
        with pytest.raises(NumericalError,
                           match="^online state became non-finite after 100 samples$"):
            rls_update(st, np.zeros(6), SparseCode([], [], 4))
    assert capfd.readouterr().err == ""


def _toddler_run_digest(config, out):
    """SHA-256 over the bytes of a toddler run's predictions.csv and of
    every checkpoint array, by name."""
    run_experiment("toddler", config, out)
    h = hashlib.sha256((out / "predictions.csv").read_bytes())
    with np.load(out / "checkpoint.npz") as z:
        for key in sorted(z.files):
            h.update(key.encode() + z[key].tobytes())
    return h.hexdigest()


def test_toddler_run_bytes_pinned(tmp_path):
    # pinned bytes of a small seeded stream that crosses three finiteness
    # checks: neither predictions.csv nor any checkpoint array may move by a bit
    assert _toddler_run_digest({
        "synth": {"n_normal": 300, "n_anomaly": 30, "m": 12, "normal_atoms": 6,
                  "anomaly_atoms": 4, "s_gen": 3, "noise_sigma": 0.05, "seed": 11},
        "sparsity": 3, "stage_atoms": 6, "dl_iterations": 5, "atoms_per_class": 6,
        "pretrain_fraction": 0.2, "seed": 4,
    }, tmp_path) == "7414d03f24ef5966c5b751fb2960318940c742045ed20860fc6a7ea666a88aaf"


def test_toddler_run_bytes_pinned_at_bench_shapes(tmp_path):
    # the stream bench's shapes (m = 29, 2 x 8 atoms, s = 5, z-scored): 320
    # streamed samples cross four finiteness checks, and no byte may move
    assert _toddler_run_digest({
        "synth": {"n_normal": 380, "n_anomaly": 20, "m": 29, "normal_atoms": 16,
                  "anomaly_atoms": 8, "s_gen": 4, "noise_sigma": 0.1, "seed": 16},
        "normalize": True, "sparsity": 5, "dl_iterations": 5, "atoms_per_class": 8,
        "pretrain_fraction": 0.2, "seed": 7,
    }, tmp_path) == "79331e4c12926ccddf61629d3893af1370b98f0d25c361ff5388ac7400ba0d1a"
    with np.load(tmp_path / "checkpoint.npz") as z:
        assert int(z["samples_seen"]) == 400


def _warmup(code_dim=8):
    """init_state's model of 8 atoms, warm-up signals and 30 warm-up codes
    of dimension code_dim."""
    Dt, _, _ = planted_instance(10, 8, 1, 1, seed=17)
    X = _sparse_cols(np.random.default_rng(17), code_dim, 2, 30)
    return _model(Dt), np.zeros((10, 30)), SparseCodeMatrix.from_dense(X)


@pytest.mark.parametrize("call, message", [
    (lambda: init_state(*_warmup(9), coding=CodingConfig(2)),
     "warmup codes inconsistent with the model dictionary"),
    (lambda: init_state(*_warmup(), phi=0.0, coding=CodingConfig(2)),
     "phi is 0.0, not in (0, 1]"),
    (lambda: init_state(*_warmup(), phi=1.5, coding=CodingConfig(2)),
     "phi is 1.5, not in (0, 1]"),
    (lambda: LambdaPolicy("bogus"), "unknown lambda policy 'bogus'"),
], ids=["warmup-code-dimension", "zero-phi", "phi-above-1", "unknown-policy"])
def test_online_refusals(call, message):
    # the CLI refuses phi and the policy as config errors before they get here
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_spectral_norm_of_an_empty_matrix_is_zero(shape):
    assert spectral_norm(np.zeros(shape)) == 0.0
