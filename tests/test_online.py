import hashlib
import warnings

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
    assert np.allclose(np.diag(st.G), 1.0, atol=1e-6)
    assert np.allclose(st.Ginv, np.linalg.inv(st.G), atol=1e-10)
    assert st.samples_seen == 4


def test_init_state_empty_warmup_rejected():
    D, _, _ = planted_instance(6, 4, 4, 2, seed=0)
    with pytest.raises(DataError):
        init_state(_model(D), np.zeros((6, 0)),
                   SparseCodeMatrix(np.zeros((0, 0), dtype=int), np.zeros((0, 0)),
                                    np.zeros(0, dtype=int), 0),
                   phi=1.0, coding=CodingConfig(2))


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


def test_rls_corrupted_state_detected():
    D, _, _ = planted_instance(6, 4, 4, 2, seed=4)
    X = SparseCodeMatrix.from_dense(np.eye(4))
    st = init_state(_model(D), D @ np.eye(4), X, phi=1.0, coding=CodingConfig(2))
    st.Ginv = -10.0 * np.eye(4)
    with pytest.raises(NumericalError):
        rls_update(st, np.zeros(6), SparseCode([0], [1.0], 4))


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
    with pytest.raises(NumericalError):
        tikhonov_update(np.zeros((2, 3)), np.zeros(2), SparseCode([0], [1.0], 3), 0.0)


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
    assert np.array_equal(st2.Ginv, st.Ginv)
    assert st2.phi == st.phi
    assert st2.lambda_policy == st.lambda_policy
    assert st2.samples_seen == st.samples_seen
    assert st2.coding == st.coding


_MODEL_ARRAYS = ["format_version", "D", "W", "A", "class_of_atom"]
_STATE_ARRAYS = ["G", "Ginv", "phi", "policy_kind", "policy_lambda1", "policy_lambda2",
                 "samples_seen", "coding_s", "coding_residual_tol"]


def _model_files(tmp_path):
    """A model.npz and a checkpoint.npz of one toy state, the checkpoint's
    first half, the checkpoint with the next format version and a dataset CSV."""
    st, _ = _toy_state(seed=18)
    save_model(tmp_path / "model.npz", st.model, sparsity=2)
    save_state(tmp_path / "checkpoint.npz", st)
    whole = (tmp_path / "checkpoint.npz").read_bytes()
    (tmp_path / "truncated.npz").write_bytes(whole[:len(whole) // 2])
    with np.load(tmp_path / "checkpoint.npz") as z:
        arrays = {k: z[k] for k in z.files}
    np.savez(tmp_path / "next-version.npz", **{**arrays, "format_version": np.int64(2)})
    (tmp_path / "dataset.csv").write_text("a,Class\n1,0\n2,1\n")
    return {"model": load_model, "state": load_state}


def test_model_files_list_the_model_arrays_first(tmp_path):
    _model_files(tmp_path)
    with np.load(tmp_path / "model.npz") as z:
        assert z.files == _MODEL_ARRAYS + ["sparsity"]
    with np.load(tmp_path / "checkpoint.npz") as z:
        assert z.files == _MODEL_ARRAYS + _STATE_ARRAYS


@pytest.mark.parametrize("kind, name, message", [
    ("state", "model.npz", "is not a state file: no G, Ginv, phi, policy_kind"),
    ("model", "checkpoint.npz", "is not a model file: no sparsity$"),
    ("state", "dataset.csv", r"is not a state file \(.npz\)$"),
    ("model", "dataset.csv", r"is not a model file \(.npz\)$"),
    ("state", "truncated.npz", r"is not a state file \(.npz\)$"),
    ("state", "missing.npz", "^cannot read .*missing.npz: No such file"),
    ("state", "next-version.npz", "^unsupported state format version 2$"),
], ids=["model-as-state", "state-as-model", "csv-as-state", "csv-as-model", "truncated",
        "missing", "state-version"])
def test_load_wrong_file_raises_data_error(tmp_path, kind, name, message):
    loaders = _model_files(tmp_path)
    with pytest.raises(DataError, match=message):
        loaders[kind](tmp_path / name)


def test_rls_unused_atom_under_forgetting_stays_finite():
    # atom n-1 is never in a support, so its Gram diagonal decays like phi^t
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
    before = (np.geterr(), np.geterrcall())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in mats:
            assert spectral_norm(M) == np.linalg.norm(M, 2)
            with np.errstate(all="raise"):
                assert spectral_norm(M) == np.linalg.norm(M, 2)
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
        monkeypatch.setattr(online, "_svd", lambda M, signature: np.full(1, np.inf) - np.inf)
        with pytest.raises(NumericalError, match="^spectral norm: SVD did not converge$"):
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


def test_toddler_run_bytes_pinned(tmp_path):
    # pinned bytes of a small seeded stream that crosses three ridge restores:
    # neither predictions.csv nor any checkpoint array may move by a bit
    run_experiment("toddler", {
        "synth": {"n_normal": 300, "n_anomaly": 30, "m": 12, "normal_atoms": 6,
                  "anomaly_atoms": 4, "s_gen": 3, "noise_sigma": 0.05, "seed": 11},
        "sparsity": 3, "stage_atoms": 6, "dl_iterations": 5, "atoms_per_class": 6,
        "pretrain_fraction": 0.2, "seed": 4,
    }, tmp_path)
    h = hashlib.sha256((tmp_path / "predictions.csv").read_bytes())
    with np.load(tmp_path / "checkpoint.npz") as z:
        for key in sorted(z.files):
            h.update(key.encode() + z[key].tobytes())
    assert h.hexdigest() == "c3246ea6ac56de6f8e04d264aa9665d1cdc3681024584c0e32272e68416bfe8b"
