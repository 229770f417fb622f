import numpy as np
import pytest

from dictad import (
    CodingConfig,
    DataError,
    DLConfig,
    PretrainConfig,
    SparseCode,
    SynthConfig,
    batch_code,
    build_indicators,
    classify,
    load_model,
    pretrain,
    save_model,
    stack_training,
    synth_generate,
    train,
)
from dictad.supervised import MODEL_FORMAT_VERSION


def test_indicator_example():
    H, Q, class_of_atom = build_indicators(np.array([0, 1, 0]), c=2, atoms_per_class=1)
    assert np.array_equal(H, [[1, 0, 1], [0, 1, 0]])
    assert np.array_equal(Q, [[1, 0, 1], [0, 1, 0]])
    assert list(class_of_atom) == [0, 1]


def test_indicator_single_class():
    H, _, _ = build_indicators(np.zeros(5, dtype=int), c=2, atoms_per_class=2)
    assert np.array_equal(H[0], np.ones(5))
    assert np.array_equal(H[1], np.zeros(5))


def test_indicator_column_sums():
    labels = np.random.default_rng(0).integers(0, 3, 40)
    H, Q, _ = build_indicators(labels, c=3, atoms_per_class=2)
    assert np.array_equal(H.sum(axis=0), np.ones(40))
    assert np.array_equal(Q.sum(axis=0), np.full(40, 2))


def test_indicator_label_out_of_range():
    with pytest.raises(DataError):
        build_indicators(np.array([0, 3]), c=2, atoms_per_class=1)


def test_stacking_weights():
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((4, 6))
    H, Q, _ = build_indicators(rng.integers(0, 2, 6), c=2, atoms_per_class=2)
    S0 = stack_training(Y, H, Q, 0.0, 0.0)
    assert np.array_equal(S0[:4], Y)
    assert np.all(S0[4:] == 0)
    S1 = stack_training(Y, H, Q, 1.0, 1.0)
    assert np.array_equal(S1[4:6], H)
    assert np.array_equal(S1[6:], Q)
    S4 = stack_training(Y, H, Q, 4.0, 1.0)
    assert np.array_equal(S4[4:6], 2.0 * H)


def _toy_dataset(seed=5):
    return synth_generate(
        SynthConfig(60, 60, 16, 4, 4, 2, 0.0, True, seed, positive_codes=True)
    )


def _toy_config():
    return PretrainConfig(1.0, 1.0, 4, 15, CodingConfig(3), seed=3)


def test_pretrain_recovers_separable_labels():
    ds = _toy_dataset()
    model = pretrain(ds.Y, ds.labels, _toy_config())
    codes = batch_code(model.D, ds.Y, CodingConfig(3))
    preds = [classify(model.W, x)[0] for x in codes.columns]
    assert np.array_equal(preds, ds.labels)


def test_pretrain_zero_weights_degenerate_to_plain_training():
    ds = _toy_dataset()
    cfg = PretrainConfig(0.0, 0.0, 4, 5, CodingConfig(3), seed=3)
    model = pretrain(ds.Y, ds.labels, cfg)
    assert np.all(model.W == 0)
    assert np.all(model.A == 0)
    plain = train(ds.Y, DLConfig(8, 5, CodingConfig(3), seed=3))
    assert np.allclose(model.D.atoms, plain.dictionary.atoms, atol=1e-12)


def test_pretrain_renormalization_round_trip():
    ds = _toy_dataset()
    cfg = PretrainConfig(2.0, 3.0, 4, 5, CodingConfig(3), seed=3)
    from dictad.supervised import build_indicators as bi, stack_training as st

    H, Q, _ = bi(ds.labels, 2, 4)
    stacked = st(ds.Y, H, Q, 2.0, 3.0)
    learned = train(stacked, DLConfig(8, 5, CodingConfig(3), seed=3)).dictionary.atoms
    model = pretrain(ds.Y, ds.labels, cfg)
    norms = np.linalg.norm(learned[:16], axis=0)
    rebuilt = np.vstack([
        model.D.atoms,
        np.sqrt(2.0) * model.W,
        np.sqrt(3.0) * model.A,
    ]) * norms
    assert np.max(np.abs(rebuilt - learned)) < 1e-10


def test_pretrain_missing_class_rejected():
    ds = _toy_dataset()
    with pytest.raises(DataError):
        pretrain(ds.Y, np.zeros(ds.n_samples, dtype=int) + 1, _toy_config())


def test_classify_identity():
    cls, scores = classify(np.eye(4), SparseCode([2], [1.0], 4))
    assert cls == 2
    assert np.allclose(scores, [0, 0, 1, 0])


def test_classify_zero_code_ties_to_class_zero():
    cls, scores = classify(np.random.default_rng(2).standard_normal((3, 5)),
                           SparseCode([], [], 5))
    assert cls == 0
    assert np.all(scores == 0)


def test_classify_matches_dense_product():
    rng = np.random.default_rng(3)
    W = rng.standard_normal((4, 10))
    x = SparseCode([1, 4, 7], rng.standard_normal(3), 10)
    cls, scores = classify(W, x)
    dense = W @ x.to_dense()
    assert np.max(np.abs(scores - dense)) < 1e-12
    assert cls == int(np.argmax(dense))


def test_model_round_trip_bit_exact(tmp_path):
    ds = _toy_dataset()
    model = pretrain(ds.Y, ds.labels, _toy_config())
    path = tmp_path / "model.npz"
    save_model(path, model, sparsity=3)
    loaded, s = load_model(path)
    assert s == 3
    assert np.array_equal(loaded.D.atoms, model.D.atoms)
    assert np.array_equal(loaded.W, model.W)
    assert np.array_equal(loaded.A, model.A)
    assert np.array_equal(loaded.class_of_atom, model.class_of_atom)


def test_model_version_checked(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, format_version=np.int64(MODEL_FORMAT_VERSION + 1),
             D=np.eye(2), W=np.eye(2), A=np.eye(2),
             class_of_atom=np.zeros(2), sparsity=np.int64(1))
    with pytest.raises(DataError, match="unsupported model format version"):
        load_model(path)
