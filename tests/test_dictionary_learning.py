import re

import numpy as np
import pytest

from dictad import (
    CodingConfig,
    DataError,
    Dictionary,
    DLConfig,
    SparseCodeMatrix,
    batch_code,
    init_dictionary,
    objective,
    train,
)
from dictad.dictionary_learning import _select_init_columns, atom_update_pass

from helpers import planted_instance


def test_init_uses_data_columns_verbatim():
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((6, 4))
    Y /= np.linalg.norm(Y, axis=0)
    D = init_dictionary(Y, 4, seed=1)
    # all four unit columns must appear, possibly permuted
    for j in range(4):
        dots = np.abs(D.atoms.T @ Y[:, j])
        assert np.max(dots) > 1 - 1e-12


def test_init_deterministic():
    Y = np.random.default_rng(2).standard_normal((8, 20))
    a = init_dictionary(Y, 10, seed=42)
    b = init_dictionary(Y, 10, seed=42)
    assert np.array_equal(a.atoms, b.atoms)


def test_init_pads_with_gaussian_atoms_when_short():
    Y = np.random.default_rng(3).standard_normal((8, 5))
    D = init_dictionary(Y, 9, seed=7)
    assert D.n == 9
    assert np.allclose(np.linalg.norm(D.atoms, axis=0), 1.0, atol=1e-12)
    chosen = _select_init_columns(Y, 9, np.random.default_rng(7))
    assert len(set(chosen.tolist())) == chosen.size


def test_init_rejects_all_zero_data():
    with pytest.raises(DataError):
        init_dictionary(np.zeros((4, 6)), 3, seed=0)


def test_atom_update_exact_fit_is_fixed_point():
    Dt, Xt, Y = planted_instance(8, 6, 20, 2, seed=4)
    # make every atom's first nonzero component nonnegative so the sign
    # convention leaves the planted pair untouched
    for j in range(Dt.shape[1]):
        nz = np.flatnonzero(Dt[:, j])
        if Dt[nz[0], j] < 0:
            Dt[:, j] *= -1
            Xt[j, :] *= -1
    Y = Dt @ Xt
    D2, X2 = atom_update_pass(Dictionary(Dt), Y, SparseCodeMatrix.from_dense(Xt))
    assert np.max(np.abs(D2.atoms - Dt)) < 1e-10
    assert np.max(np.abs(X2.to_dense() - Xt)) < 1e-10


def test_atom_update_single_atom_single_signal():
    y = np.array([3.0, 4.0])
    D = Dictionary(np.array([[1.0], [0.0]]))
    X = SparseCodeMatrix.from_dense(np.array([[1.0]]))
    D2, X2 = atom_update_pass(D, y.reshape(-1, 1), X)
    assert np.allclose(D2.atoms[:, 0], y / 5.0)
    assert np.allclose(X2.to_dense(), [[5.0]])


def test_atom_update_never_increases_objective():
    for seed in range(10):
        Dt, _, Y = planted_instance(10, 15, 40, 3, seed=seed, sigma=0.1)
        D = init_dictionary(Y, 15, seed=seed)
        X = batch_code(D, Y, CodingConfig(3))
        before = objective(D, Y, X)
        D2, X2 = atom_update_pass(D, Y, X)
        assert objective(D2, Y, X2) <= before + 1e-9


def test_atom_update_keeps_supports_and_unit_norms():
    _, _, Y = planted_instance(10, 12, 30, 3, seed=5, sigma=0.05)
    D = init_dictionary(Y, 12, seed=5)
    X = batch_code(D, Y, CodingConfig(3))
    D2, X2 = atom_update_pass(D, Y, X)
    assert np.allclose(np.linalg.norm(D2.atoms, axis=0), 1.0, atol=1e-9)
    for a, b in zip(X.columns, X2.columns):
        assert np.array_equal(a.support, b.support)


def test_objective_trivial_cases():
    Dt, Xt, Y = planted_instance(6, 8, 10, 2, seed=6)
    Xm = SparseCodeMatrix.from_dense(Xt)
    assert objective(Dictionary(Dt), Y, Xm) < 1e-12
    zero = SparseCodeMatrix.from_dense(np.zeros_like(Xt))
    assert abs(objective(Dictionary(Dt), Y, zero) - np.linalg.norm(Y, "fro")) < 1e-12


def test_objective_matches_dense_oracle():
    D, _, Y = planted_instance(7, 9, 12, 2, seed=7, sigma=0.2)
    X = batch_code(Dictionary(D), Y, CodingConfig(3))
    manual = np.sqrt(np.sum((Y - D @ X.to_dense()) ** 2))
    assert abs(objective(Dictionary(D), Y, X) - manual) < 1e-12


def test_train_single_iteration_trace_length():
    _, _, Y = planted_instance(8, 10, 24, 2, seed=8, sigma=0.05)
    res = train(Y, DLConfig(10, 1, CodingConfig(2), seed=8))
    assert res.objective_trace.shape == (1,)


def test_train_trace_non_increasing():
    _, _, Y = planted_instance(12, 16, 64, 3, seed=9, sigma=0.05)
    res = train(Y, DLConfig(16, 20, CodingConfig(3), seed=9))
    assert np.max(np.diff(res.objective_trace)) <= 1e-9


def test_train_improves_on_planted_model():
    _, _, Y = planted_instance(12, 16, 64, 3, seed=10, sigma=0.02)
    res = train(Y, DLConfig(16, 10, CodingConfig(3), seed=10))
    assert res.objective_trace[-1] <= res.objective_trace[0]


def test_train_bit_deterministic():
    _, _, Y = planted_instance(10, 12, 40, 3, seed=11, sigma=0.05)
    cfg = DLConfig(12, 5, CodingConfig(3), seed=11)
    a = train(Y, cfg)
    b = train(Y, cfg)
    assert np.array_equal(a.dictionary.atoms, b.dictionary.atoms)
    assert np.array_equal(a.objective_trace, b.objective_trace)
    assert np.array_equal(a.codes.to_dense(), b.codes.to_dense())


def test_train_atoms_unit_norm():
    _, _, Y = planted_instance(10, 14, 50, 3, seed=12, sigma=0.05)
    res = train(Y, DLConfig(14, 5, CodingConfig(3), seed=12))
    assert np.allclose(np.linalg.norm(res.dictionary.atoms, axis=0), 1.0, atol=1e-9)


def test_unused_atom_diagnostics():
    # one dominant direction, more atoms than the data can occupy
    rng = np.random.default_rng(13)
    Y = np.outer(np.array([1.0, 0, 0, 0]), rng.uniform(1, 2, 30))
    res = train(Y, DLConfig(4, 3, CodingConfig(1), seed=13))
    pop_used = set(range(4)) - set(res.unused_atoms)
    assert len(pop_used) >= 1
    assert all(0 <= j < 4 for j in res.unused_atoms)


@pytest.mark.parametrize("call, message", [
    (lambda: DLConfig(2, 5, CodingConfig(3)), "n_atoms 2 < sparsity 3"),
    (lambda: DLConfig(4, 0, CodingConfig(3)), "iterations must be >= 1"),
    (lambda: objective(Dictionary(np.eye(3)), np.ones((3, 4)),
                       SparseCodeMatrix.from_dense(np.zeros((3, 5)))),
     "dimension mismatch: Y (3, 4) vs D (3, 3), N=5"),
    (lambda: objective(Dictionary(np.eye(3)), np.ones((2, 5)),
                       SparseCodeMatrix.from_dense(np.zeros((3, 5)))),
     "dimension mismatch: Y (2, 5) vs D (3, 3), N=5"),
], ids=["atoms-below-sparsity", "no-iterations", "objective-sample-count",
        "objective-signal-dimension"])
def test_dictionary_learning_refusals(call, message):
    # the CLI refuses these values as config errors before they get here
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call()
