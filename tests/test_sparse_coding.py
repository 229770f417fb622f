import warnings

import numpy as np
import pytest

from dictad import (
    CodingConfig,
    CodingError,
    Dictionary,
    SparseCode,
    SparseCodeMatrix,
    atom_popularity,
    batch_code,
    omp,
    representation_errors,
)

from helpers import planted_instance, random_dictionary


def naive_omp_oracle(A, y, s):
    """Independent greedy oracle: recomputes correlations and a dense
    least-squares solve from scratch at every step."""
    support = []
    for _ in range(s):
        r = y - (A[:, support] @ np.linalg.lstsq(A[:, support], y, rcond=None)[0]
                 if support else np.zeros_like(y))
        if np.linalg.norm(r) <= 1e-9 * np.linalg.norm(y):
            break
        corr = np.abs(A.T @ r)
        corr[support] = -np.inf
        support.append(int(np.argmax(corr)))
    coef = np.linalg.lstsq(A[:, support], y, rcond=None)[0]
    return support, coef


def test_identity_dictionary_single_atom():
    D = Dictionary(np.eye(4))
    x = omp(D, np.array([0.0, 3.0, 0.0, 0.0]), CodingConfig(1))
    assert list(x.support) == [1]
    assert np.allclose(x.values, [3.0])
    assert np.linalg.norm(np.array([0, 3, 0, 0]) - D.atoms @ x.to_dense()) < 1e-12


def test_exact_single_atom_signal():
    D = random_dictionary(6, 10, seed=0)
    for j in (0, 4, 9):
        x = omp(D, 2.0 * D.atoms[:, j], CodingConfig(1))
        assert list(x.support) == [j]
        assert np.allclose(x.values, [2.0])


def test_matches_naive_greedy_oracle():
    cfg = CodingConfig(3)
    for seed in range(25):
        D = random_dictionary(8, 16, seed=seed)
        y = np.random.default_rng(1000 + seed).standard_normal(8)
        x = omp(D, y, cfg)
        sup, coef = naive_omp_oracle(D.atoms, y, 3)
        assert list(x.support) == sup
        assert np.max(np.abs(x.values - coef)) < 1e-10


def test_residual_orthogonal_to_selected_atoms():
    for seed in range(10):
        D = random_dictionary(12, 20, seed=seed)
        y = np.random.default_rng(seed).standard_normal(12)
        x = omp(D, y, CodingConfig(5))
        r = y - D.atoms @ x.to_dense()
        assert np.max(np.abs(D.atoms[:, x.support].T @ r)) <= 1e-8 * np.linalg.norm(y)


def test_residual_norm_non_increasing_over_steps():
    D = random_dictionary(10, 15, seed=3)
    y = np.random.default_rng(3).standard_normal(10)
    norms = [
        np.linalg.norm(y - D.atoms @ omp(D, y, CodingConfig(s)).to_dense())
        for s in range(1, 7)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_dimension_mismatch_rejected():
    D = random_dictionary(8, 12, seed=0)
    with pytest.raises(CodingError):
        omp(D, np.zeros(7), CodingConfig(2))


def test_sparsity_above_atom_count_rejected():
    D = random_dictionary(4, 3, seed=0)
    with pytest.raises(CodingError):
        omp(D, np.ones(4), CodingConfig(4))


def test_duplicate_atoms_reported_as_singular():
    a = np.array([1.0, 0.0, 0.0])
    D = Dictionary(np.column_stack([a, a]))
    # second step has only the duplicate direction left -> singular Gram
    with pytest.raises(CodingError, match="singular"):
        omp(D, np.array([1.0, 1.0, 0.0]), CodingConfig(2, residual_tol=0.0))


def test_zero_first_atom_reported_as_singular():
    # both correlations are 0, so the all-zero atom 0 is picked first and its
    # 1 x 1 Gram is 0: the first solve is singular, not a NaN coefficient
    D = Dictionary(np.array([[0.0, 0.0], [0.0, 1.0]]))
    y = np.array([1.0, 0.0])
    with pytest.raises(CodingError, match=r"^singular support sub-matrix on atoms \[0\] "):
        omp(D, y, CodingConfig(1))
    with pytest.raises(CodingError, match=r"^column 0: singular support sub-matrix on atoms \[0\] "):
        batch_code(D, y[:, None], CodingConfig(1))
    with pytest.raises(CodingError, match=r"^column 1: singular support sub-matrix on atoms \[0\] "):
        batch_code(D, np.column_stack([[0.0, 1.0], y]), CodingConfig(1))


def _code_one_column(D, y, cfg):
    return batch_code(D, y[:, None], cfg)


@pytest.mark.parametrize("code", [omp, _code_one_column], ids=["omp", "batch_code"])
@pytest.mark.parametrize("duplicate", [False, True], ids=["normal", "duplicate-atoms"])
def test_coding_keeps_error_state_and_warns_nothing(code, duplicate):
    if duplicate:
        a = np.array([1.0, 0.0, 0.0])
        D, y, cfg = Dictionary(np.column_stack([a, a])), np.array([1.0, 1.0, 0.0]), CodingConfig(2)
    else:
        D, cfg = random_dictionary(8, 16, seed=5), CodingConfig(5)
        y = np.random.default_rng(5).standard_normal(8)
    before = (np.geterr(), np.geterrcall())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if duplicate:
            with pytest.raises(CodingError, match="singular"):
                code(D, y, cfg)
        else:
            assert code(D, y, cfg).to_dense().any()
    assert (np.geterr(), np.geterrcall()) == before


def test_zero_signal_codes_empty():
    D = random_dictionary(5, 8, seed=1)
    x = omp(D, np.zeros(5), CodingConfig(3))
    assert x.nnz == 0


def test_batch_trivial_atom_columns():
    D = random_dictionary(6, 9, seed=2)
    Y = D.atoms[:, [1, 2]]
    X = batch_code(D, Y, CodingConfig(1))
    assert [list(c.support) for c in X.columns] == [[1], [2]]
    assert all(np.allclose(c.values, [1.0]) for c in X.columns)


def test_batch_equals_per_column_omp():
    Dd = random_dictionary(8, 16, seed=11)
    Y = np.random.default_rng(11).standard_normal((8, 20))
    cfg = CodingConfig(3)
    X = batch_code(Dd, Y, cfg)
    for i in range(Y.shape[1]):
        xi = omp(Dd, Y[:, i], cfg)
        assert np.array_equal(X.columns[i].support, xi.support)
        assert np.array_equal(X.columns[i].values, xi.values)


def test_batch_single_column_reduces_to_omp():
    D = random_dictionary(8, 16, seed=4)
    y = np.random.default_rng(4).standard_normal(8)
    X = batch_code(D, y.reshape(-1, 1), CodingConfig(2))
    x = omp(D, y, CodingConfig(2))
    assert np.array_equal(X.columns[0].support, x.support)
    assert np.array_equal(X.columns[0].values, x.values)


def test_batch_error_reports_column_index():
    a = np.array([1.0, 0.0])
    D = Dictionary(np.column_stack([a, a]))
    Y = np.column_stack([np.array([1.0, 1.0]), np.array([1.0, 1.0])])
    with pytest.raises(CodingError, match="column 0"):
        batch_code(D, Y, CodingConfig(2))


def test_batch_parallel_matches_sequential(monkeypatch):
    D = random_dictionary(8, 16, seed=7)
    Y = np.random.default_rng(7).standard_normal((8, 30))
    cfg = CodingConfig(3)
    seq = batch_code(D, Y, cfg)
    monkeypatch.setenv("DICTAD_THREADS", "4")
    par = batch_code(D, Y, cfg)
    for a, b in zip(seq.columns, par.columns):
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.values, b.values)


def test_representation_errors_exact_codes():
    D, X, Y = planted_instance(8, 12, 10, 3, seed=5)
    Xm = SparseCodeMatrix.from_dense(X)
    assert np.all(representation_errors(Dictionary(D), Y, Xm) < 1e-12)


def test_representation_errors_zero_codes():
    D = random_dictionary(6, 8, seed=6)
    Y = np.random.default_rng(6).standard_normal((6, 5))
    Xm = SparseCodeMatrix([SparseCode([], [], 8) for _ in range(5)])
    assert np.allclose(representation_errors(D, Y, Xm), np.linalg.norm(Y, axis=0))


def test_representation_errors_dense_oracle():
    D = random_dictionary(9, 14, seed=8)
    Y = np.random.default_rng(8).standard_normal((9, 7))
    X = batch_code(D, Y, CodingConfig(4))
    dense = np.linalg.norm(Y - D.atoms @ X.to_dense(), axis=0)
    assert np.max(np.abs(representation_errors(D, Y, X) - dense)) < 1e-12


def test_popularity_zero_codes():
    X = SparseCodeMatrix([SparseCode([], [], 6) for _ in range(4)])
    assert np.array_equal(atom_popularity(X), np.zeros(6, dtype=int))


def test_popularity_counts_supports():
    X = SparseCodeMatrix([
        SparseCode([0, 2], [1.0, 1.0], 4),
        SparseCode([2], [5.0], 4),
        SparseCode([2, 3], [1.0, -1.0], 4),
    ])
    assert list(atom_popularity(X)) == [1, 0, 3, 1]


def test_popularity_matches_brute_force_and_total_nnz():
    rng = np.random.default_rng(9)
    cols = []
    for _ in range(50):
        k = rng.integers(0, 5)
        sup = rng.choice(12, size=k, replace=False)
        cols.append(SparseCode(sup, rng.standard_normal(k), 12))
    X = SparseCodeMatrix(cols)
    p = atom_popularity(X)
    brute = [sum(1 for c in cols if j in set(c.support.tolist())) for j in range(12)]
    assert list(p) == brute
    assert p.sum() == sum(c.nnz for c in cols)


def test_strided_signal_codes_like_batch_column():
    # a hypothesis counterexample: Y[:, i] is a strided view, and y @ D on it
    # summed in another order than the batch kernel, moving the last bit
    D = Dictionary(np.array([[0.903], [0.094], [-0.743], [-0.922]]))
    Y = np.array([[-0.458, 0.22], [-1.01, -0.209], [-0.159, 0.541], [0.215, 0.355]])
    X = batch_code(D, Y, CodingConfig(1))
    for i, c in enumerate(X.columns):
        x = omp(D, Y[:, i], CodingConfig(1))
        assert np.array_equal(x.support, c.support)
        assert np.array_equal(x.values, c.values)
