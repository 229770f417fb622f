import ast
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dictad import (
    CodingConfig,
    CodingError,
    DataError,
    Dictionary,
    NumericalError,
    SparseCode,
    SparseCodeMatrix,
    atom_popularity,
    batch_code,
    omp,
    representation_errors,
)

from dictad import online, sparse_coding
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


@pytest.mark.parametrize("s, residual_tol, message", [
    (0, 0.0, "^sparsity must be >= 1$"),
    (2, -1.0, "^residual_tol must be finite and nonnegative$"),
    (2, np.nan, "^residual_tol must be finite and nonnegative$"),
    (2, np.inf, "^residual_tol must be finite and nonnegative$"),
], ids=["zero-sparsity", "negative-tol", "nan-tol", "inf-tol"])
def test_coding_config_refuses_bad_parameters(s, residual_tol, message):
    with pytest.raises(CodingError, match=message):
        CodingConfig(s, residual_tol)


@pytest.mark.parametrize("support, values, message", [
    ([1, 3, 1], [1.0, 2.0, 3.0], "duplicate indices"),
    ([-1, 2], [1.0, 2.0], "out of range"),
    ([0, 5], [1.0, 2.0], "out of range"),
    ([0, 2], [1.0], "equal length"),
], ids=["duplicate-index", "negative-index", "index-at-dim", "unequal-length"])
def test_sparse_code_rejects_invalid_support(support, values, message):
    with pytest.raises(CodingError, match=message):
        SparseCode(np.array(support), np.array(values), 5)


def test_duplicate_atoms_reported_as_singular():
    a = np.array([1.0, 0.0, 0.0])
    D = Dictionary(np.column_stack([a, a]))
    # second step has only the duplicate direction left -> singular Gram
    with pytest.raises(CodingError, match="singular"):
        omp(D, np.array([1.0, 1.0, 0.0]), CodingConfig(2, residual_tol=0.0))


@pytest.mark.parametrize("earlier", [0, 1, 3], ids=["alone", "after-1", "after-3"])
def test_exact_duplicate_atom_reported_as_singular_at_every_scale(earlier):
    # with n = s every atom is picked, the duplicate last: its Cholesky pivot
    # d = g - ||w||^2 is rounding noise, positive for about a quarter of the
    # scales (g - (g / sqrt(g))^2 alone), and must still be refused
    rng = np.random.default_rng(23)
    cfg = CodingConfig(earlier + 2)
    for scale in np.logspace(-150, 150, 1001):  # Gram entries 1e-300 to 1e300
        m = int(rng.integers(earlier + 3, 30))
        B = rng.standard_normal((m, earlier + 1))
        D = Dictionary(np.column_stack([B, B[:, -1]]) * scale)
        y = rng.standard_normal(m) * scale
        with pytest.raises(CodingError, match="^singular support sub-matrix"):
            omp(D, y, cfg)
        with pytest.raises(CodingError, match="^column 1: singular support sub-matrix"):
            batch_code(D, np.column_stack([B[:, 0] * scale, y]), cfg)


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


@pytest.mark.parametrize("scales", [[1e160] * 6, [1.0, 1.0, 1e160, 1.0, 1.0, 1.0]],
                         ids=["every-atom", "one-atom"])
def test_overflowed_atom_scale_reported_as_such(scales):
    # atoms of norm 1e160 make G = A^T A overflow to inf: the refused pivot
    # is the atom scale's fault, not that of duplicate or collinear atoms
    rng = np.random.default_rng(29)
    A = rng.standard_normal((8, 6))
    D = Dictionary(A / np.linalg.norm(A, axis=0) * scales)
    Y = rng.standard_normal((8, 2))
    message = (r"singular support sub-matrix on atoms \[\d+(, \d+)*\]: the atom scale "
               r"overflowed \(the atoms' Gram matrix holds non-finite entries\)$")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(CodingError, match="^" + message):
            omp(D, Y[:, 0], CodingConfig(3))
        with pytest.raises(CodingError, match="^column 0: " + message):
            batch_code(D, Y, CodingConfig(3))
        with pytest.raises(CodingError, match="^column 1: " + message):
            batch_code(D, np.column_stack([np.zeros(8), Y[:, 1]]), CodingConfig(3))


@pytest.mark.parametrize("value, entries", [
    (1e160, slice(3, 4)), (1e160, slice(None)), (1e154, slice(None)),
], ids=["one-square-overflows", "all-squares-overflow", "sum-overflows"])
def test_finite_signal_whose_norm_overflows_is_refused(monkeypatch, value, entries):
    # its threshold would be inf too, so it would be coded empty; an inf
    # signal is still coded empty, without a warning
    D, cfg = random_dictionary(8, 16, seed=3), CodingConfig(3)
    Y = np.random.default_rng(3).standard_normal((8, 5))
    Y[:, 1] = np.inf
    Y[entries, 3] = value
    message = r"the signal's norm overflows; rescale the features \(--normalize\)$"
    with pytest.raises(DataError, match="^" + message):
        omp(D, Y[:, 3], cfg)
    assert omp(D, Y[:, 1], cfg).nnz == 0
    monkeypatch.setattr(sparse_coding, "_CHUNK", 2)  # column 3 is the second chunk's first
    with pytest.raises(DataError, match="^column 3: " + message):
        batch_code(D, Y, cfg)
    assert batch_code(D, Y[:, :3], cfg).nnz.tolist() == [3, 0, 3]


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
        # the solves' own error state holds under any ambient one
        for ambient in ({}, {"all": "raise"}):
            with np.errstate(**ambient):
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


def test_batch_parallel_matches_sequential():
    D = random_dictionary(8, 16, seed=7)
    Y = np.random.default_rng(7).standard_normal((8, 30))
    cfg = CodingConfig(3)
    seq = batch_code(D, Y, cfg)
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
    Xm = SparseCodeMatrix(np.zeros((5, 0), dtype=int), np.zeros((5, 0)), np.zeros(5, dtype=int), 8)
    assert np.allclose(representation_errors(D, Y, Xm), np.linalg.norm(Y, axis=0))


def test_representation_errors_dense_oracle():
    D = random_dictionary(9, 14, seed=8)
    Y = np.random.default_rng(8).standard_normal((9, 7))
    X = batch_code(D, Y, CodingConfig(4))
    dense = np.linalg.norm(Y - D.atoms @ X.to_dense(), axis=0)
    assert np.max(np.abs(representation_errors(D, Y, X) - dense)) < 1e-12


def test_popularity_zero_codes():
    X = SparseCodeMatrix(np.zeros((4, 0), dtype=int), np.zeros((4, 0)), np.zeros(4, dtype=int), 6)
    assert np.array_equal(atom_popularity(X), np.zeros(6, dtype=int))


def test_popularity_counts_supports():
    X = SparseCodeMatrix(np.array([[0, 2], [2, 0], [2, 3]]),
                         np.array([[1.0, 1.0], [5.0, 0.0], [1.0, -1.0]]), np.array([2, 1, 2]), 4)
    assert list(atom_popularity(X)) == [1, 0, 3, 1]


def test_popularity_matches_brute_force_and_total_nnz():
    rng = np.random.default_rng(9)
    cols = []
    for _ in range(50):
        k = rng.integers(0, 5)
        sup = rng.choice(12, size=k, replace=False)
        cols.append(SparseCode(sup, rng.standard_normal(k), 12))
    X = SparseCodeMatrix.from_dense(np.column_stack([c.to_dense() for c in cols]))
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


@pytest.mark.parametrize("made, public, name, signature, error, message", [
    (online._gain, np.linalg.solve, "solve1", "dd->d", NumericalError,
     ("online Gram matrix became singular",)),
    (online._svd, lambda M: np.linalg.svd(M, compute_uv=False), "svd", "d->d", NumericalError,
     ("spectral norm: SVD did not converge",)),
    (online._eigvalsh, np.linalg.eigvalsh, "eigvalsh_lo", "d->d", NumericalError,
     ("spectral norm: eigenvalues did not converge",)),
], ids=["gain", "svd", "eigvalsh"])
def test_lapack_calls_keep_the_wrappers_bits_and_error_state(monkeypatch, made, public, name,
                                                             signature, error, message):
    rng = np.random.default_rng(20)
    M = rng.standard_normal((5, 5))
    arrays = (M @ M.T + np.eye(5), rng.standard_normal(5))[:signature.index("-")]
    signatures = []

    def invalid(*arrays, signature):  # LAPACK's failure reaches numpy as the invalid flag
        signatures.append(signature)
        return np.full(1, np.inf) - np.inf

    before = (np.geterr(), np.geterrcall())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1.0, 1e-300, 1e300):
            args = [a * scale for a in arrays]
            want = public(*args).tobytes()
            assert made(*args).tobytes() == want
            with np.errstate(all="raise"):
                assert made(*args).tobytes() == want
        monkeypatch.setattr(online, "_umath_linalg", SimpleNamespace(**{name: invalid}))
        for state in ({}, {"all": "raise"}):
            with np.errstate(**state), pytest.raises(error) as e:
                made(*arrays)
            assert type(e.value) is error and e.value.args == message
    assert signatures == [signature, signature]
    assert (np.geterr(), np.geterrcall()) == before


def test_only_online_calls_numpy_lapack_gufuncs():
    # the np.linalg wrappers are bypassed in one place, online._lapack; the
    # coding kernel uses public numpy only
    modules = sorted(Path(online.__file__).parent.glob("*.py"))
    for token in ("_umath_linalg", "np.errstate(call="):
        users = [p.name for p in modules if token in p.read_text(encoding="utf-8")]
        assert users == ["online.py"], token
    # and the gufuncs it passes to _lapack are those that pyproject.toml's
    # numpy cap names as its reason
    tree = ast.parse(Path(online.__file__).read_text(encoding="utf-8"))
    called = {node.args[0].value for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lapack"}
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    comment = " ".join(line.strip().lstrip("# ")
                       for line in pyproject.read_text(encoding="utf-8").splitlines()
                       if line.strip().startswith("#"))
    listed = re.search(r"online\._lapack calls the (.+?) gufuncs", comment).group(1)
    assert called == set(re.split(r", | and ", listed))


_EYE = Dictionary(np.eye(3))


@pytest.mark.parametrize("call, message", [
    (lambda: Dictionary(np.ones(3)), "dictionary must be a nonempty 2-d matrix"),
    (lambda: Dictionary(np.ones((3, 0))), "dictionary must be a nonempty 2-d matrix"),
    (lambda: batch_code(_EYE, np.ones(3), CodingConfig(1)),
     "batch input must be an m x N matrix with N >= 1"),
    (lambda: batch_code(_EYE, np.ones((3, 0)), CodingConfig(1)),
     "batch input must be an m x N matrix with N >= 1"),
    (lambda: sparse_coding.residuals(_EYE, np.ones((2, 1)),
                                     SparseCodeMatrix.from_dense(np.zeros((3, 1)))),
     "dimension mismatch: Y (2, 1), D (3, 3), X 3x1"),
    (lambda: sparse_coding.residuals(_EYE, np.ones((3, 1)),
                                     SparseCodeMatrix.from_dense(np.zeros((4, 1)))),
     "dimension mismatch: Y (3, 1), D (3, 3), X 4x1"),
], ids=["dictionary-1d", "dictionary-no-atoms", "batch-1d", "batch-no-signals",
        "residuals-signal-dimension", "residuals-code-dimension"])
def test_sparse_coding_refusals(call, message):
    with pytest.raises(CodingError, match=f"^{re.escape(message)}$"):
        call()
