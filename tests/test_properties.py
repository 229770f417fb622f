"""Property tests over generated shapes: the coding kernel and the code
statistics (m, n, s, N), including all-zero and exactly representable
signals; the phi = 1 RLS stream against batch least squares; the AK-SVD
objective trace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictad import (
    CodingConfig,
    CodingError,
    Dictionary,
    DiscriminativeModel,
    DLConfig,
    SparseCode,
    SparseCodeMatrix,
    atom_popularity,
    batch_code,
    init_state,
    omp,
    representation_errors,
    rls_update,
    train,
)

from test_online import _sparse_cols
from test_sparse_coding import naive_omp_oracle

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def coding_instances(draw):
    """A unit-atom dictionary, a signal matrix mixing random, all-zero and
    exactly representable (at most s atoms) columns, and a sparsity."""
    s = draw(st.integers(1, 5))
    m = draw(st.integers(s + 2, 14))
    n = draw(st.integers(s, 24))
    kinds = draw(st.lists(st.sampled_from(["random", "zero", "exact"]), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0)
    Y = rng.standard_normal((m, len(kinds)))
    for i, kind in enumerate(kinds):
        if kind == "zero":
            Y[:, i] = 0.0
        elif kind == "exact":
            k = int(rng.integers(1, s + 1))
            coef = rng.uniform(0.5, 1.5, k) * rng.choice([-1.0, 1.0], k)
            Y[:, i] = A[:, rng.choice(n, k, replace=False)] @ coef
    return Dictionary(A), Y, CodingConfig(s)


@SETTINGS
@given(coding_instances())
def test_batch_code_matches_greedy_oracle(instance):
    D, Y, cfg = instance
    for i, code in enumerate(batch_code(D, Y, cfg).columns):
        support, coef = naive_omp_oracle(D.atoms, Y[:, i], cfg.s)
        assert code.support.tolist() == support
        assert np.max(np.abs(code.values - coef), initial=0.0) < 1e-10


@SETTINGS
@given(coding_instances())
def test_batch_code_column_equals_omp(instance):
    D, Y, cfg = instance
    for i, code in enumerate(batch_code(D, Y, cfg).columns):
        single = omp(D, Y[:, i], cfg)
        assert np.array_equal(code.support, single.support)
        assert np.array_equal(code.values, single.values)


@SETTINGS
@given(coding_instances(), st.integers(0, 2**32 - 1))
def test_code_statistics_match_dense_oracles(instance, seed):
    D, Y, cfg = instance
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(Y.shape[1]):
        k = int(rng.integers(0, cfg.s + 1))
        cols.append(SparseCode(rng.choice(D.n, k, replace=False), rng.standard_normal(k), D.n))
    for X in (SparseCodeMatrix(cols), batch_code(D, Y, cfg)):
        dense = X.to_dense()
        assert np.array_equal(SparseCodeMatrix.from_dense(dense).to_dense(), dense)
        brute = [sum(j in c.support.tolist() for c in X.columns) for j in range(D.n)]
        assert atom_popularity(X).tolist() == brute
        oracle = np.linalg.norm(Y - D.atoms @ dense, axis=0)
        errs = representation_errors(D, Y, X)
        assert np.max(np.abs(errs - oracle)) <= 1e-12 * (1.0 + np.max(oracle))


def test_batch_code_across_lockstep_chunks():
    # more signals than one lockstep pass codes together
    rng = np.random.default_rng(17)
    A = rng.standard_normal((8, 12))
    A /= np.linalg.norm(A, axis=0)
    D, cfg = Dictionary(A), CodingConfig(3)
    Y = rng.standard_normal((8, 600))
    for i, code in enumerate(batch_code(D, Y, cfg).columns):
        single = omp(D, Y[:, i], cfg)
        assert np.array_equal(code.support, single.support)
        assert np.array_equal(code.values, single.values)
    # only column 300 needs a second atom, and the only one left duplicates the first
    dup = Dictionary(np.column_stack([A[:, 0], A[:, 0]]))
    Y = np.tile(A[:, [0]], (1, 600))
    Y[:, 300] += A[:, 1]
    with pytest.raises(CodingError, match="column 300: singular"):
        batch_code(dup, Y, CodingConfig(2))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 12), st.integers(2, 12), st.integers(3, 5),
       st.integers(1, 250), st.integers(0, 2**32 - 1))
def test_rls_at_phi_1_equals_batch_least_squares(s, extra_atoms, m, warm_factor, n_stream, seed):
    # The stream starts from the least-squares fit of a warm-up of at least 3n
    # columns and may cross the periodic re-inversion at 100 updates. init_state
    # keeps a 1e-8 * mean-diagonal ridge in G for conditioning, so the batch
    # problem that RLS solves exactly carries that ridge too.
    n = s + extra_atoms
    rng = np.random.default_rng(seed)
    Dt = rng.standard_normal((m, n))
    Xw = _sparse_cols(rng, n, s, warm_factor * n)
    Yw = Dt @ Xw + 0.05 * rng.standard_normal((m, Xw.shape[1]))
    G0 = Xw @ Xw.T + (1e-8 * np.trace(Xw @ Xw.T) / n) * np.eye(n)
    model = DiscriminativeModel(Dictionary((Yw @ Xw.T) @ np.linalg.inv(G0)), np.zeros((2, n)),
                                np.zeros((n, n)), np.arange(n) % 2)
    state = init_state(model, Yw, SparseCodeMatrix.from_dense(Xw), phi=1.0,
                       coding=CodingConfig(s))
    Xs = _sparse_cols(rng, n, s, n_stream)
    Ys = Dt @ Xs + 0.05 * rng.standard_normal((m, n_stream))
    for y, x in zip(Ys.T, SparseCodeMatrix.from_dense(Xs).columns):
        rls_update(state, y, x)
    Xall, Yall = np.hstack([Xw, Xs]), np.hstack([Yw, Ys])
    batch = (Yall @ Xall.T) @ np.linalg.inv(G0 + Xs @ Xs.T)
    rel = np.linalg.norm(state.model.D.atoms - batch) / np.linalg.norm(batch)
    assert rel <= 1e-8


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 12), st.integers(2, 12), st.integers(1, 60),
       st.integers(1, 8), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
def test_train_objective_trace_never_increases(s, extra_atoms, m, N, iterations, tol, seed):
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((m, N))
    res = train(Y, DLConfig(s + extra_atoms, iterations, CodingConfig(s, tol), seed=seed))
    trace = res.objective_trace
    assert np.all(np.diff(trace) <= 1e-9 * (1.0 + trace[:-1]))
