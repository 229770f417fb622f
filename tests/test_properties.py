"""Property tests over generated shapes: the coding kernel and the code
statistics (m, n, s, N), including all-zero and exactly representable
signals; both OMP paths against the kernel that tests every early exit on
the exact residual; the phi = 1 RLS stream against batch least squares; the
RLS update against its fill_diagonal/np.linalg.solve form, and the solved gain
against a Sherman-Morrison inverse; the AK-SVD objective trace, and
train's bytes against its loop that formed every residual anew; CSV
reading and writing against per-value oracles;
the block-drawn synthetic generator against its per-sample draws; library
calls leave their input arrays unchanged, C- or Fortran-ordered; normalize's
blockwise z-scores against numpy's whole-array ones, in four layouts."""

import copy
import csv
import dataclasses
import io
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictad import (
    ADDLConfig,
    CodingConfig,
    CodingError,
    Dictionary,
    DiscriminativeModel,
    Dataset,
    DLConfig,
    DictadError,
    DLResult,
    LambdaPolicy,
    NumericalError,
    SparseCode,
    SparseCodeMatrix,
    addl_run,
    atom_popularity,
    batch_code,
    classify,
    init_dictionary,
    init_state,
    load_csv,
    load_state,
    normalize,
    objective,
    omp,
    representation_errors,
    rls_update,
    save_state,
    subsample,
    SynthConfig,
    synth_generate,
    tikhonov_update,
    toddler_step,
    train,
)
from dictad import data_io
from dictad.online import _CHECK_EVERY, LAMBDA_POLICIES
from dictad.dictionary_learning import _sign_fix, atom_update_pass
from dictad import sparse_coding
from dictad.sparse_coding import _weighted_rows, residuals
from dictad.data_io import _SIGNS, DataError

from helpers import assert_no_child_left, assert_same_load, saved_csv_bytes, split_csv_reads
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
    for X in (SparseCodeMatrix.from_dense(np.column_stack([c.to_dense() for c in cols])),
              batch_code(D, Y, cfg)):
        dense = X.to_dense()
        assert np.array_equal(SparseCodeMatrix.from_dense(dense).to_dense(), dense)
        brute = [sum(j in c.support.tolist() for c in X.columns) for j in range(D.n)]
        assert atom_popularity(X).tolist() == brute
        oracle = np.linalg.norm(Y - D.atoms @ dense, axis=0)
        errs = representation_errors(D, Y, X)
        assert np.max(np.abs(errs - oracle)) <= 1e-12 * (1.0 + np.max(oracle))


def test_batch_code_across_lockstep_chunks():
    # more signals than one lockstep pass codes together, in three passes
    chunk = sparse_coding._CHUNK
    rng = np.random.default_rng(17)
    A = rng.standard_normal((8, 12))
    A /= np.linalg.norm(A, axis=0)
    D, cfg = Dictionary(A), CodingConfig(3)
    Y = rng.standard_normal((8, 2 * chunk + 88))
    for i, code in enumerate(batch_code(D, Y, cfg).columns):
        single = omp(D, Y[:, i], cfg)
        assert np.array_equal(code.support, single.support)
        assert np.array_equal(code.values, single.values)
    # only column chunk + 44 needs a second atom, and the only one left
    # duplicates the first
    dup = Dictionary(np.column_stack([A[:, 0], A[:, 0]]))
    Y = np.tile(A[:, [0]], (1, 2 * chunk + 88))
    Y[:, chunk + 44] += A[:, 1]
    with pytest.raises(CodingError, match=f"column {chunk + 44}: singular"):
        batch_code(dup, Y, CodingConfig(2))


def _factor_and_solve(gram, b):
    """x with gram x = b for one system or a stack (gram[..., i, t] and
    b[..., i] over the leading axes), and where the last pivot is refused:
    the kernel's Cholesky arithmetic, restated. Row i of the factor L is
    forward substitution on the rows above it, with the pivot d = gram_ii -
    ||L[i, :i]||^2 refused unless above 4 (i + 1) eps gram_ii; then L z = b
    and L^T x = z, each product summed left to right."""
    n = gram.shape[-1]
    L, z, x = [[None] * n for _ in range(n)], [None] * n, [None] * n
    with np.errstate(all="ignore"):
        for i in range(n):
            for t in range(i):
                acc = gram[..., t, i]
                for u in range(t):
                    acc = acc - L[t][u] * L[i][u]
                L[i][t] = acc / L[t][t]
            d = gram[..., i, i]
            for t in range(i):
                d = d - L[i][t] * L[i][t]
            refused = ~(d > (i + 1) * 4 * 2.0**-52 * gram[..., i, i])
            L[i][i] = np.sqrt(d)
            acc = b[..., i]
            for t in range(i):
                acc = acc - L[i][t] * z[t]
            z[i] = acc / L[i][i]
        for i in reversed(range(n)):
            acc = z[i]
            for t in range(i + 1, n):
                acc = acc - L[t][i] * x[t]
            x[i] = acc / L[i][i]
    return np.stack(x, axis=-1), refused


def _exact_exit_batch(A, Y, cfg):
    """The coding kernel as it was before the exit bound: the exact residual
    after every solve but the last decides each column's early exit. It
    shares the unchanged row-product helper; each step solves its support's
    system from scratch. Like the kernel, it forms D^T y only for the
    signals that pass the empty-code test."""
    G = A.T @ A
    Yt = np.ascontiguousarray(Y.T)
    ynorm = np.linalg.norm(Yt, axis=1)
    tol = np.maximum(cfg.residual_tol, 1e-9 * ynorm)
    supports = np.zeros((Yt.shape[0], cfg.s), dtype=int)
    values = np.zeros((Yt.shape[0], cfg.s))
    nnz = np.zeros(Yt.shape[0], dtype=int)
    live = np.flatnonzero(ynorm > tol)
    y, tol = Yt[live], tol[live]
    a0 = np.matmul(y[:, None, :], A)[:, 0, :]
    S = np.zeros((live.size, cfg.s), dtype=int)
    coef = np.zeros((live.size, cfg.s))
    for k in range(cfg.s):
        rows = np.arange(live.size)[:, None]
        corr = np.abs(_weighted_rows(a0, G, S[:, :k], coef[:, :k]))
        corr[rows, S[:, :k]] = -1.0
        S[:, k] = np.argmax(corr, axis=1)
        Sk = S[:, :k + 1]
        coef[:, :k + 1], refused = _factor_and_solve(G[Sk[:, :, None], Sk[:, None, :]],
                                                     a0[rows, Sk])
        if refused.any():
            i = int(np.flatnonzero(refused)[0])
            raise CodingError(f"column {live[i]}: singular support sub-matrix on atoms "
                              f"{Sk[i].tolist()} (duplicate or collinear atoms)")
        if k + 1 < cfg.s:
            r = _weighted_rows(y, A.T, Sk, coef[:, :k + 1])
            done = np.sqrt((r * r).sum(axis=1)) <= tol
            out = live[done]
            supports[out], values[out], nnz[out] = S[done], coef[done], k + 1
            live, a0, y, tol, S, coef = (v[~done] for v in (live, a0, y, tol, S, coef))
    supports[live], values[live], nnz[live] = S, coef, cfg.s
    return supports, values, nnz


def _exact_exit_omp(A, y, cfg):
    """omp as it was before the exit bound, on one contiguous signal, which
    forms G and D^T y only past the empty-code test."""
    ynorm = np.sqrt((y * y).sum())
    tol = max(cfg.residual_tol, 1e-9 * ynorm)
    S = np.zeros(cfg.s, dtype=int)
    if not ynorm > tol:
        return S[:0], np.zeros(0), 0
    G = A.T @ A
    a0 = y @ A
    rows, coef = G[:0], np.zeros(0)
    for k in range(cfg.s):
        corr = np.abs(a0 - coef @ rows)
        corr[S[:k]] = -1.0
        S[k] = corr.argmax()
        Sk = S[:k + 1]
        rows = G.take(Sk, axis=0)
        coef, refused = _factor_and_solve(rows.take(Sk, axis=1), a0.take(Sk))
        if refused:
            raise CodingError(f"singular support sub-matrix on atoms {Sk.tolist()} "
                              "(duplicate or collinear atoms)")
        if k + 1 < cfg.s:
            r = y - coef @ A.T.take(Sk, axis=0)
            if np.sqrt((r * r).sum()) <= tol:
                return Sk, coef, k + 1
    return S, coef, cfg.s


def _outcome(call):
    """The bytes of a coding call's arrays, or its error's type and text."""
    try:
        return [np.asarray(a).tobytes() for a in call()]
    except (CodingError, RuntimeWarning) as e:
        return [type(e).__name__, str(e)]


def _exact_signals(rng, A, N, atoms):
    """N signals, column i the sum of atoms[i % len(atoms)] random atoms of A
    (none where that count is 0: a random signal) with coefficients of
    either sign and magnitude 0.5 to 1.5."""
    Y = rng.standard_normal((A.shape[0], N))
    for i in range(N):
        k = atoms[i % len(atoms)]
        if k:
            coef = rng.uniform(0.5, 1.5, k) * rng.choice([-1.0, 1.0], k)
            Y[:, i] = A[:, rng.choice(A.shape[1], k, replace=False)] @ coef
    return Y


def test_batch_code_forms_exit_residuals_only_where_the_bound_leaves_them_open(monkeypatch):
    # the exit residual is the one product whose rows, those of D^T, are m
    # wide (the correlations' rows, G's, are n wide): generic signals never
    # form it, and signals of 1 to 3 atoms still do, and exit early
    rng = np.random.default_rng(23)
    m, n, s = 29, 32, 5
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0)
    D, cfg = Dictionary(A), CodingConfig(s)
    widths = []

    def counted(base, rows, supports, coef):
        widths.append(rows.shape[1])
        return _weighted_rows(base, rows, supports, coef)

    monkeypatch.setattr(sparse_coding, "_weighted_rows", counted)
    X = batch_code(D, rng.standard_normal((m, 2000)), cfg)
    assert widths and m not in widths
    assert (X.nnz == s).all()
    Y = _exact_signals(rng, A, 300, [1, 2, 3])
    widths.clear()
    X = batch_code(D, Y, cfg)
    assert m in widths
    assert (X.nnz < s).all()
    want = _exact_exit_batch(A, Y, cfg)
    assert [a.tobytes() for a in (X.supports, X.values, X.nnz)] == [a.tobytes() for a in want]


def test_batch_code_exits_mid_chunk_across_lockstep_chunks():
    # exits after 1, 2 and 3 atoms interleaved with signals that take all s,
    # in every one of three lockstep passes: each exit drops its column from
    # the factor L, z and the bound's arrays of the columns still coding
    chunk = sparse_coding._CHUNK
    rng = np.random.default_rng(31)
    m, n, s = 12, 16, 4
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=0)
    D, cfg = Dictionary(A), CodingConfig(s)
    Y = _exact_signals(rng, A, 2 * chunk + 88, [1, 0, 2, 0, 3, 0])
    X = batch_code(D, Y, cfg)
    for lo in range(0, Y.shape[1], chunk):
        assert set(X.nnz[lo:lo + chunk].tolist()) == {1, 2, 3, s}
    want = _exact_exit_batch(A, Y, cfg)
    assert [a.tobytes() for a in (X.supports, X.values, X.nnz)] == [a.tobytes() for a in want]
    for i, code in enumerate(X.columns):
        single = omp(D, Y[:, i], cfg)
        assert code.support.tobytes() == single.support.tobytes()
        assert code.values.tobytes() == single.values.tobytes()


@st.composite
def exit_instances(draw):
    """Dictionaries of random or mutually orthogonal atoms at scales from
    1e-60 to 1e60 or near 1e-155, with an optional zero, duplicate or
    near-duplicate atom; signals that are random, exactly representable,
    representable but for one small extra atom (so the residual lies along
    an atom), zero or non-finite, at sizes near 1 or near 1e-150; and
    residual_tol at 0, at a residual norm of the exact kernel or one ulp
    either side of it, or random."""
    s = draw(st.integers(2, 5))
    n = draw(st.integers(s + 1, 16))
    m = draw(st.integers(n if draw(st.integers(0, 2)) else s + 1, 18))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n <= m and draw(st.integers(0, 2)):
        A = np.linalg.qr(rng.standard_normal((m, n)))[0]
    else:
        A = rng.standard_normal((m, n))
        A /= np.linalg.norm(A, axis=0)
    scale = draw(st.sampled_from(["unit", "global", "global", "per-atom", "subnormal-gram"]))
    if scale == "global":
        A *= 10.0 ** draw(st.floats(-60, 60))
    elif scale == "per-atom":
        A *= 10.0 ** rng.uniform(-60, 60, n)
    elif scale == "subnormal-gram":  # products of entries near the underflow range
        A *= 10.0 ** draw(st.floats(-160, -150))
    defect = draw(st.sampled_from(["none", "zero", "duplicate", "near-duplicate"]))
    if defect == "zero":
        A[:, rng.integers(n)] = 0.0
    elif defect == "duplicate":
        A[:, 1] = A[:, 0]
    elif defect == "near-duplicate":
        A[:, 1] = A[:, 0] + 1e-4 * A[:, 1]
    kinds = draw(st.lists(st.sampled_from(["random", "exact", "tail", "zero", "nan", "inf"]),
                          min_size=1, max_size=8))
    size = 10.0 ** draw(st.floats(-3, 3) | st.floats(-165, -140))  # squares may underflow
    Y = rng.standard_normal((m, len(kinds))) * size
    atoms = np.zeros(len(kinds), dtype=int)  # the atoms of a signal's exact part
    for i, kind in enumerate(kinds):
        k = atoms[i] = int(rng.integers(1, s + (kind == "exact")))
        sup = rng.choice(n, k + 1, replace=False)
        coef = rng.uniform(0.5, 1.5, k + 1) * rng.choice([-1.0, 1.0], k + 1) * size
        coef[k] *= 10.0 ** rng.uniform(-9, -1) if kind == "tail" else 0.0
        if kind in ("exact", "tail"):
            Y[:, i] = A[:, sup] @ coef
        elif kind != "random":
            Y[:, i] = {"zero": 0.0, "nan": np.nan, "inf": -np.inf}[kind]
    tol = draw(st.sampled_from(["zero", "norm", "norm", "random"]))
    residual_tol = 0.0
    if tol == "random":
        residual_tol = 10.0 ** draw(st.floats(-12, 2))
    elif tol == "norm":
        # the norm of column i's residual after as many atoms as its exact
        # part; a residual along one atom brings c* closest to nu * tol
        tails = [j for j, kind in enumerate(kinds) if kind == "tail"] or range(len(kinds))
        i = draw(st.sampled_from(tails))
        try:
            with np.errstate(all="ignore"):
                sup, val, _ = _exact_exit_batch(A, Y, CodingConfig(int(min(atoms[i], s - 1))))
                r = _weighted_rows(np.ascontiguousarray(Y.T), A.T, sup, val)[i]
                norm = np.sqrt((r * r).sum())
        except CodingError:
            norm = np.nan
        if np.isfinite(norm):
            toward = draw(st.sampled_from([norm, np.inf, 0.0]))
            residual_tol = max(float(np.nextafter(norm, toward)), 0.0)
    return A, Y, CodingConfig(s, residual_tol)


@settings(max_examples=600, deadline=None)
@given(exit_instances())
def test_exit_bound_keeps_the_exact_exit(instance):
    A, Y, cfg = instance
    D = Dictionary(A)

    def coded():
        X = batch_code(D, Y, cfg)
        return X.supports, X.values, X.nnz

    assert _outcome(coded) == _outcome(lambda: _exact_exit_batch(A, Y, cfg))
    for i in range(Y.shape[1]):
        y = np.ascontiguousarray(Y[:, i])

        def single():
            code = omp(D, y, cfg)
            return code.support, code.values, code.nnz

        assert _outcome(single) == _outcome(lambda: _exact_exit_omp(A, y, cfg))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 12), st.integers(2, 12), st.integers(3, 5),
       st.integers(1, 250), st.integers(0, 2**32 - 1))
def test_rls_at_phi_1_equals_batch_least_squares(s, extra_atoms, m, warm_factor, n_stream, seed):
    # The stream starts from the least-squares fit of a warm-up of at least 3n
    # columns and may cross the finiteness check at 100 updates. init_state
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


def _ridge_through_trace(G):
    return 1e-8 * np.trace(G) / G.shape[0]


def _reference_rls_update(state, y, x):
    # rls_update with the ridge added through np.fill_diagonal, and the gain
    # from np.linalg.solve
    xd = x.to_dense()
    r = np.asarray(y, dtype=float) - state.model.D.atoms @ xd
    state.G *= state.phi
    state.G += xd[:, None] * xd
    np.fill_diagonal(state.G,
                     state.G.diagonal() + (1.0 - state.phi) * _ridge_through_trace(state.G))
    try:
        u = np.linalg.solve(state.G, xd)
    except np.linalg.LinAlgError:
        raise NumericalError("online Gram matrix became singular") from None
    state.model.D.atoms += r[:, None] * u
    state.samples_seen += 1
    if state.samples_seen % _CHECK_EVERY == 0:
        if not all(np.all(np.isfinite(M)) for M in (state.G, state.model.D.atoms)):
            raise NumericalError(
                f"online state became non-finite after {state.samples_seen} samples"
            )
    return math.sqrt(r.dot(r))  # np.linalg.norm's arithmetic on a vector


def _sherman_morrison_rls_update(D, G, Ginv, phi, y, xd):
    # the RLS update that carries Ginv beside G. At phi = 1 the ridge add is
    # zero and Ginv takes the Sherman-Morrison rank-one update; below 1 the
    # diagonal add is not rank-one, and Ginv is inverted anew from G
    r = y - D @ xd
    G *= phi
    G += np.outer(xd, xd)
    if phi == 1.0:
        u = Ginv @ xd
        alpha = 1.0 / (1.0 + float(xd @ u))
        Ginv -= alpha * np.outer(u, u)
        D += alpha * np.outer(r, u)
    else:
        G += (1.0 - phi) * _ridge_through_trace(G) * np.eye(len(G))
        Ginv[:] = np.linalg.inv(G)
        D += np.outer(r, Ginv @ xd)


def _update_outcome(update, state, y, x):
    try:
        return update(state, y, x)
    except NumericalError as e:
        return str(e)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 3), st.integers(2, 10),
       st.integers(3, 5), st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
       st.integers(100, 250), st.integers(0, 2**32 - 1))
def test_rls_update_keeps_the_bits_of_the_solve_reference(s, extra_atoms, unused, m,
                                                          warm_factor, phi, n_stream, seed):
    # Reachable states: init_state from warm-up codes that never use the last
    # `unused` atoms, then a stream over the same atoms of at least 100
    # updates, so it crosses a finiteness check. At phi = 1 the ridge add is
    # zero. Should an update fail, both sides must fail alike.
    k = s + extra_atoms
    n = k + unused
    rng = np.random.default_rng(seed)
    Dt = rng.standard_normal((m, n))
    Xw = np.vstack([_sparse_cols(rng, k, s, warm_factor * k), np.zeros((unused, warm_factor * k))])
    model = DiscriminativeModel(Dictionary(Dt.copy()), np.zeros((2, n)), np.zeros((n, n)),
                                np.arange(n) % 2)
    state = init_state(model, Dt @ Xw, SparseCodeMatrix.from_dense(Xw), phi=phi,
                       coding=CodingConfig(s))
    ref = copy.deepcopy(state)
    with np.errstate(all="ignore"):  # both sides compute the same bits, warned or not
        for _ in range(n_stream):
            x = SparseCode(rng.choice(k, s, replace=False), rng.standard_normal(s), n)
            y = Dt @ x.to_dense() + 0.05 * rng.standard_normal(m)
            got = _update_outcome(rls_update, state, y, x)
            want = _update_outcome(_reference_rls_update, ref, y, x)
            assert str(got) == str(want)  # the a-priori error, NaN included, or the message
            for a, b in ((state.G, ref.G), (state.model.D.atoms, ref.model.D.atoms)):
                assert a.tobytes() == b.tobytes()
            if isinstance(want, str):
                break


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.integers(2, 10), st.integers(3, 5),
       st.one_of(st.just(1.0), st.floats(0.9, 1.0)), st.integers(1, 250),
       st.integers(0, 2**32 - 1))
def test_rls_solve_form_matches_sherman_morrison(s, extra_atoms, m, warm_factor, phi, n_stream,
                                                 seed):
    # The gain solved on G each update equals, up to rounding, the one from a
    # Sherman-Morrison inverse carried at phi = 1, or from the inverse of
    # the reference G below 1.
    n = s + extra_atoms
    rng = np.random.default_rng(seed)
    Dt = rng.standard_normal((m, n))
    Xw = _sparse_cols(rng, n, s, warm_factor * n)
    model = DiscriminativeModel(Dictionary(Dt.copy()), np.zeros((2, n)), np.zeros((n, n)),
                                np.arange(n) % 2)
    state = init_state(model, Dt @ Xw, SparseCodeMatrix.from_dense(Xw), phi=phi,
                       coding=CodingConfig(s))
    D, G = Dt.copy(), state.G.copy()
    Ginv = np.linalg.inv(G)
    for _ in range(n_stream):
        x = SparseCode(rng.choice(n, s, replace=False), rng.standard_normal(s), n)
        y = Dt @ x.to_dense() + 0.05 * rng.standard_normal(m)
        rls_update(state, y, x)
        _sherman_morrison_rls_update(D, G, Ginv, phi, y, x.to_dense())
    assert np.array_equal(state.G, G)
    assert np.linalg.norm(state.model.D.atoms - D) <= 1e-9 * np.linalg.norm(D)


def test_rls_update_keeps_a_negative_zero_pair_symmetric():
    # A hand-made checkpoint may hold -0.0 off G's diagonal, and so may a
    # stream whose phi G underflows. The ridge goes on the diagonal alone, so
    # the pair keeps its bits and G stays bitwise symmetric, which
    # load_state and spectral_norm rely on.
    n = 4
    Dt = np.random.default_rng(20).standard_normal((6, n))
    model = DiscriminativeModel(Dictionary(Dt.copy()), np.zeros((2, n)), np.zeros((n, n)),
                                np.arange(n) % 2)
    state = init_state(model, Dt, SparseCodeMatrix.from_dense(np.eye(n)), phi=0.95,
                       coding=CodingConfig(2))
    state.G[0, 1] = state.G[1, 0] = -0.0
    x = SparseCode([1], [-1.0], n)  # x x^T adds 0 * -1.0 = -0.0 at (0, 1) and (1, 0)
    for _ in range(3):
        rls_update(state, np.ones(6), x)
    assert np.signbit(state.G[0, 1]) and np.signbit(state.G[1, 0])
    assert state.G.tobytes() == state.G.T.tobytes()


def _stream(state, Y):
    """toddler_step over the columns of Y: each outcome's prediction and
    score bits, then the message of the error that stopped the stream."""
    seen = []
    try:
        for y in Y.T:
            out = toddler_step(state, y)[1]
            seen.append((out.predicted_class, out.scores.tobytes()))
    except DictadError as e:
        seen.append(repr(e))
    return seen


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.integers(2, 10), st.integers(1, 3),
       st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
       st.sampled_from(LAMBDA_POLICIES), st.integers(1, 150), st.data(),
       st.integers(0, 2**32 - 1))
def test_stream_resumed_from_a_checkpoint_keeps_its_bits(s, extra_atoms, m, n_classes, phi,
                                                         policy, n_stream, data, seed):
    # Streaming k samples, checkpointing through save_state and load_state
    # and streaming the rest gives the scores, predictions and final D, W,
    # A and G of the uninterrupted stream, bit for bit
    n = s + extra_atoms
    rng = np.random.default_rng(seed)
    Dt = rng.standard_normal((m, n))
    Dt /= np.linalg.norm(Dt, axis=0)
    Xw = _sparse_cols(rng, n, s, 3 * n)
    model = DiscriminativeModel(Dictionary(Dt.copy()), rng.standard_normal((n_classes, n)),
                                rng.standard_normal((n, n)), np.arange(n) % n_classes)
    Y = Dt @ _sparse_cols(rng, n, s, n_stream) + 0.05 * rng.standard_normal((m, n_stream))
    whole = init_state(model, Dt @ Xw, SparseCodeMatrix.from_dense(Xw), phi=phi,
                       lambda_policy=LambdaPolicy(policy, 1.5, 0.5), coding=CodingConfig(s))
    resumed = copy.deepcopy(whole)
    k = data.draw(st.integers(0, n_stream), label="k")
    with np.errstate(all="ignore"):  # both streams compute the same bits, warned or not
        want = _stream(whole, Y)
        got = _stream(resumed, Y[:, :k])
        if len(got) == k:  # no error stopped the first part
            with tempfile.TemporaryDirectory() as d:
                save_state(Path(d) / "state.npz", resumed)
                resumed = load_state(Path(d) / "state.npz")
            got += _stream(resumed, Y[:, k:])
    assert got == want
    assert resumed.samples_seen == whole.samples_seen
    for a, b in ((resumed.model.D.atoms, whole.model.D.atoms), (resumed.model.W, whole.model.W),
                 (resumed.model.A, whole.model.A), (resumed.G, whole.G)):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 12), st.integers(2, 12), st.integers(1, 60),
       st.integers(1, 8), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
def test_train_objective_trace_never_increases(s, extra_atoms, m, N, iterations, tol, seed):
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((m, N))
    res = train(Y, DLConfig(s + extra_atoms, iterations, CodingConfig(s, tol), seed=seed))
    trace = res.objective_trace
    assert np.all(np.diff(trace) <= 1e-9 * (1.0 + trace[:-1]))


def _reference_atom_update_pass(D, Y, X):
    # atom_update_pass as it was when it rescanned every support slot per atom
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
    return Dictionary(A), SparseCodeMatrix(X.supports, values, X.nnz, X.dim)


def _reference_train(Y, cfg):
    # train as it was when each iteration formed the residual four times:
    # twice for the keep test, once in the atom update and once for the trace
    Y = np.asarray(Y, dtype=float)
    D = init_dictionary(Y, cfg.n_atoms, cfg.seed)
    trace = np.empty(cfg.iterations)
    X = None
    for it in range(cfg.iterations):
        X_new = batch_code(D, Y, cfg.coding)
        if X is not None:
            new = representation_errors(D, Y, X_new) <= representation_errors(D, Y, X)
            X = SparseCodeMatrix(
                np.where(new[:, None], X_new.supports, X.supports),
                np.where(new[:, None], X_new.values, X.values),
                np.where(new, X_new.nnz, X.nnz),
                X.dim,
            )
        else:
            X = X_new
        D, X = _reference_atom_update_pass(D, Y, X)
        trace[it] = objective(D, Y, X)
        dead = np.flatnonzero(atom_popularity(X) == 0)
        if dead.size:
            worst = np.argsort(-representation_errors(D, Y, X), kind="stable")
            A = D.atoms.copy()
            k = 0
            for j in dead:
                while k < worst.size and np.linalg.norm(Y[:, worst[k]]) == 0:
                    k += 1
                if k >= worst.size:
                    break
                A[:, j] = Y[:, worst[k]] / np.linalg.norm(Y[:, worst[k]])
                k += 1
            D = Dictionary(A)
    unused = [int(j) for j in np.flatnonzero(atom_popularity(X) == 0)]
    return DLResult(D, X, trace, unused)


def _train_outcome(fn, Y, cfg):
    try:
        res = fn(Y, cfg)
    except (DataError, NumericalError) as e:
        return type(e).__name__, str(e)
    X = res.codes
    return ([a.tobytes() for a in (res.dictionary.atoms, X.supports, X.values, X.nnz,
                                   res.objective_trace)], res.unused_atoms)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(0, 8), st.integers(2, 8), st.integers(1, 40),
       st.integers(1, 8), st.lists(st.sampled_from(["data", "zero", "duplicate"]), min_size=1,
                                   max_size=40),
       st.integers(1, 6), st.sampled_from([0.0, 0.05, 0.5]), st.integers(0, 2**32 - 1))
def test_train_keeps_the_bits_of_the_reference_loop(s, extra_atoms, m, N, rank, kinds,
                                                    iterations, tol, seed):
    # N below n_atoms pads the dictionary with Gaussian atoms; a rank below
    # the atom count leaves atoms dead, so they are replaced; tol > 0 gives
    # padded codes; duplicate columns may give duplicate atoms
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((m, min(rank, m))) @ rng.standard_normal((min(rank, m), N))
    for i, kind in zip(range(N), kinds):
        if kind == "zero":
            Y[:, i] = 0.0
        elif kind == "duplicate":
            Y[:, i] = Y[:, rng.integers(N)]
    cfg = DLConfig(s + extra_atoms, iterations, CodingConfig(s, tol), seed=seed)
    assert _train_outcome(train, Y, cfg) == _train_outcome(_reference_train, Y, cfg)


# cells a CSV may hold for a float: the forms other writers produce
_CELL_FORMS = [
    lambda v: "%.17g" % v,
    repr,
    lambda v: "%.6e" % v,
    lambda v: "%.3E" % v,
    lambda v: f"{v:+}",
    lambda v: f'"{v!r}"',
    lambda v: f" {v} ",
]
# bounded so that no rounded form (%.3E of 1.7975e308) overflows to inf
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308]
# where '%.17g' changes notation or rounds on a tie: 10^e and its neighbours,
# then n + 0.25 and n + 0.75 for n in [2^50, 2^51) (17 digits end in .2|5
# or .7|5) and those scaled by 10^-j
_POWERS_OF_TEN = np.array([10.0**e for e in range(-6, 19)])
_TIES = np.add.outer(np.linspace(2**50, 2**51 - 1, 9).round(), [0.25, 0.75]).ravel()
_DECIMAL_EDGES = np.concatenate([
    _POWERS_OF_TEN, np.nextafter(_POWERS_OF_TEN, 0), np.nextafter(_POWERS_OF_TEN, np.inf),
    _TIES, np.multiply.outer(_TIES, 10.0 ** -np.arange(1, 21)).ravel(),
])
_DECIMAL_EDGES = np.concatenate([_DECIMAL_EDGES, -_DECIMAL_EDGES]).tolist()
_finite = st.one_of(st.floats(-1e308, 1e308), st.sampled_from(_EDGE_FLOATS),
                    st.sampled_from(_DECIMAL_EDGES))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 12), st.booleans(), st.data())
def test_load_csv_equals_float_of_every_cell(m, N, labeled, data):
    cells = [[data.draw(st.sampled_from(_CELL_FORMS))(data.draw(_finite)) for _ in range(m)]
             for _ in range(N)]
    labels = [data.draw(st.integers(0, 1)) for _ in range(N)]
    header = [f"f{j}" for j in range(m)] + (["Class"] if labeled else [])
    lines = [",".join(header)]
    for row, c in zip(cells, labels):
        lines.append(",".join(row + ([data.draw(st.sampled_from(["%d", '"%d"', "%d.0"])) % c]
                                     if labeled else [])))
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "t.csv"
        p.write_text("\n".join(lines) + "\n")
        ds = load_csv(p, schema="generic", label_column="Class" if labeled else None)
        with split_csv_reads():
            split = load_csv(p, schema="generic", label_column="Class" if labeled else None)
    expected = [[float(t.strip().strip('"')) for t in row] for row in cells]
    assert np.array_equal(_bits(ds.Y), _bits(expected).T)
    assert ds.Y.dtype == np.float64 and ds.Y.strides == (8, 8 * m)
    assert (list(ds.labels) == labels) if labeled else ds.labels is None
    assert_same_load(split, ds)
    assert_no_child_left()


def _old_save_csv_bytes(Y, labels, names):
    """The writer's former output: one f-string per value, one writerow per row."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(list(names) + (["Class"] if labels is not None else []))
    for i in range(Y.shape[1]):
        row = [f"{v:.17g}" for v in Y[:, i]]
        if labels is not None:
            row.append(str(int(labels[i])))
        w.writerow(row)
    return buf.getvalue().encode()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 12), st.booleans(), st.data())
def test_save_csv_bytes_equal_per_value_writer_and_round_trip(m, N, labeled, data):
    Y = np.array([[data.draw(_finite) for _ in range(N)] for _ in range(m)]).reshape(m, N)
    labels = np.array([data.draw(st.integers(0, 1)) for _ in range(N)]) if labeled else None
    ds = Dataset(Y, labels, [f"f{j}" for j in range(m)])
    want = _old_save_csv_bytes(Y, labels, ds.feature_names)
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "t.csv"
        assert saved_csv_bytes(ds, p, False) == want
        if N:
            back = load_csv(p, schema="generic", label_column="Class" if labeled else None)
            assert np.array_equal(_bits(back.Y), _bits(Y))
            assert labels is None or np.array_equal(back.labels, labels)
        # blocks of 5 rows: the split hands the child 1 of 1 to 2 of 3 blocks
        with mock.patch.object(data_io, "_SAVE_ROWS", 5):
            assert saved_csv_bytes(ds, p, True) == want


def test_save_csv_bytes_across_write_chunks(tmp_path):
    rng = np.random.default_rng(18)
    Y = rng.standard_normal((3, 9001)) * np.exp(rng.uniform(-700, 700, (3, 9001)))
    labels = rng.integers(0, 2, 9001)
    ds = Dataset(Y, labels, ["a", "b", "c"])
    want = _old_save_csv_bytes(Y, labels, ds.feature_names)
    for split in (False, True):  # 9 blocks: 4 for this process, 5 for the child
        assert saved_csv_bytes(ds, tmp_path / "big.csv", split) == want


def test_save_csv_bytes_at_format_branch_points(tmp_path):
    # the values where the writer's digit arithmetic or its hand-over to
    # Python could slip: notation changes, ties, integers around 2^53 and
    # halves around 2^51, whose 17 digits are m 2^e 10^k with e + k = 0
    ulps = [np.nextafter(v, d) for v in (1e-4, 1e17) for d in (0, np.inf)]
    values = np.concatenate([
        [0.0, -0.0, 1e-4, 1e17], ulps, _DECIMAL_EDGES,
        2.0**53 + np.arange(-40, 41), 2.0**51 + np.arange(-40, 41) / 2,
        [5e-324, -5e-324, 2.225e-308, -1e-310, 1.7976931348623157e308,
         -1.7976931348623157e308, np.nan, np.inf, -np.inf],
    ])
    values = np.concatenate([values, -values])
    rows = 2_100  # crosses two 1,024-row write blocks
    Y = np.resize(values, 3 * rows).reshape(rows, 3).T
    labels = np.arange(rows) % 2
    for lab in (labels, None):
        ds = Dataset(Y, lab, ["a", "b", "c"])
        want = _old_save_csv_bytes(Y, lab, ds.feature_names)
        for split in (False, True):
            assert saved_csv_bytes(ds, tmp_path / "edges.csv", split) == want


def _per_sample_synth(cfg):
    # synth_generate as it was before block draws, one sample per loop turn
    rng = np.random.default_rng(cfg.seed)
    if cfg.disjoint_support and cfg.m < cfg.normal_atoms + cfg.anomaly_atoms:
        raise DataError(
            f"m={cfg.m} too small to orthogonalize {cfg.normal_atoms}+{cfg.anomaly_atoms} atoms"
        )
    Dn = rng.standard_normal((cfg.m, cfg.normal_atoms))
    Dn /= np.linalg.norm(Dn, axis=0)
    Da = rng.standard_normal((cfg.m, cfg.anomaly_atoms))
    if cfg.disjoint_support:
        # orthogonalize anomaly atoms against the normal atoms (and each other)
        Qn, _ = np.linalg.qr(Dn)
        Da -= Qn @ (Qn.T @ Da)
        Da, _ = np.linalg.qr(Da)
    else:
        Da /= np.linalg.norm(Da, axis=0)

    def draw(D, count):
        n_atoms = D.shape[1]
        s = min(cfg.s_gen, n_atoms)
        Y = np.empty((cfg.m, count))
        codes = np.zeros((n_atoms, count))
        for i in range(count):
            sup = rng.choice(n_atoms, size=s, replace=False)
            vals = rng.uniform(0.5, 1.5, size=s)
            if not cfg.positive_codes:
                vals *= _SIGNS[rng.integers(0, 2, size=s)]
            codes[sup, i] = vals
            Y[:, i] = D[:, sup] @ vals
        Y += cfg.noise_sigma * rng.standard_normal(Y.shape)
        return Y, codes

    Yn, Cn = draw(Dn, cfg.n_normal)
    Ya, Ca = draw(Da, cfg.n_anomaly)
    return np.hstack([Yn, Ya]), Dn, Da, Cn, Ca


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_synth_generate_equals_per_sample_draws(data):
    # 1 to 40 atoms, or the most numpy's Floyd sampling takes
    atoms = st.integers(1, 44).map(lambda a: a if a <= 40 else data_io.MAX_SYNTH_ATOMS)
    na, aa = data.draw(atoms), data.draw(atoms)
    # a few atoms per sample, or one below, at or above an atom count
    s_gen = data.draw(st.one_of(
        st.integers(1, 6),
        st.tuples(st.sampled_from([na, aa]), st.sampled_from([-1, 0, 1])).map(
            lambda t: max(1, sum(t))),
    ))
    disjoint = na + aa <= 80 and data.draw(st.booleans())
    m = na + aa + data.draw(st.integers(0, 3)) if disjoint else data.draw(st.integers(1, 8))
    n_normal = data.draw(st.integers(1, 3 if s_gen > 100 else 150))
    cfg = SynthConfig(n_normal, data.draw(st.integers(0, n_normal)), m, na, aa, s_gen,
                      data.draw(st.sampled_from([0.0, 0.1])), disjoint,
                      data.draw(st.integers(0, 2**32 - 1)), data.draw(st.booleans()))
    # small budgets put block boundaries inside these sample counts
    with mock.patch.object(data_io, "_BLOCK_ELEMENTS", data.draw(st.integers(1, 1000))):
        _assert_synth_equals_per_sample_draws(cfg)


@pytest.mark.parametrize("positive", [False, True])
def test_synth_generate_equals_per_sample_draws_across_blocks(positive):
    # 10,000 atoms make blocks of about 100 samples under the default budget
    _assert_synth_equals_per_sample_draws(
        SynthConfig(250, 0, 3, data_io.MAX_SYNTH_ATOMS, 1, 4, 0.1, False, 21, positive))


def _assert_synth_equals_per_sample_draws(cfg):
    ds = synth_generate(cfg)
    want = _per_sample_synth(cfg)
    got = (ds.Y, ds.provenance["normal_dictionary"], ds.provenance["anomaly_dictionary"],
           ds.provenance["normal_codes"], ds.provenance["anomaly_codes"])
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _input_arrays(value):
    """Every array an argument holds, in a fixed order: the argument itself,
    the fields of a dataclass or code matrix, the items of a tuple or list."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value) or isinstance(value, SparseCodeMatrix):
        value = list(vars(value).values())
    if isinstance(value, (list, tuple)):
        return [a for v in value for a in _input_arrays(v)]
    return []


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_library_calls_leave_inputs_unchanged(s, extra_atoms, extra_rows, seed):
    n, m = s + extra_atoms, s + 2 + extra_rows
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    D = Dictionary(A / np.linalg.norm(A, axis=0))
    N = n + int(rng.integers(2, 12))
    Y = rng.standard_normal((m, N))
    labels = (np.arange(N) < int(rng.integers(1, N // 2 + 1))).astype(int)
    ds = Dataset(Y, labels, [f"f{i}" for i in range(m)])
    cfg = CodingConfig(s)
    X = batch_code(D, Y, cfg)
    x = X.columns[0]
    W = rng.standard_normal((2, n))
    dl = DLConfig(n, 2, cfg, seed=seed)
    calls = [
        (omp, (D, Y[:, 0], cfg)),
        (batch_code, (D, Y, cfg)),
        (representation_errors, (D, Y, X)),
        (atom_update_pass, (D, Y, X)),
        (train, (Y, dl)),
        (classify, (W, x)),
        (tikhonov_update, (W, rng.standard_normal(2), x, 0.5)),
        (normalize, (ds,)),
        (subsample, (ds, 1, seed)),
        (addl_run, (Y, ADDLConfig(2, dl, cfg), labels)),
    ]
    # a Fortran-ordered Y: batch_code's transpose of it is then a view
    Yf = np.asfortranarray(Y)
    calls += [(batch_code, (D, Yf, cfg)), (atom_update_pass, (D, Yf, X)), (train, (Yf, dl))]
    for fn, args in calls:
        before = _input_arrays(copy.deepcopy(args))
        fn(*args)
        after = _input_arrays(args)
        assert len(after) == len(before)
        for a, b in zip(after, before):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), fn.__name__


def _whole_array_normalize(Y):
    """normalize's z-scores as numpy's whole-array mean and std give them,
    with normalize's rescue of overflowing features and its zeroed constant
    ones: (Y - Y.mean(axis=1)) / Y.std(axis=1, ddof=1), two N x m
    temporaries and all."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu = Y.mean(axis=1, keepdims=True)
        sigma = Y.std(axis=1, ddof=1, keepdims=True)
    huge = np.flatnonzero(~np.isfinite(sigma.ravel()))
    scaled = Y[huge]
    scaled /= np.abs(scaled).max(axis=1, keepdims=True)
    mu[huge] = scaled.mean(axis=1, keepdims=True)
    sigma[huge] = scaled.std(axis=1, ddof=1, keepdims=True)
    flat = sigma.ravel() == 0.0
    sigma[flat] = 1.0
    Z = Y - mu
    Z[huge] = scaled - mu[huge]
    Z /= sigma
    Z[flat] = 0.0
    return Z


@st.composite
def normalize_tables(draw):
    """A table of m in 1..40 features whose scales reach 1e150 (so some
    variances overflow), sometimes with a constant feature, in one of four
    layouts, with a column block of `step` columns and N from 2 to past
    three such blocks."""
    m, step = draw(st.integers(1, 40)), draw(st.integers(1, 100))
    n = draw(st.integers(2, 3 * step + 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Y = rng.standard_normal((m, n)) + rng.standard_normal((m, 1))
    Y *= 10.0 ** rng.uniform(-3, 150, (m, 1))
    if draw(st.booleans()):
        Y[rng.integers(m)] = rng.standard_normal()
    layout = draw(st.sampled_from(["C", "F", "sliced", "fancy"]))
    if layout == "sliced":  # every other column of rows 1..m of a wider F-ordered table
        wide = np.zeros((m + 2, 2 * n), order="F")
        wide[1:m + 1, ::2] = Y
        Y = wide[1:m + 1, ::2]
    elif layout == "fancy":  # rows picked from an F-ordered table, as subsample picks columns
        Y = np.asfortranarray(Y)[np.argsort(rng.permutation(m))]
    else:
        Y = np.asarray(Y, order=layout)
    return Y, step


@SETTINGS
@given(normalize_tables())
def test_normalize_has_the_bits_of_numpys_whole_array_z_scores(table):
    # _std's column blocks shrunk to `step` columns, so their edges are crossed
    Y, step = table
    names = [f"f{i}" for i in range(len(Y))]
    expected = _whole_array_normalize(Y)
    before = Y.tobytes()
    with mock.patch.object(data_io, "_BLOCK_ELEMENTS", step * len(Y)), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a constant feature
        assert normalize(Dataset(Y, None, names)).Y.tobytes() == expected.tobytes()
        assert Y.tobytes() == before
        assert normalize(Dataset(Y, None, names), copy=False).Y.tobytes() == expected.tobytes()
