"""Property tests over generated shapes: the coding kernel and the code
statistics (m, n, s, N), including all-zero and exactly representable
signals; the phi = 1 RLS stream against batch least squares; the AK-SVD
objective trace; CSV reading and writing against per-value oracles; the
block-drawn synthetic generator against its per-sample draws; library calls
leave their input arrays unchanged."""

import copy
import csv
import dataclasses
import io
import tempfile
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
    SparseCode,
    SparseCodeMatrix,
    addl_run,
    atom_popularity,
    batch_code,
    classify,
    init_state,
    load_csv,
    normalize,
    omp,
    representation_errors,
    rls_update,
    save_csv,
    subsample,
    SynthConfig,
    synth_generate,
    tikhonov_update,
    train,
)
from dictad import data_io
from dictad.dictionary_learning import atom_update_pass
from dictad.data_io import _SIGNS, DataError

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
    expected = [[float(t.strip().strip('"')) for t in row] for row in cells]
    assert np.array_equal(_bits(ds.Y), _bits(expected).T)
    assert ds.Y.dtype == np.float64 and ds.Y.strides == (8, 8 * m)
    assert (list(ds.labels) == labels) if labeled else ds.labels is None


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
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "t.csv"
        save_csv(ds, p)
        assert p.read_bytes() == _old_save_csv_bytes(Y, labels, ds.feature_names)
        if N:
            back = load_csv(p, schema="generic", label_column="Class" if labeled else None)
            assert np.array_equal(_bits(back.Y), _bits(Y))
            assert labels is None or np.array_equal(back.labels, labels)


def test_save_csv_bytes_across_write_chunks(tmp_path):
    rng = np.random.default_rng(18)
    Y = rng.standard_normal((3, 9001)) * np.exp(rng.uniform(-700, 700, (3, 9001)))
    labels = rng.integers(0, 2, 9001)
    p = tmp_path / "big.csv"
    save_csv(Dataset(Y, labels, ["a", "b", "c"]), p)
    assert p.read_bytes() == _old_save_csv_bytes(Y, labels, ["a", "b", "c"])


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
        p = tmp_path / "edges.csv"
        save_csv(Dataset(Y, lab, ["a", "b", "c"]), p)
        assert p.read_bytes() == _old_save_csv_bytes(Y, lab, ["a", "b", "c"])


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
    for fn, args in calls:
        before = _input_arrays(copy.deepcopy(args))
        fn(*args)
        after = _input_arrays(args)
        assert len(after) == len(before)
        for a, b in zip(after, before):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), fn.__name__
