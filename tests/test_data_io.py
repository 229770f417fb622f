import ast
import errno
import hashlib
import inspect
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from dictad import (
    CodingConfig,
    DataError,
    Dataset,
    Dictionary,
    SynthConfig,
    batch_code,
    load_csv,
    normalize,
    representation_errors,
    save_csv,
    subsample,
    synth_generate,
)
from dictad import data_io
from dictad.cli import main
from dictad.data_io import ULB_FEATURES
from helpers import assert_no_child_left, assert_same_load, saved_csv_bytes, split_csv_reads


def _write_ulb_csv(path, n_rows=4, anomalies=(1,)):
    rng = np.random.default_rng(0)
    header = ["Time"] + ULB_FEATURES[:-1] + ["Amount", "Class"]
    lines = [",".join(header)]
    for i in range(n_rows):
        vals = [str(float(i))] + [f"{v:.6f}" for v in rng.standard_normal(29)]
        vals.append("1" if i in anomalies else "0")
        lines.append(",".join(vals))
    path.write_text("\n".join(lines) + "\n")


def test_load_ulb_schema(tmp_path):
    p = tmp_path / "cc.csv"
    _write_ulb_csv(p, n_rows=5, anomalies=(0, 3))
    ds = load_csv(p, schema="ulb")
    assert ds.feature_names == ULB_FEATURES
    assert ds.Y.shape == (29, 5)
    assert list(ds.labels) == [1, 0, 0, 1, 0]
    # Time must be dropped, so no feature row equals the 0..4 ramp
    ramp = np.arange(5.0)
    assert not any(np.allclose(ds.Y[i], ramp) for i in range(29))


def test_load_generic_schema(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("a,b,y\n1,2,0\n3,4,1\n")
    ds = load_csv(p, schema="generic", label_column="y")
    assert ds.feature_names == ["a", "b"]
    assert np.array_equal(ds.Y, [[1.0, 3.0], [2.0, 4.0]])
    assert list(ds.labels) == [0, 1]
    unlabeled = load_csv(p, schema="generic")
    assert unlabeled.feature_names == ["a", "b", "y"]
    assert unlabeled.labels is None


def test_load_missing_column_reported(tmp_path):
    p = tmp_path / "bad.csv"
    header = ",".join(["Time"] + ULB_FEATURES[:-2] + ["Amount", "Class"])
    p.write_text(header + "\n")
    with pytest.raises(DataError, match="V28"):
        load_csv(p, schema="ulb")


def test_load_non_numeric_cell_reported(tmp_path):
    p = tmp_path / "nn.csv"
    p.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(DataError, match=r"row 3.*'b'"):
        load_csv(p, schema="generic")


def test_load_empty_and_header_only_rejected(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_csv(empty, schema="generic")
    hdr = tmp_path / "h.csv"
    hdr.write_text("a,b\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(hdr, schema="generic")


def test_load_unknown_schema_rejected(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "x.csv", schema="weird")


def test_normalize_two_point_feature():
    ds = Dataset(np.array([[1.0, 3.0]]), None, ["f0"])
    out = normalize(ds)
    # sample std of {1,3} is sqrt(2), so values map to +-1/sqrt(2)
    assert np.allclose(out.Y, [[-1 / np.sqrt(2), 1 / np.sqrt(2)]])


def test_normalize_statistics():
    rng = np.random.default_rng(1)
    ds = Dataset(rng.standard_normal((5, 40)) * 3 + 2, None, [f"f{i}" for i in range(5)])
    out = normalize(ds)
    assert np.allclose(out.Y.mean(axis=1), 0, atol=1e-12)
    assert np.allclose(out.Y.std(axis=1, ddof=1), 1, atol=1e-12)


def test_normalize_idempotent():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.standard_normal((4, 30)), None, [f"f{i}" for i in range(4)])
    once = normalize(ds)
    twice = normalize(once)
    assert np.max(np.abs(twice.Y - once.Y)) < 1e-12


def test_normalize_constant_feature_warns_and_zeroes():
    Y = np.vstack([np.full(6, 7.0), np.arange(6.0)])
    ds = Dataset(Y, None, ["const", "ramp"])
    with pytest.warns(UserWarning, match="const"):
        out = normalize(ds)
    assert np.all(out.Y[0] == 0)
    assert np.isclose(out.Y[1].std(ddof=1), 1.0)


def _layouts(Y):
    """Y (m x N) as C-, F-ordered, sliced and fancy-indexed arrays."""
    m, n = Y.shape
    wide = np.asfortranarray(np.zeros((m + 2, 2 * n)))
    wide[1:m + 1, ::2] = Y
    return {"C": np.ascontiguousarray(Y), "F": np.asfortranarray(Y),
            "sliced": wide[1:m + 1, ::2], "fancy": np.asfortranarray(Y)[np.arange(m)]}


@pytest.mark.parametrize("layout", ["C", "F", "sliced", "fancy"])
def test_normalize_leaves_its_input_unchanged_and_in_place_matches(layout):
    # a +-1e200 feature (its variance overflows) and a constant one beside
    # ordinary features: the copy leaves every input byte as it was, and the
    # in-place z-scoring gives the copy's bytes in the input's own array
    rng = np.random.default_rng(5)
    Y = np.vstack([rng.standard_normal((3, 50)) * 4 + 1, np.tile([1e200, -1e200], 25),
                   np.full(50, 7.0)])
    Y = _layouts(Y)[layout]
    names = [f"f{i}" for i in range(len(Y))]
    before = Y.tobytes()
    with pytest.warns(UserWarning, match="constant features mapped to zero: \\['f4'\\]"):
        out = normalize(Dataset(Y, None, names))
    assert Y.tobytes() == before and out.Y is not Y
    with pytest.warns(UserWarning, match="f4"):
        same = normalize(Dataset(Y, None, names), copy=False)
    assert same.Y is Y and Y.tobytes() == out.Y.tobytes()
    assert np.array_equal(out.Y[3], np.tile([1.0, -1.0], 25) / math.sqrt(50 / 49))


def test_normalize_refusal_leaves_the_table_unchanged():
    # copy=False checks every feature before it writes a value
    Y = np.array([[1.0, 2.0, 3.0], [1e300, -1e300, np.inf]])
    before = Y.tobytes()
    with pytest.raises(DataError, match=r"^non-finite values in features \['b'\]$"):
        normalize(Dataset(Y, None, ["a", "b"]), copy=False)
    assert Y.tobytes() == before


@pytest.mark.parametrize("order", ["C", "F"])
def test_normalize_keeps_numpys_bits_across_full_size_blocks(order):
    # the credit-card width over three of _std's column blocks and a part
    m = 29
    n = 3 * (data_io._BLOCK_ELEMENTS // m) + 7
    Y = np.asarray(np.random.default_rng(9).standard_normal((m, n)) * 3 + 2, order=order)
    expected = (Y - Y.mean(axis=1, keepdims=True)) / Y.std(axis=1, ddof=1, keepdims=True)
    assert normalize(Dataset(Y, None, [f"f{i}" for i in range(m)])).Y.tobytes() == \
        expected.tobytes()


def test_subsample_counts_and_anomaly_retention():
    rng = np.random.default_rng(3)
    labels = np.array([1] * 10 + [0] * 200)
    ds = Dataset(rng.standard_normal((4, 210)), labels, [f"f{i}" for i in range(4)])
    out = subsample(ds, ratio=5, seed=9)
    assert out.n_samples == 10 + 50
    assert out.labels.sum() == 10
    # every anomaly column survives, with its features intact
    anom_cols = {tuple(ds.Y[:, i]) for i in range(10)}
    kept = {tuple(out.Y[:, i]) for i in np.flatnonzero(out.labels == 1)}
    assert kept == anom_cols


def test_subsample_caps_at_available_normals():
    labels = np.array([1] * 4 + [0] * 6)
    ds = Dataset(np.random.default_rng(4).standard_normal((3, 10)), labels,
                 ["a", "b", "c"])
    out = subsample(ds, ratio=100, seed=0)
    assert out.n_samples == 10


def test_subsample_deterministic():
    labels = np.array([1] * 5 + [0] * 100)
    ds = Dataset(np.random.default_rng(5).standard_normal((3, 105)), labels,
                 ["a", "b", "c"])
    a = subsample(ds, ratio=3, seed=7)
    b = subsample(ds, ratio=3, seed=7)
    assert np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.labels, b.labels)


def test_subsample_requires_labels_and_anomalies():
    Y = np.ones((2, 5))
    with pytest.raises(DataError):
        subsample(Dataset(Y, None, ["a", "b"]), 2, 0)
    with pytest.raises(DataError):
        subsample(Dataset(Y, np.zeros(5, dtype=int), ["a", "b"]), 2, 0)


def test_synth_shapes_and_labels():
    ds = synth_generate(SynthConfig(30, 5, 10, 4, 3, 2, 0.1, True, 6))
    assert ds.Y.shape == (10, 35)
    assert list(ds.labels) == [0] * 30 + [1] * 5
    assert ds.provenance["source"] == "synthetic"


def test_synth_bit_deterministic():
    cfg = SynthConfig(20, 4, 8, 3, 2, 2, 0.05, True, 7)
    a = synth_generate(cfg)
    b = synth_generate(cfg)
    assert np.array_equal(a.Y, b.Y)


def test_synth_noiseless_exact_recovery():
    cfg = SynthConfig(25, 5, 12, 4, 3, 2, 0.0, True, 8)
    ds = synth_generate(cfg)
    Dn = ds.provenance["normal_dictionary"]
    Cn = ds.provenance["normal_codes"]
    assert np.max(np.abs(ds.Y[:, :25] - Dn @ Cn)) < 1e-12
    # coding normals against the planted dictionary reaches machine zero
    X = batch_code(Dictionary(Dn), ds.Y[:, :25], CodingConfig(2))
    assert np.max(representation_errors(Dictionary(Dn), ds.Y[:, :25], X)) < 1e-9


def test_synth_disjoint_support_orthogonality():
    ds = synth_generate(SynthConfig(20, 8, 16, 5, 4, 3, 0.0, True, 9))
    Dn = ds.provenance["normal_dictionary"]
    Da = ds.provenance["anomaly_dictionary"]
    assert np.max(np.abs(Dn.T @ Da)) < 1e-10
    assert np.allclose(np.linalg.norm(Da, axis=0), 1.0, atol=1e-10)


def test_synth_anomalies_unrepresentable_by_normal_atoms():
    ds = synth_generate(SynthConfig(20, 8, 16, 5, 4, 3, 0.0, True, 10))
    Dn = Dictionary(ds.provenance["normal_dictionary"])
    Ya = ds.Y[:, 20:]
    X = batch_code(Dn, Ya, CodingConfig(3))
    errs = representation_errors(Dn, Ya, X)
    # anomalies are orthogonal to the normal span, nothing can be explained
    assert np.min(errs / np.linalg.norm(Ya, axis=0)) > 0.999


def test_synth_positive_codes_flag():
    cfg = SynthConfig(15, 3, 8, 3, 2, 2, 0.0, True, 11, positive_codes=True)
    ds = synth_generate(cfg)
    assert np.all(ds.provenance["normal_codes"] >= 0)
    assert np.all(ds.provenance["anomaly_codes"] >= 0)


def test_synth_rejects_tight_dimension():
    with pytest.raises(DataError):
        synth_generate(SynthConfig(10, 2, 4, 3, 2, 2, 0.0, True, 12))


def test_synth_refuses_noise_that_overflows():
    cfg = SynthConfig(20, 2, 4, 2, 1, 1, 1e308)
    with pytest.raises(DataError, match=r"^noise_sigma=1e\+308 makes samples overflow$"):
        synth_generate(cfg)


@pytest.mark.parametrize("fields, message", [
    ({"n_anomaly": -1}, "n_anomaly must be >= 0"),
    ({"noise_sigma": -0.1}, "noise_sigma must be finite and >= 0"),
    ({"noise_sigma": float("nan")}, "noise_sigma must be finite and >= 0"),
    ({"noise_sigma": float("inf")}, "noise_sigma must be finite and >= 0"),
    ({"normal_atoms": 10_001, "disjoint_support": False}, "at most 10000 atoms"),
    ({"anomaly_atoms": 10_001, "disjoint_support": False}, "at most 10000 atoms"),
    *[({k: 0}, "all synthetic counts must be >= 1")
      for k in ("n_normal", "m", "normal_atoms", "anomaly_atoms", "s_gen")],
    ({"m": 4}, r"^m=4 too small to orthogonalize 3\+2 atoms$"),
], ids=["negative-n-anomaly", "negative-noise", "nan-noise", "inf-noise",
        "normal-atoms-above-limit", "anomaly-atoms-above-limit", "no-normals", "no-features",
        "no-normal-atoms", "no-anomaly-atoms", "no-atoms-per-signal", "m-below-disjoint-atoms"])
def test_synth_config_rejects(fields, message):
    base = dict(n_normal=10, n_anomaly=2, m=6, normal_atoms=3, anomaly_atoms=2, s_gen=2,
                noise_sigma=0.1)
    with pytest.raises(DataError, match=message):
        SynthConfig(**{**base, **fields})


@pytest.mark.parametrize("call, message, csv_text, flags", [
    (lambda p: Dataset(np.ones((2, 3)), np.zeros(2, dtype=int), ["a", "b"]),
     "labels length does not match sample count", None, None),
    (lambda p: load_csv(p, schema="ulb"), "{path}: missing expected columns ['Class']",
     ",".join(["Time"] + ULB_FEATURES) + "\n" + ",".join(["0"] * 30) + "\n", []),
    (lambda p: load_csv(p, schema="generic", label_column="y"),
     "{path}: missing expected columns ['y']", "a,b\n1,2\n3,4\n",
     ["--schema", "generic", "--label-column", "y"]),
    (lambda p: normalize(Dataset(np.ones((2, 1)), None, ["a", "b"])),
     "normalization needs at least 2 samples", "a,b,y\n1,2,0\n",
     ["--schema", "generic", "--label-column", "y", "--normalize"]),
], ids=["labels-length", "ulb-without-class", "generic-without-label-column",
        "normalize-one-sample"])
def test_data_io_refusals(tmp_path, capsys, call, message, csv_text, flags):
    # where a CSV reaches the refusal, the eval verb exits 3 with its one line
    p = tmp_path / "data.csv"
    if csv_text is not None:
        p.write_text(csv_text)
    message = message.format(path=p)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call(p)
    if flags is not None:
        preds = tmp_path / "preds.txt"
        preds.write_text("0\n")
        assert main(["eval", "--out", str(tmp_path / "o"), "--dataset", str(p),
                     "--predictions", str(preds), *flags]) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"


def test_csv_round_trip(tmp_path):
    ds = synth_generate(SynthConfig(12, 3, 6, 3, 2, 2, 0.1, True, 13))
    p = tmp_path / "out.csv"
    save_csv(ds, p)
    back = load_csv(p, schema="generic", label_column="Class")
    assert back.feature_names == ds.feature_names
    assert np.array_equal(back.Y, ds.Y)
    assert np.array_equal(back.labels, ds.labels)


def test_csv_round_trip_unlabeled(tmp_path):
    ds = Dataset(np.random.default_rng(14).standard_normal((3, 7)), None,
                 ["a", "b", "c"])
    p = tmp_path / "u.csv"
    save_csv(ds, p)
    back = load_csv(p, schema="generic")
    assert back.labels is None
    assert np.array_equal(back.Y, ds.Y)


def test_load_quoted_ulb_layout_matches_plain(tmp_path):
    # the published credit-card file quotes its header and its "0"/"1" labels
    plain = tmp_path / "plain.csv"
    _write_ulb_csv(plain, n_rows=6, anomalies=(2, 5))
    lines = plain.read_text().splitlines()
    quoted = tmp_path / "quoted.csv"
    quoted.write_text("\n".join(
        [",".join(f'"{h}"' for h in lines[0].split(","))]
        + [line[:-1] + f'"{line[-1]}"' for line in lines[1:]]
    ) + "\n")
    a, b = load_csv(plain, schema="ulb"), load_csv(quoted, schema="ulb")
    assert np.array_equal(a.Y, b.Y)
    assert list(b.labels) == [0, 0, 1, 0, 0, 1]


def test_load_crlf_and_blank_lines(tmp_path):
    p = tmp_path / "crlf.csv"
    p.write_bytes(b"a,b,y\r\n1,2,0\r\n\r\n3,4,1\r\n\n\n5,6,0\r\n")
    ds = load_csv(p, schema="generic", label_column="y")
    assert np.array_equal(ds.Y, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
    assert list(ds.labels) == [0, 1, 0]


_MALFORMED_BODIES = pytest.mark.parametrize("body, message", [
    ("1,2,0\n3,1_0,1\n", "non-numeric cell '1_0' at row 3, column 'b'"),
    ("1,2,0\n\n3,4,2\n", "label '2' at row 4 is not 0 or 1"),
    ("1,2,0\n\n3,inf,1\n", "non-finite value in data row 2, column 'b'"),
], ids=["digit-separator", "label-after-blank-line", "inf-after-blank-line"])


@_MALFORMED_BODIES
def test_load_malformed_row_names_row_and_column(tmp_path, body, message):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,y\n" + body)
    with pytest.raises(DataError, match=message):
        load_csv(p, schema="generic", label_column="y")


@pytest.mark.parametrize("half", ["parent", "child"])
@_MALFORMED_BODIES
def test_split_read_names_the_malformed_row(tmp_path, body, message, half):
    # 20 good rows after the faulty ones put the fault in the parent's half,
    # before them in the child's
    p = tmp_path / "bad.csv"
    pad = "0,0,0\n" * 20
    p.write_text("a,b,y\n" + (body + pad if half == "parent" else pad + body))
    with pytest.raises(DataError) as one:
        load_csv(p, schema="generic", label_column="y")
    with split_csv_reads() as forked, pytest.raises(DataError) as two:
        load_csv(p, schema="generic", label_column="y")
    assert str(two.value) == str(one.value)
    assert half == "child" or message in str(one.value)
    assert len(forked) == 1
    assert_no_child_left()


def _rows(n, seed, end="\n"):
    """n rows a,b,y of two random floats and a label."""
    values = np.random.default_rng(seed).standard_normal((n, 2)).tolist()
    return "".join(f"{a!r},{b!r},{k % 2}{end}" for k, (a, b) in enumerate(values))


def _quoted_ulb(n_rows):
    """The published credit-card layout: header and labels quoted."""
    values = np.random.default_rng(19).standard_normal((n_rows, 29)).tolist()
    header = ",".join(f'"{h}"' for h in ["Time"] + ULB_FEATURES + ["Class"])
    return header + "\n" + "".join(
        ",".join([str(float(k)), *map(repr, row), f'"{int(k % 7 == 3)}"']) + "\n"
        for k, row in enumerate(values))


def _shuffled_ulb(n_rows):
    """Credit-card rows with the columns in a shuffled order, so that the
    selected feature columns are neither contiguous nor in header order."""
    names = ["Time"] + ULB_FEATURES + ["Class"]
    order = np.random.default_rng(30).permutation(len(names))
    values = np.random.default_rng(31).standard_normal((n_rows, len(names)))
    values[:, -1] = np.arange(n_rows) % 5 == 2
    return ",".join(names[j] for j in order) + "\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in values[:, order].tolist())


@pytest.mark.parametrize("text, schema, label, forks", [
    (_quoted_ulb(40), "ulb", None, 1),
    (_shuffled_ulb(40), "ulb", None, 1),
    ("a,b,c\n" + _rows(30, 29), "generic", None, 1),
    ("a,b,y\r\n" + _rows(30, 20, "\r\n"), "generic", "y", 1),
    ("a,b,y\n" + _rows(10, 21) + "\n" * 40 + "\r\n" + _rows(10, 22), "generic", "y", 1),
    ("a,b,y\n" + _rows(30, 23)[:-1], "generic", "y", 1),
    # the split would fall inside the quoted cell, so the body is read in one process
    ("a,b,y\n" + _rows(5, 24) + '3,"4' + "\n" * 400 + '",1\n' + _rows(5, 25), "generic", "y", 0),
    # the header ends at a lone CR, before the first '\n'
    ("a,b,y\r" + _rows(30, 28), "generic", "y", 0),
    # a UTF-8 byte-order mark before the header's first name, V9
    ("\ufeff" + _shuffled_ulb(40), "ulb", None, 1),
], ids=["quoted-ulb", "ulb-columns-out-of-order", "generic-unlabelled", "crlf",
        "blank-lines-at-split", "no-trailing-newline", "quoted-newline-at-split",
        "header-ends-in-lone-cr", "byte-order-mark"])
def test_split_read_equals_one_process_read(tmp_path, text, schema, label, forks):
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode())
    one = load_csv(p, schema=schema, label_column=label)
    with split_csv_reads() as forked:
        two = load_csv(p, schema=schema, label_column=label)
    assert_same_load(one, two)
    assert len(forked) == forks
    assert_no_child_left()


def test_load_csv_reads_past_a_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" and PowerShell start the file with one; it is not
    # part of the first column's name
    body = "".join(f"{k % 2},{k * 0.5!r},{-k!r}\n" for k in range(6))
    (tmp_path / "plain.csv").write_text("y,a,b\n" + body, encoding="utf-8")
    (tmp_path / "bom.csv").write_text("y,a,b\n" + body, encoding="utf-8-sig")
    assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    bom = load_csv(tmp_path / "bom.csv", schema="generic")
    assert_same_load(load_csv(tmp_path / "plain.csv", schema="generic"), bom)
    assert bom.feature_names == ["y", "a", "b"]


def test_split_read_reaps_its_child_when_the_parent_half_raises(tmp_path, monkeypatch):
    # the child's 10,000 rows (240 kB) do not fit in the pipe: it is still
    # writing when the parent gives up, and must be stopped and reaped
    p = tmp_path / "t.csv"
    p.write_text("a,b,y\n" + "1,2,0\n" * 20_000)
    parent, parse = os.getpid(), data_io._parse_rows

    def parent_fails(text):
        if os.getpid() == parent:
            raise RuntimeError("stop")
        return parse(text)

    monkeypatch.setattr(data_io, "_parse_rows", parent_fails)
    with split_csv_reads() as forked, pytest.raises(RuntimeError, match="stop"):
        load_csv(p, schema="generic", label_column="y")
    assert len(forked) == 1
    assert_no_child_left()


def test_split_read_falls_back_when_the_child_half_is_wider(tmp_path):
    # the split falls where the rows widen, so each half parses on its own
    p = tmp_path / "t.csv"
    p.write_text("a,b,c\n" + "1,2,0\n" * 20 + "1,2,0,5\n" * 14)
    with split_csv_reads() as forked, pytest.raises(DataError) as two:
        load_csv(p, schema="generic")
    assert str(two.value).endswith("row 22 has 4 fields, the header has 3")
    assert len(forked) == 1
    assert_no_child_left()


def test_split_read_falls_back_when_the_parent_half_is_wider(tmp_path):
    # the split falls where the rows narrow, so each half parses on its own
    p = tmp_path / "t.csv"
    p.write_text("a,b,c\n" + "1,2,0,5\n" * 14 + "1,2,0\n" * 16)
    with split_csv_reads() as forked, pytest.raises(DataError) as two:
        load_csv(p, schema="generic")
    assert str(two.value).endswith("row 2 has 4 fields, the header has 3")
    assert len(forked) == 1
    assert_no_child_left()


def test_split_read_falls_back_when_the_child_exits_nonzero(tmp_path, monkeypatch):
    p = tmp_path / "t.csv"
    p.write_text("a,b,y\n" + _rows(30, 27))
    one = load_csv(p, schema="generic", label_column="y")
    parent, parse, exit = os.getpid(), data_io._parse_rows, os._exit
    parsed = []

    def counted(text):
        if os.getpid() == parent:
            parsed.append(text)
        return parse(text)

    monkeypatch.setattr(data_io, "_parse_rows", counted)
    monkeypatch.setattr(os, "_exit", lambda code: exit(1))  # after sending every row
    with split_csv_reads() as forked:
        two = load_csv(p, schema="generic", label_column="y")
    assert_same_load(one, two)
    assert len(forked) == 1 and len(parsed) == 2  # the first half, then the whole body
    assert_no_child_left()


class _TakeDropsLastRow(np.ndarray):
    def take(self, *args, **kwargs):
        return np.asarray(super().take(*args, **kwargs))[:-1]


def test_split_read_falls_back_when_the_child_sends_a_row_short(tmp_path, monkeypatch):
    # the child sends its shape, then its feature block one row short, as
    # when it dies mid-send: this process must not keep what it read
    p = tmp_path / "t.csv"
    p.write_text("a,b,y\n" + _rows(30, 34))
    one = load_csv(p, schema="generic", label_column="y")
    parent, parse = os.getpid(), data_io._parse_rows

    def short_in_child(text):
        rows = parse(text)
        return rows if os.getpid() == parent else rows.view(_TakeDropsLastRow)

    monkeypatch.setattr(data_io, "_parse_rows", short_in_child)
    with split_csv_reads() as forked:
        two = load_csv(p, schema="generic", label_column="y")
    assert_same_load(one, two)
    assert len(forked) == 1
    assert_no_child_left()


def test_split_read_in_one_process_when_fork_fails(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b,y\n" + _rows(30, 33))
    one = load_csv(p, schema="generic", label_column="y")

    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    with split_csv_reads() as forked, pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", no_fork)
        two = load_csv(p, schema="generic", label_column="y")
    assert_same_load(one, two)
    assert not forked
    assert_no_child_left()


def test_split_read_only_from_the_threshold(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b,y\n" + _rows(30, 26))
    with split_csv_reads() as forked:  # which restores _SPLIT_BYTES on exit
        data_io._SPLIT_BYTES = p.stat().st_size + 1
        load_csv(p, schema="generic", label_column="y")
        assert not forked
        data_io._SPLIT_BYTES = p.stat().st_size
        load_csv(p, schema="generic", label_column="y")
    assert len(forked) == 1
    assert data_io._SPLIT_BYTES == 2**23


def _table(n=3_000, seed=32):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((4, n)), rng.integers(0, 2, n), ["a", "b", "c", "d"])


_SAVE_AND_LIST_IMPORTS = """
import os, sys
os.sched_getaffinity = lambda pid: set(range(int(sys.argv[2])))
import numpy as np
from dictad import Dataset, save_csv
assert "concurrent.futures" not in sys.modules
n = int(sys.argv[1])
save_csv(Dataset(np.ones((3, n)), np.zeros(n, dtype=int), ["a", "b", "c"]), sys.argv[3])
print("concurrent.futures" in sys.modules)
"""


@pytest.mark.parametrize("rows, cpus, imported", [
    (1, 2, False), (data_io._SAVE_ROWS, 2, False), (data_io._SAVE_ROWS + 1, 2, True),
    (3 * data_io._SAVE_ROWS, 2, True), (3 * data_io._SAVE_ROWS, 1, False),
])
def test_save_csv_imports_the_thread_pool_only_for_its_worker(tmp_path, rows, cpus, imported):
    # concurrent.futures imports logging: a write of one block, or on one
    # CPU, has no worker and need not pay for them
    env = {**os.environ, "PYTHONPATH": str(Path(data_io.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _SAVE_AND_LIST_IMPORTS, str(rows), str(cpus),
                           str(tmp_path / "t.csv")], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{imported}\n"
    assert (tmp_path / "t.csv").read_bytes().count(b"\n") == rows + 1


def test_save_csv_formats_in_this_thread_when_no_thread_starts(tmp_path, monkeypatch):
    ds = _table()
    want = saved_csv_bytes(ds, tmp_path / "one.csv", False)
    lines, formatted = data_io._csv_lines, []

    def counted(x, ends):
        formatted.append((threading.get_ident(), len(x)))
        return lines(x, ends)

    def no_thread(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(data_io, "_csv_lines", counted)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert saved_csv_bytes(ds, tmp_path / "two.csv", True) == want
    assert {ident for ident, _ in formatted} == {threading.get_ident()}
    assert sum(n for _, n in formatted) == ds.n_samples


def test_save_csv_raises_a_worker_fault_and_leaves_no_thread(tmp_path, monkeypatch):
    # the worker's third block fails while this thread formats and writes
    # its own and the worker's next blocks may be queued or running
    lines, in_worker, fault = data_io._csv_lines, [], RuntimeError("format")

    def third_in_worker_fails(x, ends):
        if threading.current_thread() is not threading.main_thread():
            in_worker.append(len(x))
            if len(in_worker) == 3:
                raise fault
        return lines(x, ends)

    monkeypatch.setattr(data_io, "_csv_lines", third_in_worker_fails)
    monkeypatch.setattr(data_io, "_SAVE_ROWS", 100)
    before = set(threading.enumerate())
    with split_csv_reads() as forked, pytest.raises(RuntimeError) as raised:
        save_csv(_table(), tmp_path / "t.csv")
    assert raised.value is fault
    assert set(threading.enumerate()) == before
    assert not forked


def test_only_read_halves_forks():
    # one function, data_io._read_halves, owns the fork, its pipe, the fork
    # warning's filter, the fallback and the killing and reaping of the
    # child; _read_csv is its one caller
    modules = sorted(Path(data_io.__file__).parent.glob("*.py"))
    owner = inspect.getsource(data_io._read_halves)
    for token in ("os.fork", "os.pipe", "os.kill", "os.waitpid", "os._exit"):
        users = {p.name: p.read_text(encoding="utf-8").count(token) for p in modules}
        assert {k: v for k, v in users.items() if v} == {"data_io.py": owner.count(token)}, token
        assert owner.count(token)
    callers = {p.name: p.read_text(encoding="utf-8").count("_read_halves(") for p in modules}
    assert {k: v for k, v in callers.items() if v} == {"data_io.py": 2}  # def and one call
    assert inspect.getsource(data_io._read_csv).count("_read_halves(") == 1


def test_only_save_csv_uses_threads():
    # one function, data_io.save_csv, owns the thread pool, its fallback
    # and the joining of its threads
    modules = sorted(Path(data_io.__file__).parent.glob("*.py"))
    owner = inspect.getsource(data_io.save_csv)
    for token in ("ThreadPoolExecutor", "threading", "concurrent"):
        users = {p.name: p.read_text(encoding="utf-8").count(token) for p in modules}
        expected = {"data_io.py": owner.count(token)} if owner.count(token) else {}
        assert {k: v for k, v in users.items() if v} == expected, token
    assert owner.count("ThreadPoolExecutor")


def test_forked_children_only_write():
    # no message goes from a parent to its child: pipe.write occurs only
    # inside the one child (load_csv's, nested in _read_halves), which uses
    # its pipe only to write to it
    owner = ast.parse(inspect.getsource(data_io._read_halves)).body[0]
    nested = [f for f in ast.walk(owner) if isinstance(f, ast.FunctionDef) and f is not owner]
    assert [(f.name, [a.arg for a in f.args.args]) for f in nested] == [("child", ["pipe"])]
    # the forked process closes the read end, opens the write end to write
    # and leaves through os._exit
    branch, = [n for n in ast.walk(owner)
               if isinstance(n, ast.If) and ast.unparse(n.test) == "pid == 0"]
    calls = sorted(ast.unparse(n) for n in ast.walk(branch) if isinstance(n, ast.Call))
    assert calls == ["child(pipe)", "open(w, 'wb')", "os._exit(code)", "os.close(r)"]
    children, writes = [], []
    for p in sorted(Path(data_io.__file__).parent.glob("*.py")):
        text = p.read_text(encoding="utf-8")
        assert "pwrite" not in text, p.name
        tree = ast.parse(text)
        found = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "child"]
        children += [p.name] * len(found)
        inside = {id(node) for f in found for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "pipe.write":
                writes.append(id(node) in inside)
        for f in found:
            uses = [node for node in ast.walk(f) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id == "pipe"]
            assert {node.attr for node in uses} <= {"write", "flush"}
    assert children == ["data_io.py"]
    assert writes and all(writes), writes


def test_synth_csv_bytes_pinned(tmp_path):
    # pinned bytes: neither the generator's random stream nor the writer's
    # number format may change
    cfg = SynthConfig(n_normal=40, n_anomaly=8, m=12, normal_atoms=4, anomaly_atoms=3,
                      s_gen=2, noise_sigma=0.01, seed=7)
    p = tmp_path / "s.csv"
    save_csv(synth_generate(cfg), p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "6639bdb30e554e7774cd6e306f858a5d5d5e81100e69dbb6f3fdfc27c45399b9"
    )
