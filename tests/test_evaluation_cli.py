import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dictad
from dictad import (ConfigError, ConfusionReport, DataError, Dataset, SynthConfig, confusion,
                    experiments, run_experiment, synth_generate)
from dictad.anomaly import ADDLConfig, addl_run
from dictad.cli import main
from dictad.data_io import ULB_FEATURES, load_csv, normalize, subsample
from dictad.dictionary_learning import DLConfig
from dictad.experiments import PARAMS
from dictad.sparse_coding import CodingConfig
from helpers import assert_no_child_left, split_csv_reads


def test_confusion_all_correct():
    rep = confusion([0, 1, 0, 1], [0, 1, 0, 1])
    assert (rep.tp, rep.fp, rep.tn, rep.fn) == (2, 0, 2, 0)
    assert rep.accuracy == 1.0


def test_confusion_matches_brute_force():
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 2, 200)
    est = rng.integers(0, 2, 200)
    rep = confusion(truth, est)
    pairs = list(zip(truth, est))
    assert rep.tp == pairs.count((1, 1))
    assert rep.fp == pairs.count((0, 1))
    assert rep.tn == pairs.count((0, 0))
    assert rep.fn == pairs.count((1, 0))
    assert rep.n == 200
    assert rep.accuracy == (rep.tp + rep.tn) / 200


def test_confusion_label_swap_symmetry():
    rng = np.random.default_rng(1)
    truth = rng.integers(0, 2, 50)
    est = rng.integers(0, 2, 50)
    a = confusion(truth, est)
    b = confusion(1 - truth, 1 - est)
    assert (a.tp, a.fp, a.tn, a.fn) == (b.tn, b.fn, b.tp, b.fp)


def test_confusion_length_mismatch():
    with pytest.raises(DataError):
        confusion([0, 1], [0])


def test_confusion_empty_report():
    assert ConfusionReport(0, 0, 0, 0).accuracy == 0.0


def _synth_flags(out):
    return [
        "synth", "--out", str(out), "--seed", "21",
        "--n-normal", "40", "--n-anomaly", "8", "--features", "12",
        "--normal-atoms", "4", "--anomaly-atoms", "3", "--s-gen", "2",
        "--noise-sigma", "0.01",
    ]


def test_cli_synth_writes_dataset(tmp_path, capsys):
    out = tmp_path / "synth"
    assert main(_synth_flags(out)) == 0
    assert (out / "dataset.csv").exists()
    result = json.loads((out / "result.json").read_text())
    assert result["metrics"]["n_samples"] == 48
    assert result["metrics"]["n_anomalies"] == 8
    assert "done" in capsys.readouterr().out


def test_cli_addl_on_synth_dataset(tmp_path):
    data_dir = tmp_path / "data"
    assert main(_synth_flags(data_dir)) == 0
    out = tmp_path / "addl"
    rc = main([
        "addl", "--out", str(out),
        "--dataset", str(data_dir / "dataset.csv"),
        "--schema", "generic", "--label-column", "Class",
        "--sparsity", "2", "--stage-atoms", "4", "--dl-iterations", "5",
        "--global-iterations", "3", "--seed", "2",
    ])
    assert rc == 0
    labels = [int(v) for v in (out / "labels.txt").read_text().split()]
    assert len(labels) == 48
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,card_A,fp,fn,mean_err"
    result = json.loads((out / "result.json").read_text())
    assert result["metrics"]["n_flagged"] == sum(labels)
    assert "confusion" in result["metrics"]


def test_cli_addl_normalize_subsample_matches_library(tmp_path):
    # the CLI z-scores the loaded table, then keeps 2 normals per anomaly
    data_dir = tmp_path / "data"
    assert main(_synth_flags(data_dir) + ["--n-normal", "60"]) == 0
    data = data_dir / "dataset.csv"
    out = tmp_path / "addl"
    rc = main([
        "addl", "--out", str(out), "--dataset", str(data),
        "--schema", "generic", "--label-column", "Class",
        "--normalize", "--subsample-ratio", "2",
        "--sparsity", "2", "--stage-atoms", "4", "--dl-iterations", "5",
        "--global-iterations", "3", "--seed", "2",
    ])
    assert rc == 0
    labels = [int(v) for v in (out / "labels.txt").read_text().split()]
    assert len(labels) == 24
    ds = subsample(normalize(load_csv(data, schema="generic", label_column="Class")), 2, 2)
    cfg = ADDLConfig(3, DLConfig(4, 5, CodingConfig(2), seed=2), CodingConfig(2))
    expected, _ = addl_run(ds.Y, cfg, truth=ds.labels)
    assert labels == [int(v) for v in expected]


def test_cli_popularity_derives_anomaly_count(tmp_path):
    data_dir = tmp_path / "data"
    assert main(_synth_flags(data_dir)) == 0
    out = tmp_path / "pop"
    rc = main([
        "popularity", "--out", str(out),
        "--dataset", str(data_dir / "dataset.csv"),
        "--schema", "generic", "--label-column", "Class",
        "--sparsity", "2", "--stage-atoms", "4", "--dl-iterations", "5",
        "--max-iterations", "10", "--seed", "2",
    ])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["metrics"]["iterations"] >= 1
    assert (out / "labels.txt").exists()
    assert (out / "trace.csv").exists()


def _toy_config(tmp_path):
    cfg = {
        "synth": {
            "n_normal": 60, "n_anomaly": 60, "m": 16,
            "normal_atoms": 4, "anomaly_atoms": 4, "s_gen": 2,
            "noise_sigma": 0.0, "disjoint_support": True, "seed": 5,
            "positive_codes": True,
        },
        "sparsity": 3,
        "stage_atoms": 8,
        "dl_iterations": 15,
        "atoms_per_class": 4,
        "seed": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_pretrain_separable_toy(tmp_path):
    out = tmp_path / "pre"
    rc = main(["pretrain", "--config", str(_toy_config(tmp_path)), "--out", str(out)])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["metrics"]["train"]["accuracy"] == 1.0
    assert (out / "model.npz").exists()


def test_cli_toddler_separable_toy(tmp_path):
    out = tmp_path / "tod"
    rc = main([
        "toddler", "--config", str(_toy_config(tmp_path)), "--out", str(out),
        "--pretrain-fraction", "0.3", "--phi", "0.95",
    ])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    stream = result["metrics"]["stream"]
    assert stream["accuracy"] >= 0.95
    assert (out / "predictions.csv").exists()
    assert (out / "checkpoint.npz").exists()
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "index,predicted,true"
    assert len(lines) == stream["n"] + 1


@pytest.mark.parametrize("flags, policy", [
    ([], ("gram-norm", 0.0, 0.0)),
    (["--lambda1", "3"], ("gram-norm", 0.0, 0.0)),
    (["--lambda-policy", "model-norms"], ("model-norms", 0.0, 0.0)),
    (["--lambda-policy", "fixed", "--lambda1", "0.5", "--lambda2", "2"], ("fixed", 0.5, 2.0)),
], ids=["gram-norm", "gram-norm-unread-lambda1", "model-norms", "fixed"])
def test_cli_toddler_checkpoint_records_policy(tmp_path, flags, policy):
    # only the fixed policy reads lambda1 and lambda2; the others record 0.0
    out = tmp_path / "tod"
    assert main(["toddler", "--config", str(_toy_config(tmp_path)), "--out", str(out),
                 "--pretrain-fraction", "0.3", *flags]) == 0
    with np.load(out / "checkpoint.npz") as z:
        recorded = (str(z["policy_kind"]), z["policy_lambda1"], z["policy_lambda2"])
    assert recorded == policy


@pytest.mark.parametrize("verb, artifact", [("pretrain", "model.npz"),
                                             ("toddler", "checkpoint.npz")])
def test_cli_supervised_verbs_do_not_read_stage_atoms(tmp_path, verb, artifact):
    # stage_atoms 2 < sparsity 3 <= 2 x atoms_per_class: the pretrained
    # dictionary has 8 atoms whatever stage_atoms says. A config file may
    # hold the key; the verb has no --stage-atoms flag.
    cfg = json.loads(_toy_config(tmp_path).read_text())
    arrays = []
    for stage_atoms in (2, 8):
        out = tmp_path / f"{verb}-{stage_atoms}"
        config = tmp_path / f"config-{stage_atoms}.json"
        config.write_text(json.dumps({**cfg, "stage_atoms": stage_atoms}))
        assert main([verb, "--config", str(config), "--out", str(out)]) == 0
        with np.load(out / artifact) as z:
            arrays.append({k: z[k] for k in z.files})
        assert arrays[-1]["D"].shape == (16, 8)
    assert arrays[0].keys() == arrays[1].keys()
    for key in arrays[0]:
        assert np.array_equal(arrays[0][key], arrays[1][key])
    out = tmp_path / f"{verb}-flag"
    assert main([verb, "--config", str(config), "--out", str(out), "--stage-atoms", "8"]) == 2
    assert not out.exists()


def test_cli_eval_verb(tmp_path):
    data_dir = tmp_path / "data"
    assert main(_synth_flags(data_dir)) == 0
    preds = tmp_path / "preds.txt"
    preds.write_text("".join("0\n" for _ in range(40)) + "".join("1\n" for _ in range(8)))
    out = tmp_path / "eval"
    rc = main([
        "eval", "--out", str(out),
        "--dataset", str(data_dir / "dataset.csv"),
        "--schema", "generic", "--label-column", "Class",
        "--predictions", str(preds),
    ])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["metrics"]["accuracy"] == 1.0


@pytest.mark.parametrize("verb, extra", [
    ("synth", {"synth": {"n_normal": 40, "n_anomaly": 8, "m": 12, "normal_atoms": 4,
                         "anomaly_atoms": 3, "s_gen": 2, "noise_sigma": 0.01}}),
    ("addl", {"global_iterations": 2}),
    ("popularity", {"max_iterations": 3}),
    ("pretrain", {"atoms_per_class": 4}),
    ("toddler", {"atoms_per_class": 4, "pretrain_fraction": 0.5}),
    ("eval", {}),
])
def test_result_json_is_the_returned_record(tmp_path, verb, extra):
    data_dir = tmp_path / "data"
    assert main(_synth_flags(data_dir)) == 0
    preds = tmp_path / "preds.txt"
    preds.write_text("0\n" * 48)
    params = {"dataset": str(data_dir / "dataset.csv"), "schema": "generic",
              "label_column": "Class", "predictions": str(preds), "sparsity": 2,
              "stage_atoms": 4, "dl_iterations": 2, "seed": 2, **extra}
    result = run_experiment(verb, params, tmp_path / "out")
    assert set(result) == {"method", "config", "seed", "metrics", "wall_time_s"}
    assert result["method"] == verb
    assert json.loads((tmp_path / "out" / "result.json").read_text()) == result


@pytest.mark.parametrize("verb, source", [
    ("eval", "csv"), ("addl", "csv"), ("popularity", "csv"), ("pretrain", "csv"),
    ("toddler", "csv"), ("toddler", "synth"),
])
def test_normalize_verbs_z_score_their_table_once_in_place(tmp_path, monkeypatch, verb, source):
    # the bench traces normalize through experiments' binding. The driver
    # z-scores the table it just read (F-ordered) or generated (C-ordered)
    # in place, with the bytes that the library's copying call gives
    data_dir = tmp_path / "data"
    assert main(_synth_flags(data_dir)) == 0
    data = data_dir / "dataset.csv"
    synth = {"n_normal": 40, "n_anomaly": 8, "m": 12, "normal_atoms": 4, "anomaly_atoms": 3,
             "s_gen": 2, "noise_sigma": 0.01, "seed": 21}
    preds = tmp_path / "preds.txt"
    preds.write_text("0\n" * 48)
    seen = []

    def spy(ds, **kwargs):
        layout = "F" if ds.Y.strides[0] < ds.Y.strides[1] else "C"
        out = normalize(ds, **kwargs)
        seen.append((kwargs, out.Y is ds.Y, layout, out.Y.tobytes()))
        return out

    monkeypatch.setattr(experiments, "normalize", spy)
    params = {"normalize": True, "predictions": str(preds), "sparsity": 2, "stage_atoms": 4,
              "dl_iterations": 2, "atoms_per_class": 4, "pretrain_fraction": 0.5,
              "global_iterations": 2, "max_iterations": 3}
    if source == "synth":
        params["synth"] = synth
        expected = normalize(synth_generate(SynthConfig(**synth))).Y
    else:
        params.update(dataset=str(data), schema="generic", label_column="Class")
        expected = normalize(load_csv(data, schema="generic", label_column="Class")).Y
    config = tmp_path / "config.json"
    config.write_text(json.dumps(params))
    assert main([verb, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert seen == [({"copy": False}, True, "F" if source == "csv" else "C",
                     expected.tobytes())]


_DATA_KEYS = {"seed", "dataset", "schema", "label_column", "normalize"}
_LEARNER_KEYS = _DATA_KEYS | {"subsample_ratio", "sparsity", "residual_tol", "dl_iterations"}


@pytest.mark.parametrize("verb, config, keys", [
    ("synth", {}, {"seed", "synth"}),
    ("eval", {}, _DATA_KEYS | {"predictions"}),
    ("addl", {}, _LEARNER_KEYS | {"stage_atoms", "global_iterations"}),
    ("popularity", {}, _LEARNER_KEYS | {"stage_atoms", "n_anomalies", "max_iterations"}),
    ("pretrain", {}, _LEARNER_KEYS | {"alpha", "beta", "atoms_per_class"}),
    ("toddler", {}, _LEARNER_KEYS | {"alpha", "beta", "atoms_per_class", "phi",
                                     "lambda_policy", "lambda1", "lambda2", "pretrain_fraction"}),
    # a config key of another verb is accepted, ignored and not echoed
    ("eval", {"sparsity": 3}, _DATA_KEYS | {"predictions"}),
], ids=["synth", "eval", "addl", "popularity", "pretrain", "toddler", "eval-config-sparsity"])
def test_result_config_holds_only_what_the_verb_reads(tmp_path, verb, config, keys):
    data_dir = tmp_path / "data"
    assert main(_synth_flags(data_dir)) == 0
    preds = tmp_path / "preds.txt"
    preds.write_text("0\n" * 48)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    extra = {"eval": ["--predictions", str(preds)], "toddler": ["--pretrain-fraction", "0.5"]}
    argv = _synth_flags(out) if verb == "synth" else [
        verb, "--out", str(out), "--dataset", str(data_dir / "dataset.csv"),
        "--schema", "generic", "--label-column", "Class", *extra.get(verb, [])]
    assert main(argv + ["--config", str(path)]) == 0
    recorded = json.loads((out / "result.json").read_text())["config"]
    assert set(recorded) == keys
    assert recorded.keys().isdisjoint(config)  # each config key here is another verb's
    # the synth verb folds its rows into the synth object
    assert keys - {"synth"} - set(config) == {
        p.name for p in PARAMS if verb in p.verbs and not p.synth}


def test_cli_missing_config_file_exit_2(tmp_path, capsys):
    rc = main(["addl", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_invalid_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["addl", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_no_dataset_exit_2(tmp_path):
    assert main(["addl", "--out", str(tmp_path / "o")]) == 2


def test_cli_bad_csv_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,oops\n")
    rc = main([
        "addl", "--out", str(tmp_path / "o"),
        "--dataset", str(bad), "--schema", "generic",
        "--sparsity", "1", "--stage-atoms", "2", "--dl-iterations", "1",
    ])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("csv_text, preds_text", [
    ("a,b,Class\n1,2,0\n3,1\n", "0\n0\n"),
    ("a,b,Class\n1,nan,0\n3,4,1\n", "0\n1\n"),
    ("a,b,Class\n1,2,0\n3,4,7\n", "0\n1\n"),
    ("a,b,Class\n1,2,0\n3,4,1\n", "0\n1.5\n"),
    (None, "0\n1\n"),
    ("a,b,Class\n1,2,0\n3,4,1\n", None),
], ids=["ragged-row", "nan-cell", "label-7", "non-integer-prediction",
        "missing-dataset", "missing-predictions"])
def test_cli_malformed_input_exit_3(tmp_path, capsys, csv_text, preds_text):
    data, preds = tmp_path / "data.csv", tmp_path / "preds.txt"
    if csv_text is not None:
        data.write_text(csv_text)
    if preds_text is not None:
        preds.write_text(preds_text)
    rc = main([
        "eval", "--out", str(tmp_path / "o"), "--dataset", str(data),
        "--schema", "generic", "--label-column", "Class", "--predictions", str(preds),
    ])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("data error: ")
    assert err.count("\n") == 1


_ULB_HEADER = ",".join(["Time", *ULB_FEATURES, "Class"])


_MALFORMED_CSV = pytest.mark.parametrize("schema, csv_text, message", [
    ("generic", "a,b,Class\n1,2,0\n3,4,1,5\n", "row 3 has 4 fields, the header has 3"),
    ("generic", "a,b,Class\n1,0\n3,1\n", "row 2 has 2 fields, the header has 3"),
    ("generic", "a,b,Class\n1,2#3,0\n3,4,1\n", "non-numeric cell '2#3' at row 2"),
    ("generic", "a,b,Class\n", "no data rows"),
    ("ulb", f"{_ULB_HEADER}\n" + ",".join(["0.5"] * 30) + ",0\nnoon," + ",".join(["0.5"] * 29)
     + ",1\n", "non-numeric cell 'noon' at row 3, column 'Time'"),
    ("generic", "a,a,Class\n1,2,0\n3,4,1\n", "column 'a' appears more than once in the header"),
    ("ulb", ",".join(["Time", "V1", *ULB_FEATURES, "Class"]) + "\n" + ",".join(["0.5"] * 31)
     + ",0\n", "column 'V1' appears more than once in the header"),
], ids=["wide-row", "narrow-first-row", "hash-in-cell", "header-only", "ulb-time-text",
        "repeated-column", "ulb-repeated-v1"])


def _eval_stderr(tmp_path, capsys, schema):
    """eval on tmp_path's data.csv and preds.txt, warnings raised as errors:
    (exit code, stderr)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([
            "eval", "--out", str(tmp_path / "o"), "--dataset", str(tmp_path / "data.csv"),
            "--schema", schema, "--label-column", "Class",
            "--predictions", str(tmp_path / "preds.txt"),
        ])
    return rc, capsys.readouterr().err


@_MALFORMED_CSV
def test_cli_malformed_csv_exit_3(tmp_path, capsys, schema, csv_text, message):
    (tmp_path / "data.csv").write_text(csv_text)
    (tmp_path / "preds.txt").write_text("0\n1\n")
    rc, err = _eval_stderr(tmp_path, capsys, schema)
    assert rc == 3
    assert err.startswith("data error: ")
    assert err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("half", ["parent", "child"])
@_MALFORMED_CSV
def test_cli_malformed_csv_split_read_same_message(tmp_path, capsys, schema, csv_text, message,
                                                   half):
    # 20 rows of zeros after the body put a faulty row in the parent's half,
    # before it in the child's; a fault in the header stops the read earlier
    header, body = csv_text.split("\n", 1)
    pad = (",".join(["0"] * (header.count(",") + 1)) + "\n") * 20 if body else ""
    (tmp_path / "data.csv").write_text(
        header + "\n" + (body + pad if half == "parent" else pad + body))
    (tmp_path / "preds.txt").write_text("0\n1\n")
    one = _eval_stderr(tmp_path, capsys, schema)
    with split_csv_reads() as forked:
        two = _eval_stderr(tmp_path, capsys, schema)
    assert two == one
    assert one[0] == 3 and one[1].count("\n") == 1
    assert half == "child" or message in one[1]
    header_fault = "appears more than once" in message
    assert len(forked) == (0 if header_fault or not body else 1)
    assert_no_child_left()


def test_normalize_variance_overflow_rescales(tmp_path, capsys):
    # (+-1e200)^2 overflows: the feature is z-scored from its values over
    # 1e200, and the other feature keeps the bits of its own z-scores
    Y = np.vstack([np.tile([1e200, -1e200], 5), np.arange(10.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = normalize(Dataset(Y, None, ["a", "b"]))
    assert np.array_equal(out.Y[0], np.tile([1.0, -1.0], 5) / math.sqrt(10 / 9))
    assert np.array_equal(out.Y[1], normalize(Dataset(Y[1:], None, ["b"])).Y[0])
    gauss = np.random.default_rng(3).standard_normal(1000) * 1e300
    z = normalize(Dataset(gauss[None], None, ["g"])).Y[0]
    assert abs(z.mean()) <= 1e-16 and math.isclose(z.std(ddof=1), 1.0, rel_tol=1e-15)
    data = tmp_path / "data.csv"
    data.write_text("a,b,Class\n" + "".join(f"{a:g},{b:g},{k % 2}\n"
                                            for k, (a, b) in enumerate(Y.T)))
    rc = main(["addl", "--out", str(tmp_path / "o"), "--dataset", str(data),
               "--schema", "generic", "--label-column", "Class", "--normalize"])
    assert rc == 0, capsys.readouterr().err


def test_normalize_refuses_non_finite_values_of_an_overflowing_feature():
    Y = np.array([[1e300, -1e300, np.nan], [1e300, -1e300, 0.0], [1.0, 2.0, 3.0]])
    with pytest.raises(DataError, match=r"^non-finite values in features \['a'\]$"):
        normalize(Dataset(Y, None, ["a", "b", "c"]))



def _signed_scale_table(path, scale):
    # 60 rows: feature a alternates +-scale, b is small, every 7th row an anomaly
    path.write_text("a,b,Class\n" + "".join(f"{(-1) ** k * scale:g},{k * 0.37 % 5:g},"
                                            f"{int(k % 7 == 0)}\n" for k in range(60)))
    return path


def test_cli_sample_norm_overflow_exit_3(tmp_path, capsys):
    # without --normalize, ||y||^2 of a sample holding +-1e200 overflows
    data = _signed_scale_table(tmp_path / "data.csv", 1e200)
    rc = main(["addl", "--out", str(tmp_path / "o"), "--dataset", str(data),
               "--schema", "generic", "--label-column", "Class"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("data error: ")
    assert err.count("\n") == 1
    assert "--normalize" in err


def test_cli_stream_sample_norm_overflow_exit_3(tmp_path, capsys):
    # a streamed sample of norm inf is refused, not coded empty after an
    # overflow warning; the pretraining half holds none
    Y = np.random.default_rng(33).standard_normal((60, 12))
    Y[np.random.default_rng(0).permutation(60)[-1], 4] = 1e160  # run_toddler's last streamed row
    data = tmp_path / "data.csv"
    data.write_text(",".join(f"f{j}" for j in range(12)) + ",Class\n" + "".join(
        ",".join(map(repr, row)) + f",{int(k % 7 == 0)}\n" for k, row in enumerate(Y.tolist())))
    rc = main(["toddler", "--out", str(tmp_path / "o"), "--dataset", str(data),
               "--schema", "generic", "--label-column", "Class",
               "--pretrain-fraction", "0.5", "--atoms-per-class", "4"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "data error: the signal's norm overflows; rescale the features (--normalize)\n")


@pytest.mark.parametrize("verb, flags", [
    ("addl", []),
    ("popularity", []),
    ("pretrain", []),
    ("toddler", ["--pretrain-fraction", "0.5", "--atoms-per-class", "4"]),  # 30 rows, 8 atoms
], ids=["addl", "popularity", "pretrain", "toddler"])
def test_cli_atom_update_overflow_exit_3(tmp_path, capsys, verb, flags):
    # +-1e100 features keep every sample norm finite, but the norm of an atom
    # update (entries near 1e200) overflows: one data-error line, not an
    # overflow warning and a run on an atom divided by inf
    data = _signed_scale_table(tmp_path / "data.csv", 1e100)
    rc = main([verb, "--out", str(tmp_path / "o"), "--dataset", str(data),
               "--schema", "generic", "--label-column", "Class"] + flags)
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "data error: the update of atom 0 overflows; rescale the features (--normalize)\n"


def _overflow(*args):
    return np.float64(1e200) * np.float64(1e200)


@pytest.mark.parametrize("patched, rc_expected, prefix", [
    (False, 3, "data error: constant features mapped to zero: ['b']"),
    (True, 4, "numerical failure: overflow"),
], ids=["user-warning", "runtime-warning"])
def test_cli_warning_raised_as_error_exit_code(tmp_path, capsys, monkeypatch, patched,
                                               rc_expected, prefix):
    if patched:
        monkeypatch.setattr("dictad.cli.run_experiment", _overflow)
    data = tmp_path / "data.csv"
    data.write_text("a,b,Class\n" + "".join(f"{k * 0.7 % 3:g},5,{int(k % 5 == 0)}\n"
                                            for k in range(20)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["addl", "--out", str(tmp_path / "o"), "--dataset", str(data),
                   "--schema", "generic", "--label-column", "Class", "--normalize"])
    err = capsys.readouterr().err
    assert rc == rc_expected
    assert err.startswith(prefix)
    assert err.count("\n") == 1
@pytest.mark.filterwarnings("default::UserWarning")
def test_cli_prints_a_warning_as_one_line(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("a,b,Class\n" + "".join(f"{k * 0.7 % 3:g},5,{int(k % 5 == 0)}\n"
                                            for k in range(20)))
    rc = main(["addl", "--out", str(tmp_path / "o"), "--dataset", str(data),
               "--schema", "generic", "--label-column", "Class", "--normalize",
               "--sparsity", "1", "--stage-atoms", "2", "--dl-iterations", "1",
               "--global-iterations", "1"])
    assert rc == 0
    assert capsys.readouterr().err == "warning: constant features mapped to zero: ['b']\n"


def test_eval_prediction_lines(tmp_path, capsys):
    data, preds = tmp_path / "data.csv", tmp_path / "preds.txt"
    data.write_text("a,Class\n1,0\n2,1\n3,1\n")
    preds.write_text("0\n\n 1 \r\n0\n")
    assert main(["eval", "--out", str(tmp_path / "o"), "--dataset", str(data), "--schema",
                 "generic", "--label-column", "Class", "--predictions", str(preds)]) == 0
    metrics = json.loads((tmp_path / "o" / "result.json").read_text())["metrics"]
    assert (metrics["tp"], metrics["fn"], metrics["tn"]) == (1, 1, 1)
    preds.write_text("0\n1\n\nyes\n1\n")
    assert main(["eval", "--out", str(tmp_path / "o"), "--dataset", str(data), "--schema",
                 "generic", "--label-column", "Class", "--predictions", str(preds)]) == 3
    assert "line 4 is 'yes', not 0 or 1" in capsys.readouterr().err


_COMMON_FLAGS = {"-h", "--help", "--config", "--seed", "--out"}
_DATA_FLAGS = {"--dataset", "--schema", "--label-column", "--normalize"}
_LEARNER_FLAGS = _DATA_FLAGS | {"--subsample-ratio", "--sparsity", "--residual-tol",
                                "--dl-iterations"}
_SUPERVISED_FLAGS = _LEARNER_FLAGS | {"--alpha", "--beta", "--atoms-per-class"}


def test_cli_flag_surface():
    from argparse import _SubParsersAction

    from dictad.cli import build_parser

    verbs = next(a for a in build_parser()._actions if isinstance(a, _SubParsersAction)).choices
    surface = {verb: {s for a in p._actions for s in a.option_strings} - _COMMON_FLAGS
               for verb, p in verbs.items()}
    assert all({s for a in p._actions for s in a.option_strings} >= _COMMON_FLAGS
               for p in verbs.values())
    assert surface == {
        "pretrain": _SUPERVISED_FLAGS,
        "toddler": _SUPERVISED_FLAGS | {"--phi", "--lambda-policy", "--lambda1", "--lambda2",
                                        "--pretrain-fraction"},
        "addl": _LEARNER_FLAGS | {"--stage-atoms", "--global-iterations"},
        "popularity": _LEARNER_FLAGS | {"--stage-atoms", "--n-anomalies", "--max-iterations"},
        "synth": {"--n-normal", "--n-anomaly", "--features", "--normal-atoms",
                  "--anomaly-atoms", "--s-gen", "--noise-sigma"},
        "eval": _DATA_FLAGS | {"--predictions"},
    }


_SYNTH_SECTION = {"n_normal": 40, "n_anomaly": 8, "m": 12, "normal_atoms": 4,
                  "anomaly_atoms": 3, "s_gen": 2, "noise_sigma": 0.01}
_SYNTH_ARGS = ["--n-normal", "40", "--n-anomaly", "8", "--features", "12",
               "--normal-atoms", "4", "--anomaly-atoms", "3", "--s-gen", "2"]


@pytest.mark.parametrize("verb, config, flags", [
    ("addl", {"sparsity": "five"}, []),
    ("addl", {"sparsty": 5, "stage_atoms": 4}, []),
    ("eval", {"normalize": "no"}, []),
    ("addl", {"dl_iterations": 2.7}, []),
    ("addl", {"sparsity": True}, []),
    ("toddler", {"phi": float("nan")}, []),
    ("addl", [1, 2], []),
    ("synth", None, _SYNTH_ARGS),
    ("synth", {"synth": {**_SYNTH_SECTION, "bogus": 1}}, []),
    ("addl", {"synth": {**_SYNTH_SECTION, "bogus": 1}}, []),
    ("synth", None, _SYNTH_ARGS + ["--noise-sigma", "0.01", "--n-anomaly", "41"]),
    ("addl", None, ["--sparsity", "0"]),
    ("addl", None, ["--residual-tol", "-1"]),
    ("addl", None, ["--stage-atoms", "3"]),
    ("addl", None, ["--global-iterations", "0"]),
    ("popularity", None, ["--n-anomalies", "0"]),
    ("toddler", None, ["--phi", "1.5"]),
    ("pretrain", None, ["--alpha", "-1"]),
    ("pretrain", None, ["--atoms-per-class", "0"]),
    ("addl", None, ["--subsample-ratio", "-3"]),
    ("toddler", None, ["--lambda-policy", "fixed"]),
    ("toddler", None, ["--lambda-policy", "fixed", "--lambda1", "-1", "--lambda2", "1"]),
    ("addl", None, ["--sparsity", "five"]),
    ("addl", None, ["--schema", "csv"]),
    ("toddler", None, ["--lambda-policy", "model-norms", "--alpha", "0"]),
    ("toddler", None, ["--lambda-policy", "model-norms", "--beta", "0"]),
    ("synth", None, _SYNTH_ARGS + ["--noise-sigma", "0", "--normal-atoms", "10001"]),
    ("synth", {"synth": {**_SYNTH_SECTION, "anomaly_atoms": 10_001, "disjoint_support": False}},
     []),
    ("pretrain", None, ["--sparsity", "5", "--atoms-per-class", "2"]),
    ("toddler", None, ["--sparsity", "5", "--atoms-per-class", "2"]),
    ("synth", None, _SYNTH_ARGS + ["--noise-sigma", "0.01", "--sparsity", "3"]),
    # taken as prefixes, --normal would set --normal-atoms (synth has no
    # --normalize) and --pretrain --pretrain-fraction
    ("synth", None, _SYNTH_ARGS + ["--noise-sigma", "0.01", "--normal", "4"]),
    ("toddler", None, ["--pretrain", "0.2"]),
], ids=["string-int", "misspelled-key", "string-bool", "fractional-int", "bool-int",
        "nan-float", "non-object", "synth-missing-field", "synth-unknown-field",
        "synth-unknown-field-addl", "more-anomalies-than-normals", "sparsity-0",
        "negative-residual-tol", "stage-atoms-below-sparsity", "global-iterations-0",
        "n-anomalies-0", "phi-above-1", "negative-alpha", "atoms-per-class-0",
        "negative-subsample-ratio", "fixed-lambdas-missing", "negative-lambda",
        "flag-not-an-int", "flag-not-a-choice", "model-norms-zero-alpha",
        "model-norms-zero-beta", "synth-atoms-above-limit", "synth-object-atoms-above-limit",
        "pretrain-atoms-below-sparsity", "toddler-atoms-below-sparsity",
        "flag-of-another-verb", "abbreviated-flag-synth", "abbreviated-flag-toddler"])
def test_cli_bad_config_exit_2(tmp_path, capsys, verb, config, flags):
    argv = [verb, "--out", str(tmp_path / "o")]
    if verb != "synth":  # the one verb that reads no dataset and has no --dataset flag
        argv += ["--dataset", str(tmp_path / "missing.csv")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    rc = main(argv + flags)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb, csv_text, code, message", [
    ("toddler", "a,Class\n1,0\n2,1\n", 3,
     "data error: nothing left to stream after the pretraining split"),
    ("toddler", "a,Class\n1,0\n2,0\n3,0\n4,0\n", 3,
     "data error: pretraining split does not contain both classes"),
    ("popularity", "a,b\n1,2\n3,4\n", 2,
     "config error: n_anomalies is required when the dataset has no labels"),
    ("popularity", "a,Class\n1,0\n2,0\n3,0\n", 3,
     "data error: the dataset labels no sample as an anomaly; "
     "--n-anomalies sets the anomaly count"),
], ids=["toddler-nothing-to-stream", "toddler-one-class", "popularity-no-labels",
        "popularity-no-labelled-anomaly"])
def test_cli_runner_errors(tmp_path, capsys, verb, csv_text, code, message):
    data = tmp_path / "data.csv"
    data.write_text(csv_text)
    argv = [verb, "--out", str(tmp_path / "o"), "--dataset", str(data), "--schema", "generic"]
    if "Class" in csv_text:
        argv += ["--label-column", "Class"]
    assert main(argv) == code
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("preds, held", [("0\n1\n", 2), ("0\n1\n0\n1\n", 4), ("", 0)],
                         ids=["short", "long", "empty"])
def test_cli_eval_names_the_predictions_count(tmp_path, capsys, preds, held):
    (tmp_path / "data.csv").write_text("a,Class\n1,0\n2,1\n3,0\n")
    (tmp_path / "preds.txt").write_text(preds)
    assert _eval_stderr(tmp_path, capsys, "generic") == (
        3, f"data error: {tmp_path / 'preds.txt'} holds {held} predictions for 3 dataset rows\n")


@pytest.mark.parametrize("verb, flags, code, message", [
    ("eval", [], 2, "config error: evaluation needs a 'predictions' file (one 0/1 per line)"),
    ("pretrain", [], 3, "data error: pretraining needs labels"),
    ("toddler", [], 3, "data error: the online experiment needs labels for evaluation"),
    ("eval", ["--predictions", "{preds}"], 3,
     "data error: evaluation needs ground-truth labels in the dataset"),
], ids=["eval-without-predictions", "pretrain-unlabeled", "toddler-unlabeled", "eval-unlabeled"])
def test_experiments_refusals(tmp_path, capsys, verb, flags, code, message):
    data, preds = tmp_path / "data.csv", tmp_path / "preds.txt"
    data.write_text("a,b\n1,2\n3,4\n")
    preds.write_text("0\n1\n")
    assert main([verb, "--out", str(tmp_path / "o"), "--dataset", str(data), "--schema", "generic",
                 *(f.format(preds=preds) for f in flags)]) == code
    assert capsys.readouterr().err == message + "\n"


def test_run_experiment_refuses_an_unknown_method(tmp_path):
    # the CLI's parser refuses an unknown verb before it gets here
    with pytest.raises(ConfigError, match="^unknown method 'bogus'$"):
        run_experiment("bogus", {}, tmp_path / "o")


@pytest.mark.parametrize("data_bytes, preds_bytes", [
    (b"a,Class\n1,0\n\xff\xfe,1\n", b"0\n1\n"),
    (b"a,Class\n1,0\n2,1\n", b"0\n\xff\n"),
], ids=["dataset", "predictions"])
def test_cli_non_utf8_input_exit_3(tmp_path, capsys, data_bytes, preds_bytes):
    data, preds = tmp_path / "data.csv", tmp_path / "preds.txt"
    data.write_bytes(data_bytes)
    preds.write_bytes(preds_bytes)
    rc = main([
        "eval", "--out", str(tmp_path / "o"), "--dataset", str(data),
        "--schema", "generic", "--label-column", "Class", "--predictions", str(preds),
    ])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("data error: ")
    assert err.count("\n") == 1
    assert "not UTF-8 text" in err


def test_cli_reads_the_config_as_utf8_in_any_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259), whatever the locale's encoding: here ASCII
    data, preds, config = tmp_path / "data.csv", tmp_path / "preds.txt", tmp_path / "cfg.json"
    data.write_bytes("a,Klasse_é\n1,0\n2,1\n".encode())
    preds.write_text("0\n1\n")
    config.write_bytes(json.dumps({"dataset": str(data), "schema": "generic",
                                   "label_column": "Klasse_é", "predictions": str(preds)},
                                  ensure_ascii=False).encode())
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(dictad.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "dictad.cli", "eval", "--config", str(config),
                           "--out", str(tmp_path / "o")], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "o" / "result.json").read_text())["metrics"]["accuracy"] == 1.0


def test_cli_reads_past_a_byte_order_mark(tmp_path, capsys):
    # Excel's "CSV UTF-8" and PowerShell start each text file with one
    data, preds, config = tmp_path / "data.csv", tmp_path / "preds.txt", tmp_path / "cfg.json"
    data.write_text("Class,a\n0,1\n1,2\n", encoding="utf-8-sig")
    preds.write_text("0\n1\n", encoding="utf-8-sig")
    config.write_text(json.dumps({"dataset": str(data), "schema": "generic",
                                  "label_column": "Class", "predictions": str(preds)}),
                      encoding="utf-8-sig")
    assert main(["eval", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "result.json").read_text())["metrics"]["accuracy"] == 1.0
    # and a faulty row is named against the header the loader read
    data.write_text("Class,a\n0,1\n1,x\n", encoding="utf-8-sig")
    assert main(["eval", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
    assert "non-numeric cell 'x' at row 3, column 'a'" in capsys.readouterr().err


def test_cli_eval_subsample_ratio_exit_2(tmp_path, capsys):
    # subsampling would shuffle the labels but not the predictions
    data, preds = tmp_path / "data.csv", tmp_path / "preds.txt"
    data.write_text("a,Class\n1,0\n2,1\n3,0\n4,1\n")
    preds.write_text("0\n1\n0\n1\n")
    argv = ["eval", "--dataset", str(data), "--schema", "generic", "--label-column", "Class",
            "--predictions", str(preds), "--seed", "3"]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 0
    assert json.loads((tmp_path / "o" / "result.json").read_text())["metrics"]["accuracy"] == 1.0
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "o2"), "--subsample-ratio", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o2").exists()


@pytest.mark.parametrize("blocked", ["directory", "full-device"])
def test_cli_synth_unwritable_dataset_same_line_in_two_processes(tmp_path, capsys, blocked):
    # a dataset.csv that cannot be opened, or whose writes fail with ENOSPC
    # (/dev/full): the write on two threads reports the one-thread line
    if blocked == "full-device" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    errs = []
    for split in (False, True):
        out = tmp_path / f"out-{split}"
        out.mkdir()
        if blocked == "directory":
            (out / "dataset.csv").mkdir()
        else:
            (out / "dataset.csv").symlink_to("/dev/full")
        with split_csv_reads(), pytest.MonkeyPatch.context() as mp:
            if not split:
                mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            assert main(_synth_flags(out)) == 2
        assert_no_child_left()
        errs.append(capsys.readouterr().err.replace(str(out), "<out>"))
    assert errs[0] == errs[1]
    assert errs[0] == "config error: cannot write <out>" + (
        "/dataset.csv: Is a directory\n" if blocked == "directory" else
        ": No space left on device\n")


@pytest.mark.parametrize("verb, blocked", [
    ("synth", "out"),
    ("synth", "out/dataset.csv"),
    ("eval", "out/result.json"),
], ids=["out-is-a-file", "synth-dataset-is-a-directory", "eval-result-is-a-directory"])
def test_cli_unusable_output_path_exit_2(tmp_path, capsys, verb, blocked):
    data_dir = tmp_path / "data"
    assert main(_synth_flags(data_dir)) == 0
    preds = tmp_path / "preds.txt"
    preds.write_text("0\n" * 48)
    capsys.readouterr()
    path = tmp_path / blocked
    if blocked == "out":
        path.write_text("")
    else:
        path.mkdir(parents=True)
    argv = (_synth_flags(tmp_path / "out") if verb == "synth" else
            ["eval", "--out", str(tmp_path / "out"), "--dataset", str(data_dir / "dataset.csv"),
             "--schema", "generic", "--label-column", "Class", "--predictions", str(preds)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {path}: " + (
        "File exists\n" if blocked == "out" else "Is a directory\n")
