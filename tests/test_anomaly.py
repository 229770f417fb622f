import re

import numpy as np
import pytest

from dictad import (
    ADDLConfig,
    CodingConfig,
    DataError,
    DLConfig,
    PopularityConfig,
    SynthConfig,
    addl_run,
    popularity_filter_run,
    synth_generate,
)


def _stage(n_atoms=4, iters=5, s=2, rtol=0.0, seed=1):
    return DLConfig(n_atoms, iters, CodingConfig(s, rtol), seed=seed)


def test_addl_identical_signals_all_normal():
    y = np.array([1.0, 2.0, -1.0, 0.5])
    Y = np.tile(y.reshape(-1, 1), (1, 8))
    cfg = ADDLConfig(3, _stage(n_atoms=2, s=1), CodingConfig(1))
    labels, trace = addl_run(Y, cfg)
    assert np.all(labels == 0)
    # all errors equal the frozen mean, strict inequality empties the set
    assert trace.records[0].card == 0


def test_addl_single_iteration_thresholds_first_stage_errors():
    rng = np.random.default_rng(2)
    Y = rng.standard_normal((6, 30))
    cfg = ADDLConfig(1, _stage(n_atoms=4, s=2, seed=3), CodingConfig(2))
    labels, trace = addl_run(Y, cfg)
    assert len(trace.records) == 1
    assert labels.sum() == trace.records[0].card
    # flagged = strictly above the mean error of the only stage
    assert trace.records[0].fp is None


def test_addl_trace_and_truth_columns():
    ds = synth_generate(SynthConfig(40, 4, 8, 3, 2, 2, 0.01, True, 4))
    cfg = ADDLConfig(3, _stage(n_atoms=4, s=2, seed=5), CodingConfig(2))
    labels, trace = addl_run(ds.Y, cfg, truth=ds.labels)
    assert 1 <= len(trace.records) <= 3
    for r in trace.records:
        assert r.fp is not None and r.fn is not None
        assert 0 <= r.card <= ds.n_samples


def test_addl_deterministic():
    ds = synth_generate(SynthConfig(40, 4, 8, 3, 2, 2, 0.01, True, 6))
    cfg = ADDLConfig(3, _stage(n_atoms=4, s=2, seed=7), CodingConfig(2))
    l1, t1 = addl_run(ds.Y, cfg)
    l2, t2 = addl_run(ds.Y, cfg)
    assert np.array_equal(l1, l2)
    assert [r.card for r in t1.records] == [r.card for r in t2.records]


def test_popularity_uniform_data_all_released():
    y = np.array([1.0, -2.0, 0.5])
    Y = np.tile(y.reshape(-1, 1), (1, 10))
    cfg = PopularityConfig(3, _stage(n_atoms=2, s=1), CodingConfig(1))
    labels, trace = popularity_filter_run(Y, cfg)
    assert np.all(labels == 0)
    assert trace.records[-1].card == 0


def test_popularity_stagnation_guard():
    # orthogonal one-hot signals: every atom has popularity 1 <= N_a,
    # nothing is ever removed, the no-progress rule must stop the loop
    Y = np.eye(6)
    cfg = PopularityConfig(5, _stage(n_atoms=6, s=1, seed=8), CodingConfig(1),
                           max_iterations=10)
    labels, trace = popularity_filter_run(Y, cfg)
    assert np.all(labels == 1)
    assert len(trace.records) < 10
    assert trace.records[-1].card == 6


def test_popularity_monotone_shrinkage():
    ds = synth_generate(SynthConfig(80, 8, 16, 4, 4, 3, 0.01, True, 9))
    cfg = PopularityConfig(8, _stage(n_atoms=8, iters=10, s=3, rtol=0.08, seed=10),
                           CodingConfig(3, 0.08), max_iterations=20)
    _, trace = popularity_filter_run(ds.Y, cfg, truth=ds.labels)
    cards = [ds.n_samples] + [r.card for r in trace.records]
    assert all(b <= a for a, b in zip(cards, cards[1:]))


def test_popularity_keeps_the_signal_on_a_rare_atom():
    # two clusters: 9 copies of one signal (popular atom), 1 odd one out
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    Y = np.column_stack([a] * 9 + [b])
    stage = _stage(n_atoms=2, iters=3, s=1, seed=11)
    labels, _ = popularity_filter_run(Y, PopularityConfig(2, stage, CodingConfig(1),
                                                          max_iterations=5))
    assert labels[-1] == 1 and labels[:9].sum() == 0


def test_popularity_requires_na_below_sample_count():
    with pytest.raises(DataError):
        popularity_filter_run(np.eye(3), PopularityConfig(3, _stage(2, s=1), CodingConfig(1)))


def test_popularity_sparsity_vs_stage_size_checked():
    with pytest.raises(DataError):
        popularity_filter_run(
            np.eye(4),
            PopularityConfig(2, _stage(n_atoms=2, s=2), CodingConfig(3)),
        )


def test_trace_csv_format(tmp_path):
    ds = synth_generate(SynthConfig(40, 4, 8, 3, 2, 2, 0.01, True, 12))
    cfg = ADDLConfig(2, _stage(n_atoms=4, s=2, seed=13), CodingConfig(2))
    _, trace = addl_run(ds.Y, cfg, truth=ds.labels)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "iter,card_A,fp,fn,mean_err"
    assert len(lines) == len(trace.records) + 1
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == str(trace.records[0].card)


def test_trace_csv_empty_truth_columns(tmp_path):
    Y = np.tile(np.array([[1.0], [2.0]]), (1, 6))
    cfg = ADDLConfig(1, _stage(n_atoms=2, s=1, seed=14), CodingConfig(1))
    _, trace = addl_run(Y, cfg)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[2] == "" and row[3] == ""


_TOO_SHORT = "ground-truth labels must have one entry per sample"


@pytest.mark.parametrize("call, message", [
    (lambda: ADDLConfig(0, _stage(), CodingConfig(2)), "global_iterations must be >= 1"),
    (lambda: PopularityConfig(0, _stage(), CodingConfig(2)), "n_anomalies must be >= 1"),
    (lambda: PopularityConfig(1, _stage(), CodingConfig(2), max_iterations=0),
     "max_iterations must be >= 1"),
    (lambda: addl_run(np.eye(4), ADDLConfig(1, _stage(), CodingConfig(2)), truth=[0, 1, 0]),
     _TOO_SHORT),
    (lambda: popularity_filter_run(np.eye(4), PopularityConfig(1, _stage(), CodingConfig(2)),
                                   truth=[[0, 1], [0, 1]]), _TOO_SHORT),
], ids=["addl-no-iterations", "popularity-no-anomalies", "popularity-no-iterations",
        "addl-short-truth", "popularity-2d-truth"])
def test_anomaly_refusals(call, message):
    # the CLI refuses these values as config errors before they get here
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call()
