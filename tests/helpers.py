"""Shared construction helpers for the test suite."""

import contextlib
import os
import warnings

import numpy as np
import pytest

from dictad import Dictionary, data_io


def random_dictionary(m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    return Dictionary(A / np.linalg.norm(A, axis=0))


def planted_instance(m, n, N, s, seed, sigma=0.0, positive=False):
    """Planted s-sparse data Y = D X + noise with coefficient magnitudes
    bounded away from zero. Returns (D_true, X_true, Y)."""
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((m, n))
    D /= np.linalg.norm(D, axis=0)
    X = np.zeros((n, N))
    for i in range(N):
        sup = rng.choice(n, s, replace=False)
        vals = rng.uniform(0.5, 1.5, s)
        if not positive:
            vals *= rng.choice([-1.0, 1.0], s)
        X[sup, i] = vals
    Y = D @ X + sigma * rng.standard_normal((m, N))
    return D, X, Y


@contextlib.contextmanager
def split_csv_reads():
    """Within the block, load_csv parses in two processes every body it can
    split, whatever its size and the host's CPU count, and save_csv formats
    with its worker thread. Yields the list of the pids load_csv forks. After each
    fork the parent sees the DeprecationWarning that Python >= 3.12 gives
    when a process with threads forks."""
    forked, fork = [], os.fork

    def fork_and_warn():
        pid = fork()
        if pid:
            forked.append(pid)
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_io, "_SPLIT_BYTES", 0)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        mp.setattr(os, "fork", fork_and_warn)
        yield forked


def saved_csv_bytes(ds, path, split):
    """The bytes save_csv writes for ds at path: with its worker thread, as
    with two CPUs, when split, else in this thread alone, as with one CPU.
    No process is forked."""
    with split_csv_reads() as forked, pytest.MonkeyPatch.context() as mp:
        if not split:
            mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        data_io.save_csv(ds, path)
    assert not forked
    assert_no_child_left()
    return path.read_bytes()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_load(a, b):
    """The two datasets hold the same bits in the same layout."""
    assert a.Y.dtype == b.Y.dtype == np.float64 and a.Y.strides == b.Y.strides
    assert np.array_equal(a.Y.view(np.uint64), b.Y.view(np.uint64))
    assert a.feature_names == b.feature_names
    if a.labels is None:
        assert b.labels is None
    else:
        assert a.labels.dtype == b.labels.dtype and np.array_equal(a.labels, b.labels)
