"""Seeded credit-card-shaped inputs for the benchmark.

A table has the ULB header ``Time,V1..V28,Amount,Class``. V1..V28 carry
planted sparse structure: a normal row is a sparse combination of atoms
from one dictionary, an anomaly a combination of atoms from another, both
plus Gaussian noise, then scaled column-wise so the variance falls from V1
to V28 as in a PCA output. ``Amount`` is log-normal, so heavy-tailed.

The two dictionaries are fixed (drawn from ``POPULATION_SEED``); the seed
draws the rows, their labels and their order. Every seed is then a new
sample of the same population, so run-to-run differences in cost and
quality come from the sample, not from a new geometry.

The generator uses numpy only and nothing from ``dictad``, so a change to
the program cannot change the inputs it is measured on. The same
(seed, shape) always gives the same bytes.
"""

from __future__ import annotations

import numpy as np

V_DIM = 28
POPULATION_SEED = 20200302
HEADER = "Time," + ",".join(f"V{i}" for i in range(1, V_DIM + 1)) + ",Amount,Class"

NORMAL_ATOMS = 20
ANOMALY_ATOMS = 48
NORMAL_SPARSITY = 4
ANOMALY_SPARSITY = 3
NOISE_SIGMA = 0.25
SECONDS_PER_TWO_DAYS = 172_792

# eval's predictions miss exactly this share of anomalies and raise exactly
# this many false alarms per anomaly, so the expected confusion is fixed
PRED_MISSED_SHARE = 0.2
PRED_FALSE_ALARMS_PER_ANOMALY = 0.3


def _unit_columns(A: np.ndarray) -> np.ndarray:
    return A / np.linalg.norm(A, axis=0)


def _planted_rows(rng, atoms, count, s, lo, hi) -> np.ndarray:
    """count x m rows, each a random s-sparse signed combination of atoms."""
    n_atoms = atoms.shape[1]
    support = np.argsort(rng.random((count, n_atoms)), axis=1)[:, :s]
    coef = rng.uniform(lo, hi, (count, s)) * rng.choice([-1.0, 1.0], (count, s))
    rows = np.zeros((count, atoms.shape[0]))
    for k in range(s):
        rows += atoms.T[support[:, k]] * coef[:, k:k + 1]
    return rows


def credit_card_table(n_rows: int, n_anomalies: int, seed: int, sample: int = 0):
    """Return (table, labels): an n_rows x 30 float table in header order
    without Class, and the {0,1} labels with exactly n_anomalies ones.
    Different ``sample`` numbers give independent tables for one seed."""
    population = np.random.default_rng(POPULATION_SEED)
    normal_atoms = _unit_columns(population.standard_normal((V_DIM, NORMAL_ATOMS)))
    anomaly_atoms = _unit_columns(population.standard_normal((V_DIM, ANOMALY_ATOMS)))
    rng = np.random.default_rng([seed, sample, n_rows, n_anomalies])
    labels = np.zeros(n_rows, dtype=np.int64)
    labels[rng.choice(n_rows, size=n_anomalies, replace=False)] = 1
    anom = labels == 1

    V = np.empty((n_rows, V_DIM))
    V[~anom] = _planted_rows(rng, normal_atoms, n_rows - n_anomalies, NORMAL_SPARSITY, 0.5, 1.5)
    V[anom] = _planted_rows(rng, anomaly_atoms, n_anomalies, ANOMALY_SPARSITY, 1.0, 2.5)
    V += NOISE_SIGMA * rng.standard_normal(V.shape)
    V *= np.linspace(2.0, 0.4, V_DIM)

    amount = np.where(anom, rng.lognormal(4.0, 1.6, n_rows), rng.lognormal(3.0, 1.3, n_rows))
    time = np.sort(rng.integers(0, SECONDS_PER_TWO_DAYS, n_rows)).astype(float)
    table = np.column_stack([time, V, np.round(amount, 2)])
    return table, labels


def write_table(path, table: np.ndarray, labels: np.ndarray) -> None:
    fmt = "%d," + ",".join(["%.6f"] * V_DIM) + ",%.2f,%d\n"
    with open(path, "w") as f:
        f.write(HEADER + "\n")
        for start in range(0, labels.size, 20_000):
            rows = np.column_stack([table[start:start + 20_000], labels[start:start + 20_000]])
            f.write("".join(fmt % tuple(r) for r in rows.tolist()))


def noisy_predictions(labels: np.ndarray, seed: int) -> np.ndarray:
    """Labels with an exact number of anomalies missed and normals flagged."""
    rng = np.random.default_rng([seed, labels.size, 7])
    anomalies = np.flatnonzero(labels == 1)
    normals = np.flatnonzero(labels == 0)
    preds = labels.copy()
    preds[rng.choice(anomalies, size=round(PRED_MISSED_SHARE * anomalies.size), replace=False)] = 0
    n_false = round(PRED_FALSE_ALARMS_PER_ANOMALY * anomalies.size)
    preds[rng.choice(normals, size=n_false, replace=False)] = 1
    return preds


def write_predictions(path, preds: np.ndarray) -> None:
    with open(path, "w") as f:
        f.write("".join("1\n" if p else "0\n" for p in preds.tolist()))
