"""Qubit ranking, selective/random sampling plans, synthetic calibration.

The selective procedure treats one pass over the sixteen best qubits as a
set: the top-16 pool is partitioned into ``n = 16 / (N * width)`` disjoint
samples (for single-qubit subsystems, n = 16/N), and the whole set is
repeated ``k`` times so each physical qubit contributes to each system
size. The random procedure draws uniformly seeded disjoint blocks instead
and handles subsystem counts that do not divide the pool.

A plan is one int64 array, ``maps``, ``(items, N * width)``: each sample's
physical qubits, block ``b`` in columns ``b * width`` to
``(b + 1) * width - 1``, the physical-map array ``TrajectoryEngine.sample``
takes. ``plan_keys`` names the same rows: the ``(set_index, sample_index)``
of each, set by set, for the plan a config draws at N. ``plan_shape`` is
the one place the shape of a plan is decided; the run seeds, labels and
writes its rows by those keys, and ``analyze`` counts the rows it expects
from that shape before it builds them.

``rank_qubits`` orders the device's qubits best first by the composite
score of ``qubit_scores``: mean readout error plus mean incident two-qubit
error, each weighted 1. ``synthetic_calibration`` draws a device whose rates
spread log-normally around fixed medians (module constants), in the order
p10, p01, one-qubit error, then every pair; a seed thus names one device.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .config import QUBIT_BUDGET, ExperimentConfig
from .simulator import DeviceModel

# synthetic_calibration's medians, and the standard deviation of each rate's log
READOUT_MEDIAN = 1e-2
SINGLE_QUBIT_MEDIAN = 3e-4
TWO_QUBIT_MEDIAN = 3e-3
LOG_SPREAD = 0.75


def qubit_scores(device: DeviceModel) -> np.ndarray:
    """Composite noise score of every qubit: its mean readout error plus the
    mean error of the pairs it belongs to (0 for a qubit in no pair)."""
    # each qubit's incident pair errors in the order the pairs are listed,
    # which fixes the rounding of each mean: one stable sort by qubit
    ends = device.pairs.ravel()
    incident = np.repeat(device.pair_errors, 2)[np.argsort(ends, kind="stable")]
    degree = np.bincount(ends, minlength=device.n_qubits)
    start = np.cumsum(degree) - degree
    mean = np.zeros(device.n_qubits)
    # a row sum of a contiguous (qubits, degree) table adds each row as
    # np.mean adds one qubit's list, pairwise
    for d in (np.flatnonzero(np.bincount(degree)[1:]) + 1).tolist():
        qubits = np.flatnonzero(degree == d)
        mean[qubits] = incident[start[qubits, None] + np.arange(d)].sum(axis=1) / d
    return 0.5 * (device.qubits[:, 0] + device.qubits[:, 1]) + mean


def rank_qubits(device: DeviceModel) -> list[int]:
    """Physical qubits ordered best (least noisy) first, ties by index."""
    return np.argsort(qubit_scores(device), kind="stable").tolist()


def plan_shape(config: ExperimentConfig, n: int) -> tuple[int, int]:
    """The (sets, samples per set) of the plan ``config`` draws at ``n``
    subsystems: k sets of ``16 / (n * width)`` samples in selective mode,
    one set of s samples in random mode."""
    if config.sampling_mode == "selective":
        return config.k_sets, QUBIT_BUDGET // (n * config.representation)
    return 1, config.s_repetitions


def plan_keys(config: ExperimentConfig, n: int) -> np.ndarray:
    """The ``(items, 2)`` int64 ``(set_index, sample_index)`` rows of the
    plan ``config`` draws at ``n`` subsystems, set by set, in the
    ``plan_shape``."""
    return np.indices(plan_shape(config, n), dtype=np.int64).reshape(2, -1).T


def selective_plan(pool: Sequence[int], n_subsystems: int, width: int, k: int) -> np.ndarray:
    """Partition the 16 best pool qubits into disjoint samples, k sets.

    Each set covers every one of the top 16 qubits exactly once with
    ``n = 16 / (n_subsystems * width)`` samples; the subsystem count must
    divide the pool (use :func:`random_plan` otherwise).
    """
    if k < 1:
        raise ValueError("need at least one set")
    if len(pool) < QUBIT_BUDGET:
        raise ValueError(
            f"pool of {len(pool)} qubits is smaller than the "
            f"{QUBIT_BUDGET}-qubit selective pool"
        )
    block_qubits = n_subsystems * width
    if block_qubits < 1 or QUBIT_BUDGET % block_qubits != 0:
        raise ValueError(
            f"{n_subsystems} subsystems x {width} qubits does not divide the "
            f"{QUBIT_BUDGET}-qubit pool; use the random procedure"
        )
    return np.tile(np.reshape(pool[:QUBIT_BUDGET], (-1, block_qubits)), (k, 1))


def random_plan(pool: Sequence[int], n_subsystems: int, width: int, s: int, seed: int) -> np.ndarray:
    """s seeded uniform draws of N disjoint width-blocks from the pool."""
    if s < 1:
        raise ValueError("need at least one repetition")
    block_qubits = n_subsystems * width
    if len(pool) < block_qubits:
        raise ValueError(
            f"pool of {len(pool)} qubits cannot host {n_subsystems} x {width} blocks"
        )
    # one choice per sample, in sample order: the plan stream fixes the bytes
    rng = np.random.default_rng(seed)
    draws = np.stack([rng.choice(len(pool), size=block_qubits, replace=False) for _ in range(s)])
    return np.asarray(pool)[draws]


def synthetic_calibration(n_qubits: int = 156, seed: int = 0) -> DeviceModel:
    """Heterogeneous per-qubit calibration, log-normally spread around medians.

    The medians (``READOUT_MEDIAN``, ``SINGLE_QUBIT_MEDIAN``,
    ``TWO_QUBIT_MEDIAN``) echo contemporary superconducting magnitudes, and
    every rate's log has standard deviation ``LOG_SPREAD``. All-to-all
    coupling is assumed, so every unordered pair gets a two-qubit error.
    Rates are clipped to 0.5 to stay physically sensible.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    rng = np.random.default_rng(seed)

    def draw(median: float, size: int) -> np.ndarray:
        return np.minimum(rng.lognormal(math.log(median), LOG_SPREAD, size), 0.5)

    qubits = [draw(median, n_qubits) for median in (READOUT_MEDIAN, READOUT_MEDIAN, SINGLE_QUBIT_MEDIAN)]
    pairs = np.column_stack(np.triu_indices(n_qubits, 1))
    return DeviceModel(np.transpose(qubits), pairs, draw(TWO_QUBIT_MEDIAN, len(pairs)))
