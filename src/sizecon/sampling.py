"""Selective and random sampling plans, and the rows they produce.

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
of each, set by set, for the plan a config draws at N, in the shape
``ExperimentConfig.plan_shape`` decides; the run seeds, labels and writes
its rows by those keys, and ``analyze`` counts the rows it expects from
``ExperimentConfig.rows`` before it builds them.

The pool a plan draws from is ``sizecon.device.rank_qubits`` of the
run's device, best qubit first; this module sees only that list.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import QUBIT_BUDGET, ExperimentConfig


def plan_keys(config: ExperimentConfig, n: int) -> np.ndarray:
    """The ``(items, 2)`` int64 ``(set_index, sample_index)`` rows of the
    plan ``config`` draws at ``n`` subsystems, set by set, in its
    ``plan_shape``."""
    return np.indices(config.plan_shape(n), dtype=np.int64).reshape(2, -1).T


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

