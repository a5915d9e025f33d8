"""Qubit ranking, selective/random sampling plans, synthetic calibration.

The selective procedure treats one pass over the sixteen best qubits as a
set: the top-16 pool is partitioned into ``n = 16 / (N * width)`` disjoint
samples (for single-qubit subsystems, n = 16/N), and the whole set is
repeated ``k`` times so each physical qubit contributes to each system
size. The random procedure draws uniformly seeded disjoint blocks instead
and handles subsystem counts that do not divide the pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .simulator import DeviceModel, QubitCalibration

SELECTIVE_POOL_SIZE = 16


@dataclass(frozen=True)
class PlanEntry:
    set_index: int
    sample_index: int
    blocks: tuple[tuple[int, ...], ...]   # one physical-qubit block per subsystem

    @property
    def physical_map(self) -> tuple[int, ...]:
        """Flattened block qubits, subsystem 0 first."""
        return tuple(q for block in self.blocks for q in block)


@dataclass(frozen=True)
class SamplingPlan:
    entries: tuple[PlanEntry, ...]
    n_samples_per_set: int
    n_sets: int

    def to_csv(self) -> str:
        lines = ["set_index,sample_index,subsystem,qubits"]
        for entry in self.entries:
            for sub, block in enumerate(entry.blocks):
                qubits = " ".join(map(str, block))
                lines.append(f"{entry.set_index},{entry.sample_index},{sub},{qubits}")
        return "\n".join(lines) + "\n"


def qubit_score(
    device: DeviceModel,
    qubit: int,
    readout_weight: float = 1.0,
    two_qubit_weight: float = 1.0,
) -> float:
    """Composite noise score: mean readout error + mean incident pair error."""
    incident = [p for pair, p in device.two_qubit_error.items() if qubit in pair]
    return _score(device.qubits[qubit], incident, readout_weight, two_qubit_weight)


def _score(
    cal: QubitCalibration, incident: list[float], readout_weight: float, two_qubit_weight: float
) -> float:
    readout = 0.5 * (cal.readout_p10 + cal.readout_p01)
    two_qubit = float(np.mean(incident)) if incident else 0.0
    return readout_weight * readout + two_qubit_weight * two_qubit


def qubit_scores(
    device: DeviceModel,
    readout_weight: float = 1.0,
    two_qubit_weight: float = 1.0,
) -> list[float]:
    """:func:`qubit_score` of every qubit, from one pass over the pairs."""
    # incident pair errors per qubit, in the order of two_qubit_error, so
    # each mean adds the same values in the same order as qubit_score
    incident: list[list[float]] = [[] for _ in range(device.n_qubits)]
    for (a, b), p in device.two_qubit_error.items():
        incident[a].append(p)
        incident[b].append(p)
    return [
        _score(cal, incident[q], readout_weight, two_qubit_weight)
        for q, cal in enumerate(device.qubits)
    ]


def rank_qubits(
    device: DeviceModel,
    readout_weight: float = 1.0,
    two_qubit_weight: float = 1.0,
) -> list[int]:
    """Physical qubits ordered best (least noisy) first, ties by index."""
    scores = qubit_scores(device, readout_weight, two_qubit_weight)
    return [q for _, q in sorted(zip(scores, range(device.n_qubits)))]


def _chunk_blocks(qubits: Sequence[int], n_subsystems: int, width: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(qubits[b * width : (b + 1) * width]) for b in range(n_subsystems)
    )


def selective_plan(
    pool: Sequence[int], n_subsystems: int, width: int, k: int
) -> SamplingPlan:
    """Partition the 16 best pool qubits into disjoint samples, k sets.

    Each set covers every one of the top 16 qubits exactly once with
    ``n = 16 / (n_subsystems * width)`` samples; the subsystem count must
    divide the pool (use :func:`random_plan` otherwise).
    """
    if k < 1:
        raise ValueError("need at least one set")
    if len(pool) < SELECTIVE_POOL_SIZE:
        raise ValueError(
            f"pool of {len(pool)} qubits is smaller than the "
            f"{SELECTIVE_POOL_SIZE}-qubit selective pool"
        )
    block_qubits = n_subsystems * width
    if block_qubits < 1 or SELECTIVE_POOL_SIZE % block_qubits != 0:
        raise ValueError(
            f"{n_subsystems} subsystems x {width} qubits does not divide the "
            f"{SELECTIVE_POOL_SIZE}-qubit pool; use the random procedure"
        )
    top = list(pool[:SELECTIVE_POOL_SIZE])
    n_samples = SELECTIVE_POOL_SIZE // block_qubits
    entries = []
    for set_index in range(k):
        for sample_index in range(n_samples):
            qubits = top[sample_index * block_qubits : (sample_index + 1) * block_qubits]
            entries.append(
                PlanEntry(
                    set_index=set_index,
                    sample_index=sample_index,
                    blocks=_chunk_blocks(qubits, n_subsystems, width),
                )
            )
    return SamplingPlan(tuple(entries), n_samples_per_set=n_samples, n_sets=k)


def random_plan(
    pool: Sequence[int], n_subsystems: int, width: int, s: int, seed: int
) -> SamplingPlan:
    """s seeded uniform draws of N disjoint width-blocks from the pool."""
    if s < 1:
        raise ValueError("need at least one repetition")
    block_qubits = n_subsystems * width
    if len(pool) < block_qubits:
        raise ValueError(
            f"pool of {len(pool)} qubits cannot host {n_subsystems} x {width} blocks"
        )
    rng = np.random.default_rng(seed)
    entries = []
    for sample_index in range(s):
        chosen = rng.choice(len(pool), size=block_qubits, replace=False)
        qubits = [pool[int(i)] for i in chosen]
        entries.append(
            PlanEntry(
                set_index=0,
                sample_index=sample_index,
                blocks=_chunk_blocks(qubits, n_subsystems, width),
            )
        )
    return SamplingPlan(tuple(entries), n_samples_per_set=s, n_sets=1)


def synthetic_calibration(
    n_qubits: int = 156,
    seed: int = 0,
    readout_median: float = 1e-2,
    single_qubit_median: float = 3e-4,
    two_qubit_median: float = 3e-3,
    spread: float = 0.75,
) -> DeviceModel:
    """Heterogeneous per-qubit calibration, log-normally spread around medians.

    Defaults echo contemporary superconducting magnitudes. All-to-all
    coupling is assumed, so every unordered pair gets a two-qubit error.
    Rates are clipped to 0.5 to stay physically sensible.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    rng = np.random.default_rng(seed)

    def draw(median: float, size: int) -> np.ndarray:
        return np.minimum(rng.lognormal(math.log(median), spread, size), 0.5)

    p10 = draw(readout_median, n_qubits)
    p01 = draw(readout_median, n_qubits)
    p1q = draw(single_qubit_median, n_qubits)
    qubits = tuple(
        QubitCalibration(
            readout_p10=float(p10[q]),
            readout_p01=float(p01[q]),
            single_qubit_error=float(p1q[q]),
        )
        for q in range(n_qubits)
    )
    pairs = [(a, b) for a in range(n_qubits) for b in range(a + 1, n_qubits)]
    p2q = draw(two_qubit_median, len(pairs))
    two_qubit_error = {pair: float(p) for pair, p in zip(pairs, p2q)}
    return DeviceModel(qubits, two_qubit_error)
