"""Counts for tests, in the package's one format: dense int64 shots per code.

``block_histogram`` is the independent reference for the sampler's block
reduction: it bins each register code's block codes by bit shifts, where
``TrajectoryEngine.sample`` reshapes and sums.
"""

import numpy as np

from sizecon.tomography import MeasurementPlan


def joint_counts(counts: dict[str, int]) -> np.ndarray:
    """Shots per register code ``0 .. 2**width - 1`` of a ``{bitstring:
    count}`` histogram; bitstrings read qubit 0 first."""
    (width,) = {len(b) for b in counts}
    joint = np.zeros(2**width, dtype=np.int64)
    for bits, count in counts.items():
        joint[int(bits, 2)] = count
    return joint


def csv_text(joint: np.ndarray) -> str:
    """A ``bitstring,count`` row per code read at least once, ascending."""
    width = len(joint).bit_length() - 1
    codes = np.flatnonzero(joint).tolist()
    rows = zip(codes, joint[codes].tolist())
    return "bitstring,count\n" + "".join(f"{c:0{width}b},{n}\n" for c, n in rows)


def block_histogram(joint: np.ndarray, width: int, n_blocks: int) -> np.ndarray:
    """The shots per (block, block code) of a register's joint counts, as an
    ``(n_blocks, 2**width)`` array; block 0 is the most significant
    ``width`` bits of a register code. Entries are integer sums, exact in
    float64, and every row sums to the shots."""
    if len(joint) != 1 << width * n_blocks:
        raise ValueError(f"{len(joint)} codes != 2**({width}x{n_blocks})")
    codes = np.flatnonzero(joint)
    shifts = width * np.arange(n_blocks - 1, -1, -1)[:, None]
    offsets = np.arange(n_blocks)[:, None] << width
    index = ((codes >> shifts) & ((1 << width) - 1)) | offsets
    totals = np.bincount(index.ravel(), np.tile(joint[codes], n_blocks), n_blocks << width)
    return totals.reshape(n_blocks, -1)


def block_histograms(plan: MeasurementPlan, joints: list[np.ndarray]) -> list[np.ndarray]:
    """One per-block histogram per group's joint counts, as tomography reads a plan."""
    return [block_histogram(j, plan.representation, plan.n_subsystems) for j in joints]
