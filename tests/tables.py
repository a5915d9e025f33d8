"""Counts tables for tests: built from ``{bitstring: count}``, read densely
or block by block."""

import numpy as np

from sizecon.simulator import CountsTable
from sizecon.tomography import MeasurementPlan, block_histogram


def counts_table(shots: int, counts: dict[str, int], measured_basis: str = "") -> CountsTable:
    """The table of a ``{bitstring: count}`` histogram; bitstrings read qubit 0 first."""
    (width,) = {len(b) for b in counts}
    codes = sorted((int(b, 2), c) for b, c in counts.items())
    return CountsTable(
        shots,
        width,
        np.array([code for code, _ in codes], dtype=np.int64),
        np.array([c for _, c in codes], dtype=np.int64),
        measured_basis,
    )


def histogram(table: CountsTable) -> np.ndarray:
    """Count of every basis state ``0 .. 2**width - 1``, zero where none was read."""
    full = np.zeros(2**table.width, dtype=np.int64)
    full[table.codes] = table.counts
    return full


def block_histograms(plan: MeasurementPlan, tables: list[CountsTable]) -> list[np.ndarray]:
    """One per-block histogram per table, as tomography reads a plan's groups."""
    return [block_histogram(t, plan.representation, plan.n_subsystems) for t in tables]
