"""Counts tables for tests: built from ``{bitstring: count}``, read densely."""

import numpy as np

from sizecon.simulator import CountsTable


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
