"""Constant-cost measurement plans and count post-processing.

A plan for N replicated subsystems measures the N-fold tensor product of
each qubit-wise commuting group of the subsystem Hamiltonian: the same
one-qubit basis rotations are replicated across every block, so the group
count never depends on N, and every subsystem's energy is read from the
same shots.

Counts are read block by block: energies, shot-noise errors and
populations read ``(N, 2**width)`` arrays of shots per (block, block code),
or ``(items, N, 2**width)`` stacks of them, one row per work item, which
give ``(items, N)`` results equal to one call per item. These are the
arrays ``TrajectoryEngine.sample`` returns; nothing here knows the register
bit layout. Every histogram row sums to the shots, so the readers take the
shot count from the histogram itself. A group keeps its subsystem strings,
their coefficients and each string's parity sign on every block code, so
one product ``histogram @ signs / shots`` gives every string's mean parity
on every block; no string is embedded into the N-block register.

Basis rotations (applied before Z measurement): X -> RY(-pi/2),
Y -> RZ(-pi/2) then RY(-pi/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, PauliSum, qubitwise_groups
from .stateprep import Circuit, Gate

SUPPORTED_WIDTHS = (1, 2, 4)

# Block-level code words per representation: code -> determinant class.
HF, SINGLE, DOUBLE, NUMBER_VIOLATING = "hf", "single", "double", "number_violating"
_CLASSIFICATION = {
    1: {0b0: HF, 0b1: DOUBLE},
    2: {0b00: HF, 0b01: SINGLE, 0b10: SINGLE, 0b11: DOUBLE},
    4: {
        0b1100: HF,
        0b0011: DOUBLE,
        0b1001: SINGLE,
        0b0110: SINGLE,
        0b1010: SINGLE,
        0b0101: SINGLE,
    },
}


@dataclass(frozen=True, eq=False)
class MeasurementGroup:
    strings: tuple[PauliString, ...]       # subsystem strings, lexicographic
    coefficients: tuple[float, ...]        # one per string (hartree)
    signs: np.ndarray          # (2**width, strings): each string's parity sign per block code
    basis: str                 # per-qubit axis on one subsystem block
    basis_change: Circuit      # one-qubit rotations on the full register


@dataclass(frozen=True)
class MeasurementPlan:
    representation: int
    n_subsystems: int
    constant: float            # subsystem identity coefficient (hartree)
    groups: tuple[MeasurementGroup, ...]

    @property
    def z_group_index(self) -> int:
        for i, g in enumerate(self.groups):
            if set(g.basis) == {"Z"}:
                return i
        raise LookupError("plan has no computational-basis group")


def _group_basis(strings: list[PauliString], width: int) -> str:
    letters = []
    for pos in range(width):
        letter = "Z"
        for s in strings:
            if s.letters[pos] != "I":
                letter = s.letters[pos]
                break
        letters.append(letter)
    return "".join(letters)


def _basis_change_circuit(basis: str, n_subsystems: int) -> Circuit:
    width = len(basis)
    gates: list[Gate] = []
    for block in range(n_subsystems):
        for pos, letter in enumerate(basis):
            q = block * width + pos
            if letter == "X":
                gates.append(Gate("RY", (q,), -math.pi / 2))
            elif letter == "Y":
                gates.append(Gate("RZ", (q,), -math.pi / 2))
                gates.append(Gate("RY", (q,), -math.pi / 2))
    return Circuit(width * n_subsystems, tuple(gates))


def _parity_signs(strings: list[PauliString], width: int) -> np.ndarray:
    """+1 or -1 for the parity of every block code (qubit 0 = MSB) on each
    string's support: a ``(2**width, strings)`` table."""
    bits = (np.arange(1 << width)[:, None] >> np.arange(width - 1, -1, -1)) & 1
    signs = [1.0 - 2.0 * (bits[:, list(s.support)].sum(axis=1) & 1) for s in strings]
    return np.array(signs).T


def build_plan(h_sub: PauliSum, n_subsystems: int) -> MeasurementPlan:
    """Measurement plan covering every term of h_sub on all N blocks.

    The subsystem's non-identity strings are grouped by qubit-wise
    commutation in lexicographic order; each group becomes one full-register
    measurement whose basis rotations repeat across blocks. Group count is
    therefore the subsystem group count, independent of N.
    """
    if h_sub.width not in SUPPORTED_WIDTHS:
        raise ValueError(f"unsupported subsystem width {h_sub.width}")
    if n_subsystems < 1:
        raise ValueError("need at least one subsystem")
    groups = []
    for strings in qubitwise_groups(h_sub.sorted_strings()):
        basis = _group_basis(strings, h_sub.width)
        groups.append(
            MeasurementGroup(
                strings=tuple(strings),
                coefficients=tuple(h_sub.coefficient(s) for s in strings),
                signs=_parity_signs(strings, h_sub.width),
                basis=basis,
                basis_change=_basis_change_circuit(basis, n_subsystems),
            )
        )
    return MeasurementPlan(
        representation=h_sub.width,
        n_subsystems=n_subsystems,
        constant=h_sub.constant,
        groups=tuple(groups),
    )


def _group_parities(plan: MeasurementPlan, histograms: list[np.ndarray]) -> tuple[list, np.ndarray]:
    """Per group, the mean parity of each string on each block, ``(...,
    N, strings)``; and the shots every group was measured with, ``(...)``,
    one per item of a leading items axis."""
    if len(histograms) != len(plan.groups):
        raise ValueError(f"expected {len(plan.groups)} histograms, got {len(histograms)}")
    shape = (plan.n_subsystems, 1 << plan.representation)
    shapes = [hist.shape for hist in histograms]
    if any(s[-2:] != shape or s != shapes[0] for s in shapes):
        raise ValueError(f"histogram shapes {shapes} differ or do not end in {shape}")
    shots = np.array([hist[..., 0, :].sum(axis=-1) for hist in histograms], dtype=np.int64)
    if np.any(shots != shots[0]):
        counts = sorted(set(shots.ravel().tolist()))
        raise ValueError(f"groups measured with unequal shot counts {counts}")
    per_item = shots[0][..., None, None]
    return [hist @ g.signs / per_item for g, hist in zip(plan.groups, histograms)], shots[0]


def estimate_energies(plan: MeasurementPlan, histograms: list[np.ndarray]) -> np.ndarray:
    """Per-subsystem energies (hartree) from one block histogram per group.

    Each histogram is ``(N, 2**width)``, or ``(items, N, 2**width)`` to
    read many work items at once; the result is ``(N,)`` or ``(items, N)``.
    Each subsystem's energy is its constant term plus the coefficient-
    weighted empirical parity of every string on its block; the total
    compound energy is exactly the sum of the returned entries.
    """
    group_parities, shots = _group_parities(plan, histograms)
    energies = np.full(shots.shape + (plan.n_subsystems,), plan.constant)
    for group, parities in zip(plan.groups, group_parities):
        for s, coefficient in enumerate(group.coefficients):
            energies += coefficient * parities[..., s]
    return energies


def shot_noise_stderr(plan: MeasurementPlan, histograms: list[np.ndarray]) -> np.ndarray:
    """Binomial-propagated standard error of each subsystem energy, shaped
    as :func:`estimate_energies` returns the energies.

    Treats strings within a group as uncorrelated, which is adequate for
    the zero-variance weight floor it backs.
    """
    group_parities, shots = _group_parities(plan, histograms)
    variances = np.zeros(shots.shape + (plan.n_subsystems,))
    for group, parities in zip(plan.groups, group_parities):
        for s, coefficient in enumerate(group.coefficients):
            parity = parities[..., s]
            # squared one Python float at a time, by libm pow: numpy's array
            # square (p * p) rounds apart from it for ~0.1% of values
            square = np.array([p**2 for p in parity.ravel().tolist()]).reshape(parity.shape)
            variances += coefficient**2 * np.maximum(0.0, 1.0 - square) / shots[..., None]
    return np.sqrt(variances)


@dataclass(frozen=True)
class PopulationBreakdown:
    """Per-subsystem determinant-class probabilities from Z-basis counts."""

    hf: np.ndarray
    single_excitation: np.ndarray
    double_excitation: np.ndarray
    number_violating: np.ndarray

    def __post_init__(self) -> None:
        total = self.hf + self.single_excitation + self.double_excitation + self.number_violating
        if np.abs(total - 1.0).max() > 1e-12:
            raise ValueError("per-subsystem populations do not sum to 1")


def extract_populations(histogram: np.ndarray) -> PopulationBreakdown:
    """Classify each subsystem block of every computational-basis shot,
    read from the Z group's ``(N, 2**width)`` block histogram, or from an
    ``(items, N, 2**width)`` stack of them; each class is then ``(N,)`` or
    ``(items, N)``.

    Single-qubit blocks read 0 as the mean-field reference and 1 as the
    double excitation; two-qubit blocks follow the reduction code words
    (00 reference, 01/10 singles, 11 double); four-qubit blocks classify
    the six half-filled patterns and call everything else number-violating.
    """
    n_codes = histogram.shape[-1]
    representation = {1 << w: w for w in SUPPORTED_WIDTHS}.get(n_codes)
    if representation is None:
        raise ValueError(f"unsupported representation: {n_codes} codes per block")
    shots = histogram[..., :1, :].sum(axis=-1)
    classes = _CLASSIFICATION[representation]
    kinds = (HF, SINGLE, DOUBLE, NUMBER_VIOLATING)
    result = {kind: np.zeros(histogram.shape[:-1]) for kind in kinds}
    # ascending codes; an absent code adds an exact 0.0
    for code in range(n_codes):
        result[classes.get(code, NUMBER_VIOLATING)] += histogram[..., code] / shots
    return PopulationBreakdown(
        hf=result[HF],
        single_excitation=result[SINGLE],
        double_excitation=result[DOUBLE],
        number_violating=result[NUMBER_VIOLATING],
    )
