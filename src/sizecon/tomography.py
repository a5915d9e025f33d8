"""Constant-cost measurement plans and count post-processing.

A plan for N replicated subsystems measures the N-fold tensor product of
each qubit-wise commuting group of the subsystem Hamiltonian: the same
one-qubit basis rotations are replicated across every block, so the group
count never depends on N, and every subsystem's energy is read from the
same shots.

Basis rotations (applied before Z measurement): X -> RY(-pi/2),
Y -> RZ(-pi/2) then RY(-pi/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, PauliSum, embed_string, qubitwise_groups
from .simulator import CountsTable
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


@dataclass(frozen=True)
class GroupMember:
    """One embedded Pauli term: which subsystem and coefficient it feeds."""

    full_string: PauliString
    subsystem: int
    sub_string: PauliString
    coefficient: float
    parity_mask: int  # non-identity positions of full_string, qubit 0 = MSB


@dataclass(frozen=True)
class MeasurementGroup:
    subsystem_strings: tuple[PauliString, ...]
    basis: str                 # per-qubit axis on one subsystem block
    basis_change: Circuit      # one-qubit rotations on the full register
    members: tuple[GroupMember, ...]

    @property
    def is_z_basis(self) -> bool:
        return all(c in "IZ" for c in self.basis)


@dataclass(frozen=True)
class MeasurementPlan:
    representation: int
    n_subsystems: int
    constant: float            # subsystem identity coefficient (hartree)
    groups: tuple[MeasurementGroup, ...]

    @property
    def full_width(self) -> int:
        return self.representation * self.n_subsystems

    @property
    def z_group_index(self) -> int:
        for i, g in enumerate(self.groups):
            if g.is_z_basis:
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


def _string_mask(s: PauliString) -> int:
    mask = 0
    for c in s.letters:
        mask = (mask << 1) | (c != "I")
    return mask


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
    for group_strings in qubitwise_groups(h_sub.sorted_strings()):
        basis = _group_basis(group_strings, h_sub.width)
        members = []
        for block in range(n_subsystems):
            for s in group_strings:
                full = embed_string(s, block, n_subsystems)
                members.append(
                    GroupMember(
                        full_string=full,
                        subsystem=block,
                        sub_string=s,
                        coefficient=h_sub.coefficient(s),
                        parity_mask=_string_mask(full),
                    )
                )
        members = tuple(members)
        groups.append(
            MeasurementGroup(
                subsystem_strings=tuple(group_strings),
                basis=basis,
                basis_change=_basis_change_circuit(basis, n_subsystems),
                members=members,
            )
        )
    return MeasurementPlan(
        representation=h_sub.width,
        n_subsystems=n_subsystems,
        constant=h_sub.constant,
        groups=tuple(groups),
    )


def _check_counts(plan: MeasurementPlan, counts: list[CountsTable]) -> None:
    if len(counts) != len(plan.groups):
        raise ValueError(
            f"expected {len(plan.groups)} counts tables, got {len(counts)}"
        )
    shots = {t.shots for t in counts}
    if len(shots) != 1:
        raise ValueError(f"groups measured with unequal shot counts {sorted(shots)}")
    for t in counts:
        if t.width != plan.full_width:
            raise ValueError(
                f"counts width {t.width} != register width {plan.full_width}"
            )


def _mean_parities(table: CountsTable, group: MeasurementGroup) -> np.ndarray:
    """Mean parity of each member string of the group over the table's shots."""
    masks = np.array([m.parity_mask for m in group.members], dtype=np.int64)
    parity_bits = np.bitwise_count(table.codes[:, None] & masks[None, :]) & 1
    signs = 1.0 - 2.0 * parity_bits
    return (table.counts[:, None] * signs).sum(axis=0) / table.shots


def estimate_energies(plan: MeasurementPlan, counts: list[CountsTable]) -> np.ndarray:
    """Per-subsystem energies (hartree) from one counts table per group.

    Each subsystem's energy is its constant term plus the coefficient-
    weighted empirical parity of every embedded string; the total compound
    energy is exactly the sum of the returned entries.
    """
    _check_counts(plan, counts)
    energies = np.full(plan.n_subsystems, plan.constant)
    for group, table in zip(plan.groups, counts):
        parities = _mean_parities(table, group)
        for member, parity in zip(group.members, parities):
            energies[member.subsystem] += member.coefficient * parity
    return energies


def shot_noise_stderr(plan: MeasurementPlan, counts: list[CountsTable]) -> np.ndarray:
    """Binomial-propagated standard error of each subsystem energy.

    Treats strings within a group as uncorrelated, which is adequate for
    the zero-variance weight floor it backs.
    """
    _check_counts(plan, counts)
    variances = np.zeros(plan.n_subsystems)
    for group, table in zip(plan.groups, counts):
        parities = _mean_parities(table, group)
        for member, parity in zip(group.members, parities):
            variances[member.subsystem] += (
                member.coefficient**2 * max(0.0, 1.0 - parity**2) / table.shots
            )
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


def extract_populations(
    z_basis_counts: CountsTable, representation: int, n_subsystems: int
) -> PopulationBreakdown:
    """Classify each subsystem block of every computational-basis shot.

    Single-qubit blocks read 0 as the mean-field reference and 1 as the
    double excitation; two-qubit blocks follow the reduction code words
    (00 reference, 01/10 singles, 11 double); four-qubit blocks classify
    the six half-filled patterns and call everything else number-violating.
    """
    if representation not in SUPPORTED_WIDTHS:
        raise ValueError(f"unsupported representation {representation}")
    width = representation * n_subsystems
    if z_basis_counts.width != width:
        raise ValueError(
            f"counts width {z_basis_counts.width} != {representation}x{n_subsystems}"
        )
    shots = z_basis_counts.shots
    classes = _CLASSIFICATION[representation]
    block_mask = (1 << representation) - 1

    result = {
        kind: np.zeros(n_subsystems)
        for kind in (HF, SINGLE, DOUBLE, NUMBER_VIOLATING)
    }
    for block in range(n_subsystems):
        shift = (n_subsystems - 1 - block) * representation
        block_codes = (z_basis_counts.codes >> shift) & block_mask
        # integer totals per block code, exact in float64
        totals = np.bincount(block_codes, weights=z_basis_counts.counts)
        for code in np.flatnonzero(totals):
            kind = classes.get(int(code), NUMBER_VIOLATING)
            result[kind][block] += totals[code] / shots
    return PopulationBreakdown(
        hf=result[HF],
        single_excitation=result[SINGLE],
        double_excitation=result[DOUBLE],
        number_violating=result[NUMBER_VIOLATING],
    )
