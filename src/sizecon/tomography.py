"""Constant-cost measurement plans and count post-processing.

A plan covers one subsystem block. ``build_plan(h_sub)`` groups the
subsystem Hamiltonian's strings by qubit-wise commutation, once per run;
each group's basis change is a circuit on the block's own ``width``
qubits. ``stateprep.compose(group.basis_change, n)`` lays it on every
block of the N-block register, as it lays the state-preparation circuit,
so the group count never depends on N, and every subsystem's energy is
read from the same shots.

Counts are read block by block: energies, shot-noise errors and
populations read ``(N, 2**width)`` arrays of shots per (block, block code),
or ``(items, N, 2**width)`` stacks of them, one row per work item, which
give ``(items, N)`` results equal to one call per item. These are the
arrays ``TrajectoryEngine.sample`` returns; nothing here knows the register
bit layout. Every histogram row sums to the shots, so the readers take the
shot count, and N, from the histogram itself. A group keeps its subsystem
strings, their coefficients and each string's parity sign on every block
code, so one product ``histogram @ signs / shots`` gives every string's
mean parity on every block; no string is embedded into the N-block
register.

Basis rotations (applied before Z measurement): X -> RY(-pi/2),
Y -> RZ(-pi/2) then RY(-pi/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import BLOCK_DETERMINANTS, excitation_level
from .pauli import PauliString, PauliSum, qubitwise_groups
from .stateprep import Circuit, Gate


@dataclass(frozen=True, eq=False)
class MeasurementGroup:
    strings: tuple[PauliString, ...]       # subsystem strings, lexicographic
    coefficients: tuple[float, ...]        # one per string (hartree)
    signs: np.ndarray          # (2**width, strings): each string's parity sign per block code
    basis: str                 # per-qubit axis on one subsystem block
    basis_change: Circuit      # one-qubit rotations on one block


@dataclass(frozen=True)
class MeasurementPlan:
    representation: int
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


def _basis_change_circuit(basis: str) -> Circuit:
    gates: list[Gate] = []
    for q, letter in enumerate(basis):
        if letter == "X":
            gates.append(Gate("RY", (q,), -math.pi / 2))
        elif letter == "Y":
            gates.append(Gate("RZ", (q,), -math.pi / 2))
            gates.append(Gate("RY", (q,), -math.pi / 2))
    return Circuit(len(basis), tuple(gates))


def _parity_signs(strings: list[PauliString], width: int) -> np.ndarray:
    """+1 or -1 for the parity of every block code (qubit 0 = MSB) on each
    string's support: a ``(2**width, strings)`` table."""
    bits = (np.arange(1 << width)[:, None] >> np.arange(width - 1, -1, -1)) & 1
    signs = [1.0 - 2.0 * (bits[:, list(s.support)].sum(axis=1) & 1) for s in strings]
    return np.array(signs).T


def build_plan(h_sub: PauliSum) -> MeasurementPlan:
    """Measurement plan covering every term of h_sub on one block.

    The subsystem's non-identity strings are grouped by qubit-wise
    commutation in lexicographic order; each group becomes one measurement
    whose basis rotations act on the block's own qubits, and which serves
    every block of an N-block register at once. The group count is
    therefore independent of N.
    """
    if h_sub.width not in BLOCK_DETERMINANTS:
        raise ValueError(f"unsupported subsystem width {h_sub.width}")
    groups = []
    for strings in qubitwise_groups(h_sub.sorted_strings()):
        basis = _group_basis(strings, h_sub.width)
        groups.append(
            MeasurementGroup(
                strings=tuple(strings),
                coefficients=tuple(h_sub.coefficient(s) for s in strings),
                signs=_parity_signs(strings, h_sub.width),
                basis=basis,
                basis_change=_basis_change_circuit(basis),
            )
        )
    return MeasurementPlan(
        representation=h_sub.width,
        constant=h_sub.constant,
        groups=tuple(groups),
    )


def _group_parities(plan: MeasurementPlan, histograms: list[np.ndarray]) -> tuple[list, np.ndarray]:
    """Per group, the mean parity of each string on each block, ``(...,
    N, strings)``; and the shots every group was measured with, ``(...)``,
    one per item of a leading items axis."""
    if len(histograms) != len(plan.groups):
        raise ValueError(f"expected {len(plan.groups)} histograms, got {len(histograms)}")
    codes = 1 << plan.representation
    shapes = [hist.shape for hist in histograms]
    if any(len(s) < 2 or s[-1] != codes or s != shapes[0] for s in shapes):
        raise ValueError(f"histogram shapes {shapes} differ or do not end in (N, {codes})")
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
    energies = np.full(group_parities[0].shape[:-1], plan.constant)
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
    variances = np.zeros(group_parities[0].shape[:-1])
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

    A code's class is the excitation level of the determinant it stands
    for in ``BLOCK_DETERMINANTS``: single-qubit blocks read 0 as the
    mean-field reference and 1 as the double excitation; two-qubit blocks
    read 00 reference, 01/10 singles, 11 double; four-qubit blocks classify
    the six half-filled patterns and call everything else number-violating.
    """
    n_codes = histogram.shape[-1]
    representation = {1 << w: w for w in BLOCK_DETERMINANTS}.get(n_codes)
    if representation is None:
        raise ValueError(f"unsupported representation: {n_codes} codes per block")
    shots = histogram[..., :1, :].sum(axis=-1)
    # excitation level -> population, in PopulationBreakdown's field order;
    # None is number-violating
    result = {level: np.zeros(histogram.shape[:-1]) for level in (0, 1, 2, None)}
    # ascending codes; an absent code adds an exact 0.0
    for code, determinant in enumerate(BLOCK_DETERMINANTS[representation]):
        result[excitation_level(determinant)] += histogram[..., code] / shots
    return PopulationBreakdown(*result.values())
