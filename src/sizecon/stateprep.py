"""Exact ground states and the shallow circuits that prepare them.

Each representation gets a fixed-shape template circuit: the single-qubit
form is one RY, the two-qubit form is RY + CNOT, and the four-qubit form is
an X layer writing the mean-field reference followed by one RY and three
CNOTs that rotate it into the two-determinant ground state. Template
synthesis is verified against the requested amplitudes before the circuit
is returned.

Statevector indexing convention: qubit 0 is the most significant bit, so
basis state ``|1100>`` is amplitude index ``0b1100``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import BLOCK_DETERMINANTS, excitation_level
from .pauli import PauliSum

ROTATION_KINDS = ("RY", "RZ")
GATE_ARITY = {"RY": 1, "RZ": 1, "X": 1, "CZ": 2, "CNOT": 2}

SYNTHESIS_FIDELITY = 1.0 - 1e-12
DEGENERACY_TOL = 1e-12


class DegenerateGroundStateError(RuntimeError):
    """Two lowest eigenvalues coincide within tolerance."""

    def __init__(self, e0: float, e1: float):
        super().__init__(
            f"ground level degenerate within {DEGENERACY_TOL:g}: {e0!r} vs {e1!r}"
        )
        self.eigenvalues = (e0, e1)


class SynthesisError(RuntimeError):
    """Synthesized circuit missed the fidelity contract."""


@dataclass(frozen=True)
class Gate:
    kind: str
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "targets", tuple(self.targets))
        if len(self.targets) != GATE_ARITY[self.kind]:
            raise ValueError(f"{self.kind} expects {GATE_ARITY[self.kind]} targets")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"{self.kind} targets must be distinct")
        if self.kind in ROTATION_KINDS:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} needs a finite angle")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")

    def inverse(self) -> "Gate":
        if self.kind in ROTATION_KINDS:
            return Gate(self.kind, self.targets, -self.angle)
        return self  # X, CZ, CNOT are involutions


@dataclass(frozen=True)
class Circuit:
    width: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.width < 1:
            raise ValueError("circuit width must be >= 1")
        for g in self.gates:
            if any(t < 0 or t >= self.width for t in g.targets):
                raise ValueError(f"gate {g.kind} targets {g.targets} exceed width {self.width}")

    @property
    def depth(self) -> int:
        """Layered depth: gates on disjoint qubits share a layer."""
        level = [0] * self.width
        for g in self.gates:
            layer = 1 + max(level[t] for t in g.targets)
            for t in g.targets:
                level[t] = layer
        return max(level, default=0)

    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if len(g.targets) == 2)

    def inverse(self) -> "Circuit":
        return Circuit(self.width, tuple(g.inverse() for g in reversed(self.gates)))

    def serialize(self) -> str:
        """Stable text form, one gate per line: "KIND targets [angle]"."""
        lines = []
        for g in self.gates:
            parts = [g.kind, *map(str, g.targets)]
            if g.angle is not None:
                parts.append(repr(g.angle))
            lines.append(" ".join(parts))
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class PreparedState:
    representation: int       # qubits per subsystem
    amplitudes: np.ndarray    # complex, length 2**representation
    energy: float             # hartree

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm!r} is not 1")


def fci_ground(h: PauliSum) -> PreparedState:
    """Lowest eigenpair of an H2 block Hamiltonian by dense diagonalization.

    Only the block widths of ``BLOCK_DETERMINANTS`` (1, 2 and 4) are taken;
    another width raises a ``ValueError`` that names it. The global phase is
    fixed so the mean-field-reference amplitude is real and non-negative.
    Raises on a ground level degenerate within 1e-12.
    """
    if h.width not in BLOCK_DETERMINANTS:
        raise ValueError(f"no H2 block has width {h.width}: "
                         f"the block widths are {sorted(BLOCK_DETERMINANTS)}")
    vals, vecs = np.linalg.eigh(h.to_matrix())
    if vals[1] - vals[0] < DEGENERACY_TOL:
        raise DegenerateGroundStateError(float(vals[0]), float(vals[1]))
    vec = vecs[:, 0].astype(complex)
    ref = vec[_code_at_level(h.width, 0)]
    if abs(ref) > 0:
        vec = vec * (ref.conjugate() / abs(ref))
    return PreparedState(representation=h.width, amplitudes=vec, energy=float(vals[0]))


def _code_at_level(width: int, level: int) -> int:
    """The block code whose determinant has this excitation level: 0 gives
    the mean-field reference, 2 the double excitation."""
    return [excitation_level(d) for d in BLOCK_DETERMINANTS[width]].index(level)


def _template(width: int, theta: float) -> Circuit:
    if width == 1:
        gates = [Gate("RY", (0,), theta)]
    elif width == 2:
        gates = [Gate("RY", (0,), theta), Gate("CNOT", (0, 1))]
    elif width == 4:
        gates = [
            Gate("X", (0,)),
            Gate("X", (1,)),
            Gate("RY", (2,), theta),
            Gate("CNOT", (2, 3)),
            Gate("CNOT", (2, 0)),
            Gate("CNOT", (3, 1)),
        ]
    else:
        raise ValueError(f"no preparation template for width {width}")
    return Circuit(width, tuple(gates))


def synthesize(target: PreparedState) -> Circuit:
    """Shallow circuit taking |0...0> to the target ground state.

    Depth is fixed per representation: one RY (1 qubit), RY + one CNOT
    (2 qubits), X layer + RY + three CNOTs (4 qubits). Raises
    :class:`SynthesisError` if the template cannot reach the requested
    amplitudes, e.g. for a state outside the two-determinant manifold.
    """
    width = target.representation
    if width not in BLOCK_DETERMINANTS:
        raise ValueError(f"unsupported representation width {width}")
    amps = target.amplitudes
    c_hf = amps[_code_at_level(width, 0)]
    c_double = amps[_code_at_level(width, 2)]
    if max(abs(c_hf.imag), abs(c_double.imag)) > 1e-9:
        raise SynthesisError("target amplitudes are not real after phase fixing")
    theta = 2.0 * math.atan2(c_double.real, c_hf.real)
    if abs(theta) < 1e-14:
        theta = 0.0
    circuit = _template(width, theta)

    from .simulator import statevector  # local import; simulator builds on this module

    prepared = statevector(circuit)
    fidelity = abs(np.vdot(amps, prepared)) ** 2
    if fidelity < SYNTHESIS_FIDELITY:
        raise SynthesisError(
            f"template fidelity {fidelity!r} below contract {SYNTHESIS_FIDELITY!r}"
        )
    return circuit


def compose(sub: Circuit, n_subsystems: int) -> Circuit:
    """Replicate a subsystem circuit on N blocks side by side: copy ``b``
    acts on qubits ``b * sub.width`` to ``(b + 1) * sub.width - 1`` of an
    ``n_subsystems * sub.width``-qubit register, block by block, each copy
    in the subsystem's gate order. No gate crosses blocks, so the composite
    depth equals the subsystem depth.
    """
    if n_subsystems < 1:
        raise ValueError(f"need at least one subsystem, got {n_subsystems}")
    width = sub.width
    gates = [
        Gate(g.kind, tuple(b * width + t for t in g.targets), g.angle)
        for b in range(n_subsystems)
        for g in sub.gates
    ]
    return Circuit(n_subsystems * width, tuple(gates))
