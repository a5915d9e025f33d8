"""Shot-based statevector simulation with stochastic gate noise and readout error.

Noise model: after every circuit gate, with the mapped physical qubit's (or
pair's) depolarizing probability, a uniformly random non-identity Pauli is
inserted on the gate's support; the measurement-basis rotations are then
applied, one bitstring is sampled from the squared amplitudes, and each bit
is finally flipped independently per the physical qubit's readout confusion
probabilities.

Segments: no gate of the circuit or of the basis change crosses the cuts
between contiguous qubit segments (one H2 block each in the benchmark; a
connected circuit is one segment), so the pre-readout distribution is a
product over segments. Each segment is evolved alone, on 2^(segment width)
amplitudes, for each distinct noise pattern on its own gates. The outcome
is drawn by the chain rule: walking the segments from qubit 0, each inverts
its own cumulative distribution at the measurement draw, which is then
rescaled into the chosen interval. In exact arithmetic this is the inverse-CDF
draw over the whole register.

Reproducibility: all randomness for a call comes from a Philox
counter-based generator keyed by the seed. Shot ``i`` consumes row ``i`` of
a ``(shots, budget)`` uniform block whose columns are, in order: one
(event, pauli-choice) pair per noisy gate in circuit order, one measurement
draw, then one readout draw per qubit. The layout does not depend on the
segments. Shots are therefore independent of execution order and the same
seed reproduces counts bit-exactly.

Statevector indexing: qubit 0 is the most significant bit of the basis
index, matching the left-to-right bitstring convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .stateprep import Circuit, Gate

_SHOT_CHUNK = 1 << 16

_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI_1Q = (_X, _Y, _Z)


@dataclass(frozen=True)
class QubitCalibration:
    """Per-qubit error rates: readout confusion and one-qubit depolarizing."""

    readout_p10: float = 0.0        # P(read 1 | prepared 0)
    readout_p01: float = 0.0        # P(read 0 | prepared 1)
    single_qubit_error: float = 0.0

    def __post_init__(self) -> None:
        for name in ("readout_p10", "readout_p01", "single_qubit_error"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")


@dataclass(frozen=True)
class DeviceModel:
    """Calibrated device: per-qubit rates plus per-pair two-qubit rates."""

    qubits: tuple[QubitCalibration, ...]
    two_qubit_error: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(self.qubits))
        normalized = {}
        for (a, b), p in self.two_qubit_error.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"pair error {p} outside [0, 1]")
            if a == b or min(a, b) < 0 or max(a, b) >= len(self.qubits):
                raise ValueError(f"bad qubit pair ({a}, {b})")
            normalized[(min(a, b), max(a, b))] = float(p)
        object.__setattr__(self, "two_qubit_error", normalized)

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def pair_error(self, a: int, b: int) -> float:
        return self.two_qubit_error.get((min(a, b), max(a, b)), 0.0)

    @classmethod
    def noiseless(cls, n_qubits: int) -> "DeviceModel":
        return cls(tuple(QubitCalibration() for _ in range(n_qubits)))

    def to_json(self) -> str:
        payload = {
            "qubits": [
                {
                    "readout_p10": q.readout_p10,
                    "readout_p01": q.readout_p01,
                    "single_qubit_error": q.single_qubit_error,
                }
                for q in self.qubits
            ],
            "two_qubit_error": [
                {"pair": list(pair), "error": p}
                for pair, p in sorted(self.two_qubit_error.items())
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "DeviceModel":
        """Parse ``to_json`` output; a missing or mistyped key raises a
        ``ValueError`` that names it."""
        payload = json.loads(text)
        keys = ("readout_p10", "readout_p01", "single_qubit_error")
        qubits = tuple(
            QubitCalibration(**{k: _json_field(e, k, (int, float), f"qubits[{i}].") for k in keys})
            for i, e in enumerate(_json_field(payload, "qubits", list))
        )
        pairs = {}
        for j, entry in enumerate(_json_field(payload, "two_qubit_error", list, default=[])):
            where = f"two_qubit_error[{j}]."
            pair = _json_field(entry, "pair", list, where)
            if len(pair) != 2 or any(type(t) is not int for t in pair):
                raise ValueError(f"calibration: {where}pair is not two ints: {pair}")
            pairs[(pair[0], pair[1])] = float(_json_field(entry, "error", (int, float), where))
        return cls(qubits, pairs)


def _json_field(entry: object, key: str, kind: type | tuple, where: str = "", default=None):
    """``entry[key]`` of a calibration document, required to be a ``kind`` (not a bool)."""
    value = entry.get(key, default) if isinstance(entry, dict) else None
    if value is None:
        raise ValueError(f"calibration: {where}{key} is missing")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"calibration: {where}{key} has the wrong type {type(value).__name__}")
    return value


@dataclass
class CountsTable:
    """Measured bitstring histogram for one measurement group."""

    shots: int
    counts: dict[str, int]
    measured_basis: str = ""

    def __post_init__(self) -> None:
        total = sum(self.counts.values())
        if total != self.shots:
            raise ValueError(f"counts sum {total} != shots {self.shots}")
        widths = {len(b) for b in self.counts}
        if len(widths) > 1:
            raise ValueError(f"mixed bitstring widths {sorted(widths)}")

    @property
    def width(self) -> int:
        return len(next(iter(self.counts)))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(basis-state codes, counts) with qubit 0 as the most significant bit."""
        codes = np.fromiter((int(b, 2) for b in self.counts), dtype=np.int64)
        values = np.fromiter(self.counts.values(), dtype=np.int64)
        return codes, values

    def to_csv(self) -> str:
        lines = ["bitstring,count"]
        lines += [f"{b},{c}" for b, c in sorted(self.counts.items())]
        return "\n".join(lines) + "\n"


def _rotation_matrix(kind: str, angle: float) -> np.ndarray:
    half = angle / 2.0
    if kind == "RY":
        return np.array(
            [[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]],
            dtype=complex,
        )
    if kind == "RZ":
        return np.array(
            [[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]], dtype=complex
        )
    raise ValueError(f"not a rotation kind: {kind}")


def _apply_1q(state: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    psi = np.moveaxis(state.reshape([2] * n), q, 0)
    out = np.empty_like(psi)
    out[0] = mat[0, 0] * psi[0] + mat[0, 1] * psi[1]
    out[1] = mat[1, 0] * psi[0] + mat[1, 1] * psi[1]
    return np.moveaxis(out, 0, q).reshape(-1)


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate to a statevector, returning a new array."""
    dim = state.shape[0]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"state length {dim} is not a power of two")
    if any(t >= n for t in gate.targets):
        raise ValueError(f"gate targets {gate.targets} exceed register width {n}")
    if gate.kind == "X":
        return _apply_1q(state, _X, gate.targets[0], n)
    if gate.kind in ("RY", "RZ"):
        return _apply_1q(state, _rotation_matrix(gate.kind, gate.angle), gate.targets[0], n)
    psi = state.reshape([2] * n).copy()
    a, b = gate.targets
    if gate.kind == "CZ":
        idx: list = [slice(None)] * n
        idx[a], idx[b] = 1, 1
        psi[tuple(idx)] *= -1
        return psi.reshape(-1)
    if gate.kind == "CNOT":
        i0: list = [slice(None)] * n
        i1: list = [slice(None)] * n
        i0[a], i0[b] = 1, 0
        i1[a], i1[b] = 1, 1
        low, high = psi[tuple(i0)].copy(), psi[tuple(i1)].copy()
        psi[tuple(i0)], psi[tuple(i1)] = high, low
        return psi.reshape(-1)
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def statevector(circuit: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Noiseless statevector after the circuit, starting from |0...0>."""
    if initial is None:
        state = np.zeros(2**circuit.width, dtype=complex)
        state[0] = 1.0
    else:
        state = np.asarray(initial, dtype=complex).copy()
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state


class TrajectoryEngine:
    """Reusable shot sampler for one (circuit, basis change) pair.

    Noise-event patterns are grouped so each distinct trajectory is evolved
    once; the per-pattern probability tables are cached across calls (they
    do not depend on the device, only on which insertions fired).
    """

    def __init__(self, circuit: Circuit, basis_change: Circuit | None = None):
        if basis_change is not None and basis_change.width != circuit.width:
            raise ValueError(
                f"basis change width {basis_change.width} != circuit width {circuit.width}"
            )
        self.circuit = circuit
        self.basis_change = basis_change
        gates = circuit.gates + (basis_change.gates if basis_change is not None else ())
        # Qubits q-1 and q share a segment when some gate touches both sides.
        joined = {q for g in gates for q in range(min(g.targets) + 1, max(g.targets) + 1)}
        starts = [q for q in range(circuit.width) if q not in joined]
        # Per segment: width, indices into circuit + basis-change gates, and
        # those gates relabelled onto the segment's own qubits.
        self._segments: list[tuple[int, list[int], list[Gate]]] = []
        for lo, hi in zip(starts, starts[1:] + [circuit.width]):
            inside = [gi for gi, g in enumerate(gates) if lo <= g.targets[0] < hi]
            local = [gates[gi] for gi in inside]
            local = [replace(g, targets=[t - lo for t in g.targets]) for g in local]
            self._segments.append((hi - lo, inside, local))
        self._cache: dict[tuple[int, bytes], np.ndarray] = {}
        widest = max(width for width, *_ in self._segments)
        self._cache_cap = max(8, (1 << 22) >> widest)

    def _distribution(self, segment: int, insertions: np.ndarray) -> np.ndarray:
        """Cumulative distribution, with a leading 0, of one segment's outcomes
        under one insertion pattern (one code per segment gate)."""
        key = (segment, insertions.tobytes())
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        n, _, gates = self._segments[segment]
        state = np.zeros(2**n, dtype=complex)
        state[0] = 1.0
        for gate, code in zip(gates, insertions):
            state = apply_gate(state, gate)
            # code: 1 = X, 2 = Y, 3 = Z; a pair code is 4 * first + second
            letters = divmod(int(code), 4) if len(gate.targets) == 2 else (int(code),)
            for letter, q in zip(letters, gate.targets):
                if letter:
                    state = _apply_1q(state, _PAULI_1Q[letter - 1], q, n)
        probs = np.abs(state) ** 2
        cum = np.concatenate(([0.0], np.cumsum(probs / probs.sum())))
        if len(self._cache) < self._cache_cap:
            self._cache[key] = cum
        return cum

    def sample(
        self,
        device: DeviceModel,
        physical_map: Sequence[int],
        shots: int,
        seed: int,
        basis_label: str = "",
    ) -> CountsTable:
        circuit = self.circuit
        w = circuit.width
        if len(physical_map) != w:
            raise ValueError(
                f"physical map length {len(physical_map)} != circuit width {w}"
            )
        for p in physical_map:
            if not 0 <= p < device.n_qubits:
                raise ValueError(f"physical qubit {p} absent from device")
        if shots < 1:
            raise ValueError("shots must be >= 1")

        # gate index -> (event column, probability, option count), circuit order
        noisy: dict[int, tuple[int, float, int]] = {}
        for gi, gate in enumerate(circuit.gates):
            if len(gate.targets) == 1:
                p = device.qubits[physical_map[gate.targets[0]]].single_qubit_error
                options = 3
            else:
                p = device.pair_error(*(physical_map[t] for t in gate.targets))
                options = 15
            if p > 0.0:
                noisy[gi] = (2 * len(noisy), p, options)
        n_noisy = len(noisy)
        budget = 2 * n_noisy + 1 + w
        p10 = np.array([device.qubits[physical_map[i]].readout_p10 for i in range(w)])
        p01 = np.array([device.qubits[physical_map[i]].readout_p01 for i in range(w)])
        shifts = np.arange(w - 1, -1, -1, dtype=np.int64)

        rng = np.random.Generator(np.random.Philox(key=seed))
        histogram = np.zeros(2**w, dtype=np.int64)
        remaining = shots
        while remaining:
            chunk = min(remaining, _SHOT_CHUNK)
            remaining -= chunk
            u = rng.random((chunk, budget))

            # Chain rule, qubit 0 first: each segment inverts its own CDF at
            # u_meas, then u_meas is rescaled into the chosen interval. For a
            # product distribution this is the full-register inverse CDF.
            u_meas = u[:, 2 * n_noisy].copy()
            codes = np.zeros(chunk, dtype=np.int64)
            for s, (n, inside, _) in enumerate(self._segments):
                # one column even for a gate-free segment, so every row has a key
                patterns = np.zeros((chunk, max(len(inside), 1)), dtype=np.int8)
                for j, gi in enumerate(inside):
                    if gi in noisy:
                        col, p, options = noisy[gi]
                        fired = u[:, col] < p
                        patterns[fired, j] = (u[fired, col + 1] * options).astype(np.int8) + 1
                keys = patterns.view(np.dtype((np.void, patterns.shape[1])))[:, 0]
                _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
                for ui, row in enumerate(first):
                    rows = inverse == ui
                    cum = self._distribution(s, patterns[row])
                    x = np.minimum(np.searchsorted(cum, u_meas[rows], side="right") - 1, 2**n - 1)
                    lower = cum[x]
                    span = cum[x + 1] - lower
                    # a zero-width interval only arises past the table's end
                    # (round-off); later segments then take their last outcome
                    u_meas[rows] = np.divide(
                        u_meas[rows] - lower, span, out=np.ones_like(lower), where=span > 0
                    )
                    codes[rows] = (codes[rows] << n) | x

            bits = (codes[:, None] >> shifts[None, :]) & 1
            u_read = u[:, 2 * n_noisy + 1 :]
            flip_prob = np.where(bits == 0, p10[None, :], p01[None, :])
            bits ^= u_read < flip_prob
            measured = (bits << shifts[None, :]).sum(axis=1)
            histogram += np.bincount(measured, minlength=2**w)

        nonzero = np.flatnonzero(histogram)
        counts = {format(int(c), f"0{w}b"): int(histogram[c]) for c in nonzero}
        return CountsTable(shots=shots, counts=counts, measured_basis=basis_label)


def run_shots(
    circuit: Circuit,
    device: DeviceModel,
    physical_map: Sequence[int],
    basis_change: Circuit | None,
    shots: int,
    seed: int,
    basis_label: str = "",
) -> CountsTable:
    """Sample measurement outcomes of a circuit under the device's noise.

    One-off wrapper around :class:`TrajectoryEngine`; use the engine
    directly when sampling the same circuit for many qubit assignments.
    """
    engine = TrajectoryEngine(circuit, basis_change)
    return engine.sample(device, physical_map, shots, seed, basis_label)
