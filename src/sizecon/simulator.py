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
draw over the whole register. A one-qubit segment's inversion is one
comparison with its middle bound, a wider one's a binary search of its inner
bounds; the last segment's draw, which nothing reads, is not rescaled. The
noise-event and readout comparisons are held as (item, column, shot), so
numpy's inner loop runs along the shots. None of this changes a sampled bit.

Quiet and fired shots: at device rates about 98% of shots fire no event on a
given segment. Every shot is first drawn through the segment's noiseless
distribution in one pass; the shots that fired an event are then redrawn
from their saved measurement draw, grouped by insertion pattern with one
stable argsort. Each shot meets the same distribution and the same
arithmetic as if it were drawn alone. The distributions live in one
module-level memo keyed by the serialized text of the segment's relabelled
gates and the pattern bytes, not by segment index, so identical H2 blocks
share entries across segments, engines and system sizes. The memo holds at
most a fixed byte budget (32 MiB) and drops its least recently used entries
first. A pass hands the memo a segment's distinct patterns at once, in
stacks of at most ``_DRAW_ELEMENTS`` amplitudes (every pattern of a 4-qubit
block, 8 of a connected 16-qubit segment), and the memo evolves the ones it
lacks together: each gate acts on the whole stack and each inserted Pauli
on the rows that picked it, so every row meets the arithmetic of a lone
statevector.

Reproducibility: all randomness for a work item (a physical map and its
seed) comes from a Philox counter-based generator keyed by the seed; one
generator per call is re-keyed to each item's seed, which is the state
``Philox(key=seed)`` starts in. Shot ``i`` consumes row ``i`` of a
``(shots, budget)`` uniform block whose columns are, in order: one (event,
pauli-choice) pair per noisy gate in circuit order, one measurement draw,
then one readout draw per qubit. The layout does not depend on the
segments. Shots are therefore independent of execution order and the same
seed reproduces counts bit-exactly. The block is drawn at most
``_DRAW_ELEMENTS`` uniforms at a time, in row order from the item's stream,
and of each draw a pass keeps only what it reads: the measurement draw, the
Pauli each fired gate picks and the two readout comparisons.

Work items: one call takes every item of one circuit, such as all qubit
assignments of one (N, group). Items with the same noisy gates share one
column layout, and whole items are packed, each into its own rows of one
pass, so the segment loop above runs once per pass rather than once per
item; items whose layouts differ never share a pass. Each item still fills
its rows from its own Philox block, every row meets the same distribution
and arithmetic, and its counts are its own, so they are the same whether
its item was sampled alone or packed.

Outputs: counts have one format, dense int64 shots per code.
``TrajectoryEngine.sample`` bins each pass's measured codes into shots per
(item, block, block code), the array the pipeline reads. A circuit read as
a whole register is the one-block case, ``block_width = width``, which is
what ``run_shots`` returns for one item.

Device: the rates come from a ``sizecon.device.DeviceModel``.
``TrajectoryEngine.sample`` reads every item's gate and readout rates from
its arrays by fancy indexing, and each gate's pair rate through
``DeviceModel.pair_error``; nothing here reads or writes a calibration.

Statevector indexing: qubit 0 is the most significant bit of the basis
index, matching the left-to-right bitstring convention.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .device import DeviceModel
from .stateprep import Circuit, Gate

_SHOT_CHUNK = 1 << 16
# Whole work items share a pass while their shots plus their dense
# histogram bins fit in this many rows, which keeps a pass's arrays near one
# item's size; a larger item runs alone, in _SHOT_CHUNK chunks.
_PACK_ROWS = 1 << 13
# Uniforms (rows x columns) drawn at once, 4 MiB of float64: a pass keeps
# only a few bytes per row of them, so this bounds its uniform block whatever
# the shot count or the number of noisy gates.
_DRAW_ELEMENTS = 1 << 19

_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI_1Q = (_X, _Y, _Z)


def _rotation_matrix(kind: str, angle: float) -> np.ndarray:
    half = angle / 2.0
    if kind == "RY":
        c, s = math.cos(half), math.sin(half)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.array([[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]], dtype=complex)
    raise ValueError(f"not a rotation kind: {kind}")


def _apply_1q(state: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    """``mat`` on qubit ``q`` of a statevector, or of each row of a stack of
    them along the last axis."""
    if state.shape[-1] == 2:
        # numpy scalars, row by row: their complex product can round apart
        # from the vectorised array loop's (fused multiply-adds), so keep them
        rows = [
            (mat[0, 0] * a + mat[0, 1] * b, mat[1, 0] * a + mat[1, 1] * b)
            for a, b in state.reshape(-1, 2)
        ]
        return np.array(rows).reshape(state.shape)
    # axes: the rows, the qubits before q, qubit q, the qubits after it
    psi = state.reshape(-1, 1 << q, 2, state.shape[-1] >> (q + 1))
    out = np.empty_like(psi)
    out[:, :, 0] = mat[0, 0] * psi[:, :, 0] + mat[0, 1] * psi[:, :, 1]
    out[:, :, 1] = mat[1, 0] * psi[:, :, 0] + mat[1, 1] * psi[:, :, 1]
    return out.reshape(state.shape)


def apply_gate(state: np.ndarray, gate: Gate) -> np.ndarray:
    """Apply one gate to a statevector, or to each row of a stack of them
    along the last axis, returning a new array."""
    dim = state.shape[-1]
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"state length {dim} is not a power of two")
    if any(t >= n for t in gate.targets):
        raise ValueError(f"gate targets {gate.targets} exceed register width {n}")
    if gate.kind == "X":
        return _apply_1q(state, _X, gate.targets[0])
    if gate.kind in ("RY", "RZ"):
        return _apply_1q(state, _rotation_matrix(gate.kind, gate.angle), gate.targets[0])
    # axis 0 holds the rows, axis 1 + t qubit t
    psi = state.reshape([-1] + [2] * n).copy()
    a, b = gate.targets
    idx: list = [slice(None)] * (n + 1)
    idx[1 + a] = 1  # the half with the control (first target) set
    if gate.kind == "CZ":
        idx[1 + b] = 1
        psi[tuple(idx)] *= -1
    elif gate.kind == "CNOT":
        # swap the target's 0 and 1 amplitudes; axis 1 + a is gone from the half
        psi[tuple(idx)] = np.flip(psi[tuple(idx)], axis=1 + b - (b > a))
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    return psi.reshape(state.shape)


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


def _distributions(gates: tuple[Gate, ...], patterns: Sequence[bytes]) -> list[np.ndarray]:
    """Cumulative distribution, with a leading 0, of a segment's outcomes
    under each insertion pattern (one code byte per segment gate). The
    segment's width ``n`` is one past its highest gate target.

    The patterns are evolved together, as one ``(P, 2**n)`` stack: each
    gate acts on the whole stack, and each inserted Pauli on the rows that
    picked it. Every row meets the arithmetic a lone statevector meets
    under ``apply_gate``."""
    n = 1 + max((t for g in gates for t in g.targets), default=0)
    codes = np.frombuffer(b"".join(patterns), dtype=np.uint8).reshape(len(patterns), len(gates))
    states = np.zeros((len(patterns), 2**n), dtype=complex)
    states[:, 0] = 1.0
    for gate, code in zip(gates, codes.T):
        states = apply_gate(states, gate)
        # code: 1 = X, 2 = Y, 3 = Z; a pair code is 4 * first + second
        letters = divmod(code, 4) if len(gate.targets) == 2 else (code,)
        for letter, q in zip(letters, gate.targets):
            for value in set(letter.tolist()) - {0}:
                rows = np.flatnonzero(letter == value)
                states[rows] = _apply_1q(states[rows], _PAULI_1Q[value - 1], q)
    probs = np.abs(states) ** 2
    cum = np.zeros((len(patterns), 2**n + 1))
    np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1, out=cum[:, 1:])
    return [row.copy() for row in cum]  # each memo entry owns its bytes


# Byte budget of the distribution memo: a 4-qubit entry is 136 B, a
# connected 16-qubit one 512 KiB.
_MEMO_BYTES = 1 << 25


class _DistributionMemo:
    """``_distributions`` results keyed by (segment text, insertion
    pattern), the text being the segment gates' ``Circuit.serialize()``:
    exact (angles are written with ``repr``), and a string caches its hash,
    which a tuple of gates does not. A value depends on its key alone, so
    one memo serves every segment, engine and system size. Past
    ``_MEMO_BYTES`` of distributions the least recently used go first."""

    def __init__(self):
        self.entries: dict[tuple[str, bytes], np.ndarray] = {}
        self.nbytes = 0

    def __call__(
        self, text: str, gates: tuple[Gate, ...], patterns: Sequence[bytes]
    ) -> list[np.ndarray]:
        """The distribution of each of a segment's distinct ``patterns``;
        the ones not held are evolved together, in one ``_distributions``
        call."""
        cums = [self.entries.get((text, pattern)) for pattern in patterns]
        missing = [pattern for pattern, cum in zip(patterns, cums) if cum is None]
        if missing:
            evolved = iter(_distributions(gates, missing))
            cums = [next(evolved) if cum is None else cum for cum in cums]
        for pattern, cum in zip(patterns, cums):
            if self.entries.pop((text, pattern), None) is None:
                self.nbytes += cum.nbytes
            self.entries[text, pattern] = cum  # most recently used last
            while self.nbytes > _MEMO_BYTES:
                self.nbytes -= self.entries.pop(next(iter(self.entries))).nbytes
        return cums


_MEMO = _DistributionMemo()


_PHILOX_EMPTY = np.zeros(4, dtype=np.uint64)


def _rekey(bit_generator: np.random.Philox, seed: int) -> None:
    """Set a Philox generator to the state ``Philox(key=seed)`` starts in."""
    key = np.array([seed & (2**64 - 1), seed >> 64], dtype=np.uint64)
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _PHILOX_EMPTY, "key": key},
        "buffer": _PHILOX_EMPTY,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _invert(cum: np.ndarray, u_meas: np.ndarray, codes: np.ndarray, n: int, rescale=True) -> tuple:
    """One chain-rule step: each shot's outcome under ``cum`` at its draw,
    appended to its code, and the draw rescaled into the chosen interval;
    with ``rescale`` false (the last segment, whose draw nothing reads) the
    draw is returned as given. The outcome is the last one whose lower
    bound is at most the draw, so a draw at or past ``cum[-1]`` (below 1 by
    round-off) takes the last outcome."""
    if n == 1:  # one comparison, not a binary search
        x = (u_meas >= cum[1]).astype(np.intp)
    else:
        x = np.searchsorted(cum[1:-1], u_meas, side="right")
    codes = (codes << n) | x
    if not rescale:
        return u_meas, codes
    lower, width = cum[x], np.diff(cum)[x]
    # a zero-width interval is only chosen past the table's end; later
    # segments then take their last outcome
    return np.divide(u_meas - lower, width, out=np.ones_like(lower), where=width > 0), codes


class TrajectoryEngine:
    """Reusable shot sampler for one (circuit, basis change) pair, over
    any number of work items at once.

    Items with the same noisy gates share packed passes, each item in its
    own rows drawn from its own Philox block. Per segment, every shot is
    drawn through the noiseless distribution in one pass; the shots that
    fired a noise event on the segment's gates (about 2% at device rates)
    are then redrawn from their saved measurement draw, one group per
    distinct insertion pattern. The distributions come from a module-level
    memo keyed by the text of the segment's relabelled gates and the
    pattern, so identical blocks share them across segments, engines and
    system sizes. They do not depend on the device, only on which
    insertions fired.
    """

    def __init__(self, circuit: Circuit, basis_change: Circuit | None = None):
        if basis_change is not None and basis_change.width != circuit.width:
            raise ValueError(
                f"basis change width {basis_change.width} != circuit width {circuit.width}"
            )
        self.circuit = circuit
        gates = circuit.gates + (basis_change.gates if basis_change is not None else ())
        # Qubits q-1 and q share a segment when some gate touches both sides.
        joined = {q for g in gates for q in range(min(g.targets) + 1, max(g.targets) + 1)}
        starts = [q for q in range(circuit.width) if q not in joined]
        # Per segment: width, indices into circuit + basis-change gates,
        # those gates relabelled onto the segment's own qubits, and their
        # serialized text as the memo key.
        self._segments: list[tuple[int, list[int], tuple[Gate, ...], str]] = []
        for lo, hi in zip(starts, starts[1:] + [circuit.width]):
            inside = [gi for gi, g in enumerate(gates) if lo <= g.targets[0] < hi]
            local = [gates[gi] for gi in inside]
            local = tuple(replace(g, targets=[t - lo for t in g.targets]) for g in local)
            text = Circuit(hi - lo, local).serialize()
            self._segments.append((hi - lo, inside, local, text))

    def sample(
        self,
        device: DeviceModel,
        physical_maps: Sequence[Sequence[int]],
        shots: int,
        seeds: Sequence[int],
        block_width: int,
    ) -> np.ndarray:
        """Shots per (work item, block, block code): an int64 array of shape
        ``(items, width // block_width, 2**block_width)``, items in order.
        Block 0 is the most significant ``block_width`` bits of a register
        code, and every ``[item, block]`` row sums to ``shots``; with
        ``block_width = width`` the one block is the whole register. Each
        item (a physical map and its seed) draws its own Philox block, so its
        counts equal those a call with that item alone returns. A physical
        map that repeats a qubit, or a seed outside [0, 2**128) (the width of
        a Philox key), raises a ValueError that names the first one."""
        circuit = self.circuit
        w = circuit.width
        if block_width < 1 or w % block_width:
            raise ValueError(f"block width {block_width} does not divide circuit width {w}")
        if len(physical_maps) != len(seeds):
            raise ValueError(f"{len(physical_maps)} physical maps for {len(seeds)} seeds")
        for physical_map, seed in zip(physical_maps, seeds):
            if len(physical_map) != w:
                raise ValueError(f"physical map length {len(physical_map)} != circuit width {w}")
            if not 0 <= seed < 2**128:  # a Philox key is 128 bits
                raise ValueError(f"seed {seed} outside [0, 2**128)")
        maps = np.array(physical_maps, dtype=np.int64).reshape(len(seeds), w)
        repeats = (np.diff(np.sort(maps, axis=1), axis=1) == 0).any(axis=1)
        if repeats.any():
            raise ValueError(f"physical map {maps[np.argmax(repeats)].tolist()} repeats a qubit")
        absent = maps[(maps < 0) | (maps >= device.n_qubits)].tolist()
        if absent:
            raise ValueError(f"physical qubit {absent[0]} absent from device")
        if shots < 1:
            raise ValueError("shots must be >= 1")
        n_blocks = w // block_width
        counts = np.zeros((len(seeds), n_blocks, 1 << block_width), dtype=np.int64)

        # per item: each gate's depolarizing rate, read from its first and
        # last mapped qubit; (item, 2, qubit, 1) readout rates, p10 then p01
        first, last = (maps[:, [g.targets[end] for g in circuit.gates]] for end in (0, -1))
        single = np.array([len(g.targets) == 1 for g in circuit.gates], dtype=bool)
        rates = np.where(single, device.qubits[first, 2], device.pair_error(first, last))
        p_read = device.qubits[maps][:, :, :2].transpose(0, 2, 1)[..., None]
        # A gate of rate 0 takes no columns, so only items with the same
        # noisy gates share a pass.
        layouts: dict[bytes, list[int]] = {}
        for item, noisy in enumerate(rates > 0.0):
            layouts.setdefault(noisy.tobytes(), []).append(item)
        weights = 1 << np.arange(w - 1, -1, -1, dtype=np.int64)
        # one generator, re-keyed per item: Philox(key=seed) would also draw
        # OS entropy for a seed sequence it never uses
        rng = np.random.Generator(np.random.Philox())
        for items in layouts.values():
            noisy = np.flatnonzero(rates[items[0]] > 0.0)
            n_noisy = len(noisy)
            column = {gi: k for k, gi in enumerate(noisy.tolist())}  # gate -> event
            # a gate on t qubits picks one of 4**t - 1 Paulis when it fires
            options = np.array([4 ** len(circuit.gates[gi].targets) - 1 for gi in column])
            columns = 2 * n_noisy + 1 + w
            # whole items share a pass while their shots plus histogram
            # bins fit in _PACK_ROWS and all their uniforms in one draw
            per_pass = max(
                1, min(_PACK_ROWS // (shots + (1 << w)), _DRAW_ELEMENTS // (shots * columns))
            )
            for k in range(0, len(items), per_pass):
                batch = items[k : k + per_pass]
                m = len(batch)
                p_event = rates[np.ix_(batch, noisy)][:, :, None]
                dense = np.zeros((m, 1 << w), dtype=np.int64)
                draw = max(1, _DRAW_ELEMENTS // (m * columns))  # rows per item per draw
                for start in range(0, shots, _SHOT_CHUNK):
                    chunk = min(shots - start, _SHOT_CHUNK)
                    # Of the uniforms, keep what the rest reads: the
                    # measurement draw, the Pauli each fired gate picks (0
                    # where it did not fire) and both readout comparisons,
                    # shot-major so that numpy's inner loop runs along the shots.
                    u_meas = np.empty((m, chunk))
                    picks = np.zeros((n_noisy, m, chunk), dtype=np.int8)
                    below = np.empty((m, 2, w, chunk), dtype=bool)  # below p10, below p01
                    for lo in range(0, chunk, draw):
                        hi = min(chunk, lo + draw)
                        # item i's rows, u[i], come from its own stream; only
                        # a lone item takes more than one draw, and its
                        # stream runs on from one draw to the next
                        u = np.empty((m, hi - lo, columns))
                        for item, block in zip(batch, u):
                            if start + lo == 0:
                                _rekey(rng.bit_generator, seeds[item])
                            rng.random(out=block)
                        events = np.ascontiguousarray(u[:, :, 0 : 2 * n_noisy : 2].swapaxes(1, 2))
                        fired = np.flatnonzero(events < p_event)
                        i, e, row = np.unravel_index(fired, (m, n_noisy, hi - lo))
                        pick = (u[i, row, 2 * e + 1] * options[e]).astype(np.int8) + 1
                        picks[e, i, lo + row] = pick
                        u_meas[:, lo:hi] = u[:, :, 2 * n_noisy]
                        readout = np.ascontiguousarray(u[:, :, 2 * n_noisy + 1 :].swapaxes(1, 2))
                        np.less(readout[:, None], p_read[batch], out=below[..., lo:hi])
                    codes = self._codes(u_meas.ravel(), picks.reshape(n_noisy, m * chunk), column)

                    # a bit reads flipped at p01 where it is 1, at p10 where it is 0
                    ones = (codes.reshape(m, 1, chunk) & weights[:, None]) != 0
                    flips = (ones & below[:, 1]) | (~ones & below[:, 0])
                    measured = codes.reshape(m, chunk) ^ (weights @ flips)
                    bins = (measured + (np.arange(m)[:, None] << w)).ravel()  # item's own bins
                    dense += np.bincount(bins, minlength=m << w).reshape(m, -1)
                # block b's code is the middle axis of a register code split
                # into (the blocks before b, block b, the blocks after b)
                counts[batch] = np.stack([
                    dense.reshape(m, 1 << block_width * b, 1 << block_width, -1).sum((1, 3))
                    for b in range(n_blocks)
                ], axis=1)
        return counts

    def _codes(self, u_meas: np.ndarray, picks: np.ndarray, column: dict[int, int]) -> np.ndarray:
        """Pre-readout outcome codes of packed rows: ``u_meas`` holds each
        row's measurement draw, ``picks[k]`` the Pauli noisy gate ``k``
        inserted in each row (1-based, 0 where it did not fire), and
        ``column`` maps a gate index to its ``k``."""
        # Chain rule, qubit 0 first: each segment inverts its own CDF at
        # u_meas, then u_meas is rescaled into the chosen interval. For a
        # product distribution this is the full-register inverse CDF.
        codes = np.zeros(len(u_meas), dtype=np.int64)
        hot = np.flatnonzero(picks.any(axis=0))  # the rows where any gate fired
        for index, (n, inside, gates, text) in enumerate(self._segments):
            rescale = index < len(self._segments) - 1  # nothing reads the last one's draw
            events = [(j, column[gi]) for j, gi in enumerate(inside) if gi in column]
            fired = picks[np.ix_([k for _, k in events], hot)]  # (segment event, hot row)
            on = fired.any(axis=0)
            rows = hot[on]
            # The fired rows, grouped by insertion pattern through one
            # stable argsort; group None, the quiet pattern, is every row.
            groups, keys = [None], [bytes(len(gates))]
            if rows.size:
                patterns = np.zeros((rows.size, len(gates)), dtype=np.int8)
                patterns[:, [j for j, _ in events]] = fired[:, on].T
                row_keys = patterns.view(np.dtype((np.void, len(gates))))[:, 0]
                order = np.argsort(row_keys, kind="stable")
                ends = np.flatnonzero(row_keys[order[1:]] != row_keys[order[:-1]]) + 1
                groups += np.split(order, ends)
                keys += [row_keys[group[0]].tobytes() for group in groups[1:]]
            u_fired, codes_fired = u_meas[rows], codes[rows]
            # The memo takes the pass's patterns at once, in stacks of at
            # most _DRAW_ELEMENTS amplitudes, which also bounds the
            # distributions a pass holds outside the memo.
            per_stack = max(1, _DRAW_ELEMENTS >> n)
            for k in range(0, len(keys), per_stack):
                cums = _MEMO(text, gates, keys[k : k + per_stack])
                for group, cum in zip(groups[k : k + per_stack], cums):
                    if group is None:  # before any fired row is redrawn
                        u_meas, codes = _invert(cum, u_meas, codes, n, rescale)
                    else:  # redraw from the saved draw
                        at = rows[group]
                        u_meas[at], codes[at] = _invert(cum, u_fired[group], codes_fired[group],
                                                        n, rescale)
        return codes


def run_shots(
    circuit: Circuit,
    device: DeviceModel,
    physical_map: Sequence[int],
    basis_change: Circuit | None,
    shots: int,
    seed: int,
) -> np.ndarray:
    """Sample measurement outcomes of a circuit under the device's noise:
    the shots that read each register code, as a ``(2**width,)`` int64
    array (qubit 0 is the most significant bit of a code).

    One-off wrapper around :class:`TrajectoryEngine`; use the engine
    directly when sampling the same circuit for many qubit assignments.
    """
    engine = TrajectoryEngine(circuit, basis_change)
    return engine.sample(device, [physical_map], shots, [seed], circuit.width)[0, 0]
