import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest
from scipy import stats

from sizecon import simulator
from sizecon.sampling import synthetic_calibration
from sizecon.simulator import (
    _PAULI_1Q,
    DeviceModel,
    TrajectoryEngine,
    _apply_1q,
    _invert,
    _rotation_matrix,
    apply_gate,
    run_shots,
    statevector,
)
from sizecon.stateprep import Circuit, Gate, compose, fci_ground, synthesize
from sizecon.tomography import build_plan

from devices import make_device
from oracles import circuit_unitary, density_matrix_probs, pattern_distribution, reference_invert
from tables import block_histogram, csv_text


def random_circuit(width, n_gates, rng):
    gates = []
    for _ in range(n_gates):
        kind = rng.choice(["RY", "RZ", "X", "CZ", "CNOT"])
        if kind in ("RY", "RZ"):
            gates.append(Gate(kind, (int(rng.integers(width)),), float(rng.uniform(-3, 3))))
        elif kind == "X":
            gates.append(Gate("X", (int(rng.integers(width)),)))
        else:
            a, b = rng.choice(width, size=2, replace=False)
            gates.append(Gate(kind, (int(a), int(b))))
    return Circuit(width, tuple(gates))


class TestApplyGate:
    def test_ry_pi_flips(self):
        state = np.array([1, 0], dtype=complex)
        out = apply_gate(state, Gate("RY", (0,), math.pi))
        assert abs(out[1]) == pytest.approx(1.0, abs=1e-12)

    def test_cz_signs(self):
        for code, sign in ((0b00, 1), (0b01, 1), (0b10, 1), (0b11, -1)):
            state = np.zeros(4, dtype=complex)
            state[code] = 1.0
            out = apply_gate(state, Gate("CZ", (0, 1)))
            assert out[code] == pytest.approx(sign)

    def test_cnot_flips_target_when_control_set(self):
        state = np.zeros(4, dtype=complex)
        state[0b10] = 1.0
        out = apply_gate(state, Gate("CNOT", (0, 1)))
        assert abs(out[0b11]) == pytest.approx(1.0)

    def test_only_target_amplitudes_change(self):
        rng = np.random.default_rng(0)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        out = apply_gate(state, Gate("RY", (1,), 0.7))
        # amplitudes pair up across the qubit-1 axis; qubit 0 and 2 blocks independent
        psi_in = state.reshape(2, 2, 2)
        psi_out = out.reshape(2, 2, 2)
        for i in (0, 1):
            for k in (0, 1):
                sub_in = psi_in[i, :, k]
                sub_out = psi_out[i, :, k]
                half = 0.7 / 2
                m = np.array(
                    [[math.cos(half), -math.sin(half)], [math.sin(half), math.cos(half)]]
                )
                assert np.allclose(sub_out, m @ sub_in, atol=1e-12)

    def test_norm_preserved_random_circuits(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            circuit = random_circuit(3, 12, rng)
            out = statevector(circuit)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_norm_preserved_per_noisy_trajectory(self):
        # a trajectory is the circuit interleaved with Pauli insertions;
        # every step is unitary, so the norm must survive to 1e-12
        rng = np.random.default_rng(13)
        for _ in range(5):
            circuit = random_circuit(3, 8, rng)
            state = np.zeros(8, dtype=complex)
            state[0] = 1.0
            for gate in circuit.gates:
                state = apply_gate(state, gate)
                for t in gate.targets:
                    if rng.random() < 0.5:
                        letter = int(rng.integers(1, 4))  # X, Y or Z
                        state = _apply_1q(state, _PAULI_1Q[letter - 1], t)
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_apply_1q_equals_moveaxis_form(self):
        # the kernel's earlier form, which moved qubit q's axis to the front;
        # the sampled bytes depend on every amplitude bit, so equality is exact
        def moveaxis_form(state, mat, q, n):
            psi = np.moveaxis(state.reshape([2] * n), q, 0)
            out = np.empty_like(psi)
            out[0] = mat[0, 0] * psi[0] + mat[0, 1] * psi[1]
            out[1] = mat[1, 0] * psi[0] + mat[1, 1] * psi[1]
            return np.moveaxis(out, 0, q).reshape(-1)

        rng = np.random.default_rng(17)
        mats = [*_PAULI_1Q, _rotation_matrix("RY", 0.83), _rotation_matrix("RZ", -1.9)]
        for n in range(1, 7):
            for q in range(n):
                for _ in range(4):
                    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                    for mat in mats:
                        expected = moveaxis_form(state, mat, q, n)
                        assert np.array_equal(_apply_1q(state, mat, q), expected), (n, q)

    def test_matches_dense_unitary_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            circuit = random_circuit(3, 10, rng)
            expected = circuit_unitary(circuit)[:, 0]
            assert np.allclose(statevector(circuit), expected, atol=1e-12)

    def test_target_out_of_range(self):
        state = np.array([1, 0], dtype=complex)
        with pytest.raises(ValueError, match="exceed register width"):
            apply_gate(state, Gate("RY", (1,), 0.1))


class TestRunShots:
    def test_zero_noise_empty_circuit(self):
        device = DeviceModel.noiseless(2)
        counts = run_shots(Circuit(2), device, [0, 1], None, 1000, seed=1)
        assert counts.tolist() == [1000, 0, 0, 0]

    def test_readout_binomial(self):
        p10 = 0.1
        shots = 100_000
        device = make_device([(p10, 0.0, 0.0)])
        counts = run_shots(Circuit(1), device, [0], None, shots, seed=3)
        ones = counts[1]
        sigma = math.sqrt(p10 * (1 - p10) / shots)
        assert abs(ones / shots - p10) < 3 * sigma

    def test_bit_exact_reproducibility(self):
        device = make_device([(0.02, 0.03, 0.01)] * 3, {(0, 1): 0.05, (1, 2): 0.04, (0, 2): 0.03})
        rng = np.random.default_rng(4)
        circuit = random_circuit(3, 8, rng)
        a = run_shots(circuit, device, [0, 1, 2], None, 5000, seed=11)
        b = run_shots(circuit, device, [0, 1, 2], None, 5000, seed=11)
        assert np.array_equal(a, b)
        c = run_shots(circuit, device, [0, 1, 2], None, 5000, seed=12)
        assert not np.array_equal(c, a)

    def test_engine_equals_one_off_wrapper(self):
        device = make_device([(0.01, 0.01, 0.02)] * 2, {(0, 1): 0.03})
        circuit = Circuit(2, (Gate("RY", (0,), 1.1), Gate("CNOT", (0, 1))))
        engine = TrajectoryEngine(circuit)
        for seed in (5, 6):
            assert np.array_equal(
                engine.sample(device, [[0, 1]], 4000, [seed], 2)[0, 0],
                run_shots(circuit, device, [0, 1], None, 4000, seed),
            )

    def test_depolarizing_shrinks_z_expectation(self):
        theta = 0.9
        circuit = Circuit(1, (Gate("RY", (0,), theta),))
        noiseless = math.cos(theta)
        device = make_device([(0.0, 0.0, 0.2)])
        shots = 60_000
        values = []
        for seed in range(5):
            counts = run_shots(circuit, device, [0], None, shots, seed=seed)
            zero, one = counts
            z = (zero - one) / shots
            values.append(z)
        assert all(abs(z) <= abs(noiseless) for z in values)

    def test_zero_noise_distribution_chi_square(self):
        rng = np.random.default_rng(7)
        circuit = random_circuit(3, 9, rng)
        amps = statevector(circuit)
        probs = np.abs(amps) ** 2
        shots = 50_000
        counts = run_shots(circuit, DeviceModel.noiseless(3), [0, 1, 2], None, shots, seed=8)
        observed = counts.astype(float)
        keep = probs * shots >= 5
        rest_obs = observed[~keep].sum()
        rest_exp = probs[~keep].sum() * shots
        obs = np.append(observed[keep], rest_obs)
        exp = np.append(probs[keep] * shots, rest_exp)
        obs, exp = obs[exp > 0], exp[exp > 0]
        exp *= obs.sum() / exp.sum()
        _, p_value = stats.chisquare(obs, exp)
        assert p_value > 1e-3

    def test_basis_change_applied(self):
        # RY(-pi/2) turns |+> into |0>; prepare |+> then measure in X basis
        prep = Circuit(1, (Gate("RY", (0,), math.pi / 2),))
        basis = Circuit(1, (Gate("RY", (0,), -math.pi / 2),))
        counts = run_shots(prep, DeviceModel.noiseless(1), [0], basis, 2000, seed=9)
        assert counts.tolist() == [2000, 0]

    def test_matches_density_matrix_oracle(self):
        two_qubit = (
            Circuit(
                2, (Gate("RY", (0,), 1.2), Gate("CNOT", (0, 1)), Gate("RY", (1,), -0.6))
            ),
            None,
            make_device([(0.03, 0.05, 0.04), (0.02, 0.01, 0.06)], {(0, 1): 0.08}),
            10,
        )
        # three independent segments, (0, 1), (2, 3) and (4,), measured in a
        # mixed basis: the outcome is drawn segment by segment
        segmented = (
            Circuit(
                5,
                (
                    Gate("RY", (0,), 1.2),
                    Gate("CNOT", (0, 1)),
                    Gate("RY", (2,), -0.8),
                    Gate("CNOT", (2, 3)),
                    Gate("RY", (4,), 2.1),
                ),
            ),
            Circuit(
                5,
                (
                    Gate("RY", (1,), -math.pi / 2),
                    Gate("RZ", (2,), 0.7),
                    Gate("RY", (2,), math.pi / 2),
                    Gate("RY", (4,), -math.pi / 2),
                ),
            ),
            make_device(
                [(0.01 * (q + 1), 0.02 + 0.01 * q, 0.03 + 0.01 * q) for q in range(5)],
                {(0, 1): 0.08, (2, 3): 0.06},
            ),
            21,
        )
        shots = 200_000
        for circuit, basis_change, device, seed in (two_qubit, segmented):
            width = circuit.width
            pmap = list(range(width))
            expected = density_matrix_probs(circuit, device, pmap, basis_change)
            counts = run_shots(circuit, device, pmap, basis_change, shots, seed=seed)
            for code, count in enumerate(counts):
                p = expected[code]
                observed = count / shots
                sigma = math.sqrt(p * (1 - p) / shots)
                assert abs(observed - p) < 4 * sigma

    def test_idle_qubit_beside_a_noisy_one_is_pinned(self):
        # recorded before the chain-rule step was reworked
        circuit = Circuit(2, (Gate("RY", (0,), 1.0),))
        counts = run_shots(circuit, make_device([(0, 0, 0.3)] * 2), [0, 1], None, 1000, seed=0)
        assert counts.tolist() == [660, 0, 340, 0]

    def test_sampled_csv_is_pinned(self):
        # recorded while tables still held bitstring-keyed dicts
        device = make_device([(0.02, 0.03, 0.01)] * 3, {(0, 1): 0.05, (1, 2): 0.04, (0, 2): 0.03})
        circuit = Circuit(
            3,
            (
                Gate("RY", (0,), 1.1),
                Gate("CNOT", (0, 1)),
                Gate("RY", (2,), -0.7),
                Gate("CZ", (1, 2)),
            ),
        )
        basis = Circuit(3, (Gate("RY", (1,), -math.pi / 2),))
        counts = run_shots(circuit, device, [0, 1, 2], basis, 5000, seed=11)
        assert csv_text(counts) == (
            "bitstring,count\n000,1520\n001,271\n010,1477\n011,266\n"
            "100,615\n101,122\n110,629\n111,100\n"
        )

    def test_heavy_noise_csv_is_pinned(self):
        # recorded before the sampler drew quiet and fired shots apart; at
        # p = 0.3 per gate most shots fire an event on both two-qubit segments
        device = make_device([(0.01, 0.02, 0.3)] * 4, {(0, 1): 0.3, (2, 3): 0.3})
        circuit = Circuit(
            4,
            (
                Gate("RY", (0,), 1.1),
                Gate("CNOT", (0, 1)),
                Gate("RY", (1,), -0.4),
                Gate("RY", (2,), 0.6),
                Gate("CZ", (2, 3)),
                Gate("RY", (3,), 2.0),
                Gate("X", (2,)),
            ),
        )
        basis = Circuit(
            4,
            (
                Gate("RY", (1,), -math.pi / 2),
                Gate("RZ", (2,), 0.3),
                Gate("RY", (2,), math.pi / 2),
            ),
        )
        counts = run_shots(circuit, device, [0, 1, 2, 3], basis, 4000, seed=17)
        assert csv_text(counts) == (
            "bitstring,count\n0000,181\n0001,254\n0010,226\n0011,330\n"
            "0100,249\n0101,340\n0110,320\n0111,459\n1000,179\n1001,243\n"
            "1010,199\n1011,307\n1100,137\n1101,183\n1110,164\n1111,229\n"
        )

    def test_physical_qubit_absent(self):
        device = DeviceModel.noiseless(2)
        with pytest.raises(ValueError, match="absent from device"):
            run_shots(Circuit(1), device, [5], None, 10, seed=0)

    def test_map_length_mismatch(self):
        device = DeviceModel.noiseless(2)
        with pytest.raises(ValueError, match="map length"):
            run_shots(Circuit(2), device, [0], None, 10, seed=0)

    def test_map_repeating_a_qubit(self):
        # read as noiseless, pair (0, 0) would hide the listed pair's error
        device = make_device([(0.0, 0.0, 0.0)] * 2, {(0, 1): 0.5})
        circuit = Circuit(2, (Gate("RY", (0,), 0.0), Gate("CNOT", (0, 1))))
        with pytest.raises(ValueError, match=r"^physical map \[0, 0\] repeats a qubit$"):
            run_shots(circuit, device, [0, 0], None, 10, seed=0)

    @pytest.mark.parametrize("seed", [-1, -(2**64), 2**128, 2**200])
    def test_seed_outside_the_philox_key(self, seed):
        with pytest.raises(ValueError, match=rf"^seed {seed} outside \[0, 2\*\*128\)$"):
            run_shots(Circuit(1), DeviceModel.noiseless(1), [0], None, 10, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64, 2**128 - 1])
    def test_seed_at_the_philox_key_bounds(self, seed):
        device = make_device([(0.3, 0.0, 0.0)])
        counts = run_shots(Circuit(1), device, [0], None, 1000, seed=seed)
        bit_generator = np.random.Philox(key=seed)
        ones = (np.random.Generator(bit_generator).random((1000, 2))[:, 1] < 0.3).sum()
        assert counts.tolist() == [1000 - ones, ones]


class TestBatchedSample:
    """``sample`` over many work items at once. Each digest is the sha256 of
    the items' ``bitstring,count`` texts (``tables.csv_text`` of each item's
    joint counts) joined in item order, recorded with one ``sample`` call
    per item before items shared a pass."""

    circuit = Circuit(
        3,
        (Gate("RY", (0,), 1.1), Gate("CNOT", (0, 1)), Gate("RY", (2,), -0.7), Gate("CZ", (1, 2))),
    )
    basis = Circuit(3, (Gate("RY", (1,), -math.pi / 2),))

    def digest(self, device, maps, shots, seeds):
        engine = TrajectoryEngine(self.circuit, self.basis)
        joints = engine.sample(device, maps, shots, seeds, self.circuit.width)[:, 0]
        return hashlib.sha256("".join(csv_text(j) for j in joints).encode()).hexdigest()

    # one device whose noisy gates differ between maps: qubit 4 has no
    # one-qubit error and only neighbouring pairs are listed, so the maps
    # below drop different gates from the column layout, and items of one
    # layout are not adjacent
    mixed_device = make_device(
        [(0.02, 0.03, 0.01), (0.01, 0.02, 0.02), (0.03, 0.01, 0.015), (0.02, 0.02, 0.01),
         (0.01, 0.04, 0.0)],
        {(0, 1): 0.05, (1, 2): 0.04, (2, 3): 0.06, (3, 4): 0.05},
    )
    mixed_maps = [
        [0, 1, 2], [4, 3, 2], [0, 2, 1], [1, 2, 3], [4, 0, 3], [2, 1, 0], [0, 2, 4], [3, 4, 0]
    ]

    @pytest.mark.parametrize(
        "shots, items, expected",
        [
            # every item in one pass
            (1, 20, "09c23eac18971ba9e448cb4f8bdf081b68a34b08a957db8eea47674046a364d8"),
            # two passes of whole items
            (500, 20, "bbaeafc4830877c92c740d4f832ea4bf4707c219ebcc3c1eab160e123a137948"),
            # one row more than a pass packs (_PACK_ROWS + 1): each item
            # runs alone, in two draws of at most 1 << 16 uniforms
            (8193, 3, "7bf821309b562870044be86c81cc7a5c3eef28b772e8ed6a478f77e069ec1a7f"),
            # past one shot chunk: each item runs alone, in two chunks of
            # thirteen draws in all
            (70_000, 2, "a9bb5c8aad7831736fbcb51ee07a2cff970cc9a4a7ef37e431e276856cbafa59"),
        ],
    )
    def test_packed_and_chunked_items_equal_one_item_calls(
        self, monkeypatch, shots, items, expected
    ):
        monkeypatch.setattr(simulator, "_DRAW_ELEMENTS", 1 << 16)
        device = make_device(
            [(0.02 + 0.01 * q, 0.03, 0.01 + 0.005 * q) for q in range(6)],
            {(a, b): 0.04 + 0.01 * a for a in range(6) for b in range(a + 1, 6)},
        )
        rng = np.random.default_rng(0)
        maps = [[int(q) for q in rng.permutation(6)[:3]] for _ in range(items)]
        seeds = [100 + i for i in range(items)]
        assert self.digest(device, maps, shots, seeds) == expected

    def test_items_keep_their_own_noisy_gate_layout(self):
        seeds = [7 + i for i in range(len(self.mixed_maps))]
        assert self.digest(self.mixed_device, self.mixed_maps, 500, seeds) == (
            "9ab8e6a57197c2f16e8c0b7b6d44e4edaccd9be38485a3e33f9ec3844f9c51bf"
        )

    @pytest.mark.parametrize(
        "shots, draw_elements",
        [
            (500, None),         # packed passes
            (8193, None),        # each item alone, in one draw
            (8193, 1 << 14),     # each item alone, in several draws
        ],
    )
    @pytest.mark.parametrize("representation, n", [(1, 3), (2, 2), (4, 1), (4, 2)])
    def test_sample_equals_block_histograms_of_tables(
        self, bundle, monkeypatch, representation, n, shots, draw_elements
    ):
        if draw_elements is not None:
            monkeypatch.setattr(simulator, "_DRAW_ELEMENTS", draw_elements)
        h_sub = bundle.subsystem_hamiltonian(representation)
        plan = build_plan(h_sub, n)
        blocks = [list(range(b * representation, (b + 1) * representation)) for b in range(n)]
        circuit = compose(synthesize(fci_ground(h_sub)), n, blocks)
        device = synthetic_calibration(n_qubits=20, seed=3)
        rng = np.random.default_rng(representation * 10 + n)
        maps = [[int(q) for q in rng.permutation(20)[: circuit.width]] for _ in range(5)]
        seeds = [int(s) for s in rng.integers(0, 2**63, size=len(maps))]
        for group in plan.groups:
            engine = TrajectoryEngine(circuit, group.basis_change)
            counts = engine.sample(device, maps, shots, seeds, representation)
            expected = [
                block_histogram(joint, representation, n).tolist()
                for joint in engine.sample(device, maps, shots, seeds, circuit.width)[:, 0]
            ]
            assert counts.dtype == np.int64 and counts.tolist() == expected

    @pytest.mark.parametrize("block_width", [1, 3])
    def test_sample_keeps_each_items_noisy_gate_layout(self, block_width):
        engine = TrajectoryEngine(self.circuit, self.basis)
        seeds = [7 + i for i in range(len(self.mixed_maps))]
        counts = engine.sample(self.mixed_device, self.mixed_maps, 500, seeds, block_width)
        expected = [
            block_histogram(joint, block_width, 3 // block_width).tolist()
            for joint in engine.sample(self.mixed_device, self.mixed_maps, 500, seeds, 3)[:, 0]
        ]
        assert counts.tolist() == expected

    def test_maps_and_seeds_pair_up(self):
        engine = TrajectoryEngine(Circuit(1))
        device = DeviceModel.noiseless(2)
        with pytest.raises(ValueError, match="2 physical maps for 1 seeds"):
            engine.sample(device, [[0], [1]], 10, [0], 1)
        assert engine.sample(device, [], 10, [], 1).shape == (0, 1, 2)

    def test_block_width_must_divide_circuit_width(self):
        engine = TrajectoryEngine(Circuit(4))
        with pytest.raises(ValueError, match="block width 3 does not divide circuit width 4"):
            engine.sample(DeviceModel.noiseless(4), [[0, 1, 2, 3]], 10, [0], 3)

    def test_first_item_at_fault_is_named(self):
        engine = TrajectoryEngine(Circuit(2))
        device = DeviceModel.noiseless(3)
        maps = [[0, 1], [2, 1], [1, 1], [2, 2]]
        with pytest.raises(ValueError, match=r"^physical map \[1, 1\] repeats a qubit$"):
            engine.sample(device, maps, 10, [0, 1, 2, 3], 1)
        # a repeat that is not between neighbours
        wide = [[0, 1, 2], [2, 0, 1], [1, 2, 1], [0, 2, 0]]
        with pytest.raises(ValueError, match=r"^physical map \[1, 2, 1\] repeats a qubit$"):
            TrajectoryEngine(Circuit(3)).sample(device, wide, 10, [0, 1, 2, 3], 1)
        seeds = [0, 2**128 - 1, 2**128, -1]
        with pytest.raises(ValueError, match=rf"^seed {2**128} outside"):
            engine.sample(device, maps[:2] * 2, 10, seeds, 1)


def patterns_up_to_two_events(gates, noisy):
    """Every insertion pattern over ``gates`` whose events, at most two,
    fall on the first ``noisy`` gates; a gate on t qubits has 4**t - 1 codes."""
    codes = [range(1, 4 ** len(g.targets)) for g in gates[:noisy]]
    patterns = [bytes(len(gates))]
    for events in (1, 2):
        for at in itertools.combinations(range(noisy), events):
            for picked in itertools.product(*(codes[i] for i in at)):
                pattern = bytearray(len(gates))
                for i, code in zip(at, picked):
                    pattern[i] = code
                patterns.append(bytes(pattern))
    return patterns


def assert_stack_matches_lone_evolutions(gates, patterns):
    stacked = simulator._distributions(tuple(gates), patterns)
    assert len(stacked) == len(patterns)
    for pattern, cum in zip(patterns, stacked):
        assert cum.tobytes() == pattern_distribution(gates, pattern).tobytes(), pattern


class TestStackedDistributions:
    """``_distributions`` evolves many patterns as one stack; every row must
    equal the lone per-pattern evolution byte for byte."""

    @pytest.mark.parametrize("rep, n_patterns", [(1, 4), (2, 64), (4, 1162)])
    def test_every_pattern_of_two_events_on_each_group_text(self, bundle, rep, n_patterns):
        h_sub = bundle.subsystem_hamiltonian(rep)
        circuit = synthesize(fci_ground(h_sub))
        for group in build_plan(h_sub, 1).groups:
            engine = TrajectoryEngine(circuit, group.basis_change)
            ((_, _, gates, _),) = engine._segments
            patterns = patterns_up_to_two_events(gates, len(circuit.gates))
            assert len(patterns) == n_patterns
            assert_stack_matches_lone_evolutions(gates, patterns)

    def test_seeded_random_block_circuits(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            width = int(rng.integers(1, 6))
            if width == 1:
                kinds = rng.choice(["RY", "RZ", "X"], size=int(rng.integers(1, 6)))
                gates = tuple(
                    Gate(str(k), (0,), None if k == "X" else float(rng.uniform(-3, 3)))
                    for k in kinds
                )
            else:
                gates = random_circuit(width, int(rng.integers(1, 10)), rng).gates
            patterns = [bytes(len(gates))] + [
                bytes(int(rng.integers(0, 4 ** len(g.targets))) if rng.random() < 0.4 else 0
                      for g in gates)
                for _ in range(12)
            ]
            assert_stack_matches_lone_evolutions(gates, patterns)

    def test_connected_16_qubit_stack(self):
        # a connected 16-qubit segment reaches the memo 8 patterns at a time
        rng = np.random.default_rng(16)
        gates = tuple(Gate("RY", (q,), float(rng.uniform(-3, 3))) for q in range(16))
        gates += tuple(Gate("CNOT", (q, q + 1)) for q in range(15)) + (Gate("CZ", (15, 0)),)
        patterns = [bytes(len(gates))] + [
            bytes(int(rng.integers(0, 4 ** len(g.targets))) if rng.random() < 0.1 else 0
                  for g in gates)
            for _ in range(7)
        ]
        assert_stack_matches_lone_evolutions(gates, patterns)


def cumulative(probs):
    """A segment's table as ``_distributions`` builds it: a leading 0, then
    the running sum of the normalised probabilities."""
    probs = np.asarray(probs, dtype=float)
    cum = np.zeros(len(probs) + 1)
    np.cumsum(probs / probs.sum(), out=cum[1:])
    return cum


def table_ending_below_one(rng, n, last_outcome_zero=False):
    """A table whose last bound is below 1 by round-off: the first seeded
    random distribution that gives one."""
    for _ in range(1000):
        probs = rng.random(2**n)
        if last_outcome_zero:
            probs[-1] = 0.0
        cum = cumulative(probs)
        if cum[-1] < 1.0:
            return cum
    raise AssertionError("no table ends below 1")


def edge_draws(cum, rng):
    """Random draws, every bound of the table and the doubles either side
    of it, and draws from the table's end up to the largest double below 1."""
    ends = np.array([cum[-1], np.nextafter(cum[-1], 1.0), 1.0 - 2.0**-53])
    draws = np.concatenate(
        [rng.random(300), cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0), ends]
    )
    return draws[(draws >= 0.0) & (draws < 1.0)]


class TestInvert:
    """``_invert``, the chain-rule step, against ``oracles.reference_invert``,
    which searches the whole table and rescales every draw: the codes and the
    rescaled draws must agree byte for byte. The last segment skips the
    rescale, so there only the codes are compared, and the draw comes back as
    given."""

    @staticmethod
    def assert_matches_reference(cum, draws, n):
        codes = np.arange(len(draws), dtype=np.int64) % 5  # earlier segments' bits
        expected_draws, expected_codes = reference_invert(cum, draws, codes, n)
        rescaled, got = _invert(cum, draws, codes, n)
        assert got.tobytes() == expected_codes.tobytes()
        assert rescaled.tobytes() == expected_draws.tobytes()
        given, got = _invert(cum, draws, codes, n, rescale=False)
        assert got.tobytes() == expected_codes.tobytes()
        assert given.tobytes() == draws.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_tables(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            # spread from flat to one dominant outcome
            probs = rng.random(2**n) ** rng.uniform(0.5, 8.0)
            cum = cumulative(probs)
            self.assert_matches_reference(cum, edge_draws(cum, rng), n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zero_probability_and_deterministic_outcomes(self, n):
        rng = np.random.default_rng(10 + n)
        for outcome in range(2**n):
            deterministic = cumulative(np.eye(2**n)[outcome])
            self.assert_matches_reference(deterministic, edge_draws(deterministic, rng), n)
            probs = rng.random(2**n)
            probs[outcome] = 0.0
            probs[rng.random(2**n) < 0.3] = 0.0
            if probs.any():
                cum = cumulative(probs)
                self.assert_matches_reference(cum, edge_draws(cum, rng), n)

    @pytest.mark.parametrize(
        "n, last_outcome_zero",
        # one qubit with outcome 1 at probability 0 sums to 1 exactly
        [(1, False), (2, False), (3, False), (4, False), (2, True), (3, True), (4, True)],
    )
    def test_table_ending_below_one(self, n, last_outcome_zero):
        # a draw at or past the end takes the last outcome; when that
        # outcome has probability 0 its interval is empty, and the draw
        # rescales to 1
        rng = np.random.default_rng(20 + n)
        cum = table_ending_below_one(rng, n, last_outcome_zero)
        draws = edge_draws(cum, rng)
        assert (draws >= cum[-1]).sum() >= 2
        self.assert_matches_reference(cum, draws, n)
        rescaled, codes = _invert(cum, draws, np.zeros(len(draws), dtype=np.int64), n)
        past = draws >= cum[-1]
        assert (codes[past] == 2**n - 1).all()
        if last_outcome_zero:
            assert (rescaled[past] == 1.0).all()

    @pytest.mark.parametrize(
        "circuit, basis",
        [
            # two 2-qubit segments at heavy noise
            (
                Circuit(4, (Gate("RY", (0,), 1.1), Gate("CNOT", (0, 1)), Gate("RY", (2,), 0.6),
                            Gate("CZ", (2, 3)), Gate("X", (2,)))),
                Circuit(4, (Gate("RY", (1,), -math.pi / 2), Gate("RY", (2,), math.pi / 2))),
            ),
            # one-qubit segments, one of them deterministic
            (
                Circuit(3, (Gate("RY", (0,), 0.9), Gate("X", (1,)), Gate("RY", (2,), -2.0))),
                Circuit(3, (Gate("RY", (2,), math.pi / 2),)),
            ),
            # one connected segment
            (
                Circuit(3, (Gate("RY", (0,), 0.4), Gate("CNOT", (0, 2)), Gate("RY", (1,), 1.3))),
                None,
            ),
        ],
    )
    def test_sample_equals_reference_chain_rule(self, monkeypatch, circuit, basis):
        # the whole sampler, with each step taken by the reference
        w = circuit.width
        device = make_device(
            [(0.02 * (q + 1), 0.03, 0.2) for q in range(w + 1)],
            {(a, b): 0.3 for a in range(w + 1) for b in range(a + 1, w + 1)},
        )
        maps = [list(range(w)), list(range(w, 0, -1)), list(range(1, w + 1))]
        engine = TrajectoryEngine(circuit, basis)
        counts = engine.sample(device, maps, 3000, [5, 6, 7], w)

        def reference_step(cum, u_meas, codes, n, rescale=True):  # rescales every segment
            return reference_invert(cum, u_meas, codes, n)

        monkeypatch.setattr(simulator, "_invert", reference_step)
        assert counts.tolist() == engine.sample(device, maps, 3000, [5, 6, 7], w).tolist()

    @pytest.mark.parametrize(
        "circuit, basis, single_rates",
        [
            # qubit 1 has no gate
            (Circuit(3, (Gate("RY", (0,), 1.1), Gate("RY", (2,), 0.6))), None, (0.3, 0.3, 0.3)),
            # qubit 1's gates have rate 0
            (
                Circuit(3, (Gate("RY", (0,), 1.1), Gate("RY", (1,), 2.0), Gate("RY", (2,), 0.6))),
                None,
                (0.3, 0.0, 0.3),
            ),
            # qubit 2 has only a basis-change gate, which is noiseless
            (
                Circuit(3, (Gate("RY", (0,), 0.8), Gate("RY", (1,), 2.0))),
                Circuit(3, (Gate("RY", (2,), math.pi / 2),)),
                (0.3, 0.3, 0.3),
            ),
        ],
    )
    def test_quiet_segment_beside_noisy_ones(self, monkeypatch, circuit, basis, single_rates):
        # a segment with no noisy gate, while the other segments fire in
        # hundreds of shots
        device = make_device([(0.02, 0.03, rate) for rate in single_rates])
        shots = 100_000
        counts = run_shots(circuit, device, [0, 1, 2], basis, shots, seed=3)
        expected = density_matrix_probs(circuit, device, [0, 1, 2], basis)
        sigma = np.sqrt(expected * (1 - expected) / shots)
        assert (np.abs(counts / shots - expected) < 4 * sigma + 1e-12).all()

        def reference_step(cum, u_meas, codes, n, rescale=True):  # rescales every segment
            return reference_invert(cum, u_meas, codes, n)

        monkeypatch.setattr(simulator, "_invert", reference_step)
        assert counts.tolist() == run_shots(circuit, device, [0, 1, 2], basis, shots, 3).tolist()


class TestDistributionMemo:
    @pytest.fixture
    def memo(self, monkeypatch):
        fresh = simulator._DistributionMemo()
        monkeypatch.setattr(simulator, "_MEMO", fresh)
        return fresh

    def test_replicas_share_entries_across_system_sizes(self, memo):
        block = Circuit(2, (Gate("RY", (0,), 0.9), Gate("CNOT", (0, 1)), Gate("RY", (1,), -0.3)))
        basis = Circuit(2, (Gate("RY", (1,), -math.pi / 2),))
        device = make_device([(0.01, 0.02, 0.003)] * 8, {(q, q + 1): 0.02 for q in range(7)})

        def sample(n, device):
            blocks = [[2 * b, 2 * b + 1] for b in range(n)]
            engine = TrajectoryEngine(compose(block, n, blocks), compose(basis, n, blocks))
            engine.sample(device, [list(range(2 * n))], 2000, [n], 2)

        sample(1, DeviceModel.noiseless(8))
        assert len(memo.entries) == 1
        sample(4, DeviceModel.noiseless(8))
        assert len(memo.entries) == 1  # every N=4 segment reused the N=1 entry
        noiseless = set(memo.entries)
        sample(4, device)
        assert {key for key in memo.entries if not any(key[1])} == noiseless

    def test_connected_16_qubit_entries_stay_within_budget(self, memo, monkeypatch):
        # one 16-qubit distribution is 2**16 + 1 doubles (512 KiB); the
        # distinct fired patterns overrun the budget, so old entries must go
        evolve = simulator._distributions
        stacks = []
        monkeypatch.setattr(
            simulator, "_distributions", lambda g, ps: stacks.append(ps) or evolve(g, ps)
        )
        gates = (Gate("RY", (0,), 0.7),) + tuple(Gate("CNOT", (q, q + 1)) for q in range(15))
        device = make_device([(0.0, 0.0, 0.0)] * 16, {(q, q + 1): 0.02 for q in range(15)})
        TrajectoryEngine(Circuit(16, gates)).sample(device, [list(range(16))], 400, [3], 16)
        entry = 8 * (2**16 + 1)
        evolved = [pattern for stack in stacks for pattern in stack]
        assert len(evolved) > simulator._MEMO_BYTES // entry
        # at most 2**19 amplitudes a stack: 8 of 16 qubits
        assert max(map(len, stacks)) == simulator._DRAW_ELEMENTS >> 16 == 8
        assert memo.nbytes == sum(cum.nbytes for cum in memo.entries.values())
        assert memo.nbytes <= simulator._MEMO_BYTES
        assert len(memo.entries) == simulator._MEMO_BYTES // entry


class TestDeviceModel:
    def test_pair_error_symmetric_lookup(self):
        device = make_device([(0.0, 0.0, 0.0)] * 3, {(1, 0): 0.25})
        assert device.pair_error(0, 1) == 0.25
        assert device.pair_error(1, 0) == 0.25
        assert device.pair_error(1, 2) == 0.0  # unlisted pairs are noiseless

    def test_probability_bounds_validated(self):
        with pytest.raises(ValueError, match="outside"):
            make_device([(1.5, 0.0, 0.0)])
        with pytest.raises(ValueError, match="outside"):
            make_device([(0.0, 0.0, 0.0)] * 2, {(0, 1): -0.1})

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_device([(0.01, 0.02, 0.003), (0.04, 0.05, 0.006)], {(0, 1): 0.07}),
            lambda: synthetic_calibration(n_qubits=156, seed=7),
        ],
        ids=["two-qubits", "synthetic-seed7-156"],
    )
    def test_json_round_trip(self, make):
        device = make()
        back = DeviceModel.from_json(device.to_json())
        for name in ("qubits", "pairs", "pair_errors"):
            assert getattr(back, name).tolist() == getattr(device, name).tolist()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: synthetic_calibration(n_qubits=156, seed=7),
            lambda: DeviceModel.noiseless(3),
            lambda: DeviceModel.from_json(
                '{"qubits": [{"readout_p10": 0, "readout_p01": 1, "single_qubit_error": 0},'
                ' {"readout_p10": 0.25, "readout_p01": 0, "single_qubit_error": 1}],'
                ' "two_qubit_error": [{"pair": [1, 0], "error": 1}]}'
            ),
        ],
        ids=["synthetic-seed7-156", "noiseless-no-pairs", "integer-probabilities"],
    )
    def test_to_json_equals_indented_json_dumps(self, make):
        device = make()
        payload = {
            "qubits": [
                {"readout_p10": p10, "readout_p01": p01, "single_qubit_error": single}
                for p10, p01, single in device.qubits.tolist()
            ],
            "two_qubit_error": [
                {"pair": pair, "error": p}
                for pair, p in sorted(zip(device.pairs.tolist(), device.pair_errors.tolist()))
            ],
        }
        assert device.to_json() == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize(
        "payload, key",
        [
            ("{}", "qubits"),
            ('{"qubits": {}}', "qubits"),
            ('{"qubits": [{"readout_p10": 0.01}]}', "qubits[0].readout_p01"),
            ('{"qubits": [{"readout_p10": 0, "readout_p01": 0, "single_qubit_error": "0"}]}',
             "qubits[0].single_qubit_error"),
            ('{"qubits": [{"readout_p10": true, "readout_p01": 0, "single_qubit_error": 0}]}',
             "qubits[0].readout_p10"),
            ('{"qubits": [], "two_qubit_error": {}}', "two_qubit_error"),
            ('{"qubits": [], "two_qubit_error": [{"error": 0.1}]}', "two_qubit_error[0].pair"),
            ('{"qubits": [], "two_qubit_error": [{"pair": [0, 1.0], "error": 0.1}]}',
             "two_qubit_error[0].pair"),
            ('{"qubits": [], "two_qubit_error": [{"pair": [0, 1, 2], "error": 0.1}]}',
             "two_qubit_error[0].pair"),
            ('{"qubits": [], "two_qubit_error": [{"pair": [0, 1]}]}', "two_qubit_error[0].error"),
            ('{"qubits": [{"readout_p10": 0, "readout_p01": null, "single_qubit_error": 0}]}',
             "qubits[0].readout_p01"),
            ('{"qubits": [], "two_qubit_error": null}', "two_qubit_error"),
            ('{"qubits": [], "two_qubit_error": [{"pair": "01", "error": 0.1}]}',
             "two_qubit_error[0].pair"),
            ('{"qubits": [], "two_qubit_error": [{"pair": [true, 1], "error": 0.1}]}',
             "two_qubit_error[0].pair"),
            ('{"qubits": [{"readout_p10": 0, "readout_p01": 0, "single_qubit_error": 0},'
             ' {"readout_p10": 0, "readout_p01": 0, "single_qubit_error": 0}],'
             ' "two_qubit_error": [{"pair": [0, 1], "error": 0.1}, {"pair": [0, 1], "error": false}]}',
             "two_qubit_error[1].error"),
        ],
    )
    def test_from_json_names_bad_key(self, payload, key):
        with pytest.raises(ValueError, match=rf"^calibration: {re.escape(key)} "):
            DeviceModel.from_json(payload)

    @staticmethod
    def calibration_text(pairs, faults=None):
        """A three-qubit calibration document listing ``pairs``, each a
        (pair, error) entry, with each entry of ``faults`` merged into the
        qubit or pair entry its (list, index) key names."""
        qubit = {"readout_p10": 0.01, "readout_p01": 0.02, "single_qubit_error": 0.001}
        payload = {
            "qubits": [dict(qubit) for _ in range(3)],
            "two_qubit_error": [{"pair": list(pair), "error": p} for pair, p in pairs],
        }
        for (name, index), fault in (faults or {}).items():
            payload[name][index].update(fault)
        return json.dumps(payload)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([((0, 1), 0.01), ((1, 2), 0.02), ((0, 1), 0.2)],
             "two_qubit_error[2].pair [0, 1] is listed twice"),
            ([((0, 1), 0.01), ((1, 0), 0.3), ((0, 1), 0.2)],
             "two_qubit_error[1].pair [1, 0] is listed twice"),
        ],
        ids=["same-order", "reverse-order"],
    )
    def test_from_json_rejects_repeated_pair(self, pairs, message):
        with pytest.raises(ValueError) as caught:
            DeviceModel.from_json(self.calibration_text(pairs))
        assert str(caught.value) == f"calibration: {message}"

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"pair": [0, 1], "error": None}, "error is missing"),
            ({"pair": [0, 1], "error": "0.1"}, "error has the wrong type str"),
            ({"pair": [0, 1], "error": [0.1]}, "error has the wrong type list"),
            ({"pair": None, "error": 0.1}, "pair is missing"),
            ({"pair": {"0": 0, "1": 1}, "error": 0.1}, "pair has the wrong type dict"),
            ({"pair": [0, "1"], "error": 0.1}, "pair is not two ints: [0, '1']"),
            ({"pair": [0], "error": 0.1}, "pair is not two ints: [0]"),
            ([[0, 1], 0.1], "pair is missing"),
        ],
    )
    def test_from_json_names_bad_pair_entry(self, entry, message):
        payload = json.loads(self.calibration_text([((0, 1), 0.01)]))
        payload["two_qubit_error"].append(entry)
        with pytest.raises(ValueError) as caught:
            DeviceModel.from_json(json.dumps(payload))
        assert str(caught.value) == f"calibration: two_qubit_error[1].{message}"

    def test_from_json_names_pair_list_after_qubits(self):
        payload = json.loads(self.calibration_text([]))
        payload["two_qubit_error"] = None
        with pytest.raises(ValueError) as caught:
            DeviceModel.from_json(json.dumps(payload))
        assert str(caught.value) == "calibration: two_qubit_error is missing"

    def test_constructor_rejects_repeated_pair(self):
        with pytest.raises(ValueError, match=r"^pair \[1, 0\] is listed twice$"):
            make_device([(0.0, 0.0, 0.0)] * 2, {(0, 1): 0.1, (1, 0): 0.2})

    @pytest.mark.parametrize(
        "faults, message",
        [
            ({("qubits", 0): {"readout_p01": 2.0}, ("qubits", 1): {"readout_p10": "0"}},
             "qubits[0].readout_p01 = 2.0 outside [0, 1]"),
            ({("qubits", 0): {"single_qubit_error": None}, ("qubits", 1): {"readout_p10": -1}},
             "qubits[0].single_qubit_error is missing"),
            ({("two_qubit_error", 0): {"error": 1.5}, ("two_qubit_error", 1): {"error": "x"}},
             "two_qubit_error[0].error = 1.5 outside [0, 1]"),
            ({("two_qubit_error", 0): {"pair": [0, 3]}, ("two_qubit_error", 1): {"pair": 7}},
             "two_qubit_error[0].pair [0, 3] repeats a qubit or leaves the device"),
            ({("two_qubit_error", 0): {"pair": [0, 1.0]}, ("two_qubit_error", 1): {"error": 2}},
             "two_qubit_error[0].pair is not two ints: [0, 1.0]"),
            ({("two_qubit_error", 0): {"error": True}, ("two_qubit_error", 1): {"pair": [2, 2]}},
             "two_qubit_error[0].error has the wrong type bool"),
        ],
        ids=["range-then-type", "missing-then-range", "pair-range-then-type",
             "index-then-type", "type-then-range", "bool-then-index"],
    )
    def test_from_json_names_first_fault_in_file_order(self, faults, message):
        text = self.calibration_text([((0, 1), 0.01), ((1, 2), 0.02)], faults)
        with pytest.raises(ValueError) as caught:
            DeviceModel.from_json(text)
        assert str(caught.value) == f"calibration: {message}"
