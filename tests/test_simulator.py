import math
import re

import numpy as np
import pytest
from scipy import stats

from sizecon.simulator import (
    CountsTable,
    DeviceModel,
    QubitCalibration,
    TrajectoryEngine,
    apply_gate,
    run_shots,
    statevector,
)
from sizecon.stateprep import Circuit, Gate

from oracles import circuit_unitary, density_matrix_probs


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
        from sizecon.simulator import _PAULI_1Q, _apply_1q

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
                        state = _apply_1q(state, _PAULI_1Q[letter - 1], t, 3)
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

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
        assert counts.counts == {"00": 1000}

    def test_readout_binomial(self):
        p10 = 0.1
        shots = 100_000
        device = DeviceModel((QubitCalibration(readout_p10=p10),))
        counts = run_shots(Circuit(1), device, [0], None, shots, seed=3)
        ones = counts.counts.get("1", 0)
        sigma = math.sqrt(p10 * (1 - p10) / shots)
        assert abs(ones / shots - p10) < 3 * sigma

    def test_bit_exact_reproducibility(self):
        device = DeviceModel(
            tuple(QubitCalibration(0.02, 0.03, 0.01) for _ in range(3)),
            {(0, 1): 0.05, (1, 2): 0.04, (0, 2): 0.03},
        )
        rng = np.random.default_rng(4)
        circuit = random_circuit(3, 8, rng)
        a = run_shots(circuit, device, [0, 1, 2], None, 5000, seed=11)
        b = run_shots(circuit, device, [0, 1, 2], None, 5000, seed=11)
        assert a.counts == b.counts
        c = run_shots(circuit, device, [0, 1, 2], None, 5000, seed=12)
        assert c.counts != a.counts

    def test_engine_equals_one_off_wrapper(self):
        device = DeviceModel(
            tuple(QubitCalibration(0.01, 0.01, 0.02) for _ in range(2)), {(0, 1): 0.03}
        )
        circuit = Circuit(2, (Gate("RY", (0,), 1.1), Gate("CNOT", (0, 1))))
        engine = TrajectoryEngine(circuit)
        for seed in (5, 6):
            assert (
                engine.sample(device, [0, 1], 4000, seed).counts
                == run_shots(circuit, device, [0, 1], None, 4000, seed).counts
            )

    def test_depolarizing_shrinks_z_expectation(self):
        theta = 0.9
        circuit = Circuit(1, (Gate("RY", (0,), theta),))
        noiseless = math.cos(theta)
        device = DeviceModel((QubitCalibration(single_qubit_error=0.2),))
        shots = 60_000
        values = []
        for seed in range(5):
            counts = run_shots(circuit, device, [0], None, shots, seed=seed)
            z = (counts.counts.get("0", 0) - counts.counts.get("1", 0)) / shots
            values.append(z)
        assert all(abs(z) <= abs(noiseless) for z in values)

    def test_zero_noise_distribution_chi_square(self):
        rng = np.random.default_rng(7)
        circuit = random_circuit(3, 9, rng)
        amps = statevector(circuit)
        probs = np.abs(amps) ** 2
        shots = 50_000
        counts = run_shots(circuit, DeviceModel.noiseless(3), [0, 1, 2], None, shots, seed=8)
        observed = np.array(
            [counts.counts.get(format(i, "03b"), 0) for i in range(8)], dtype=float
        )
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
        assert counts.counts == {"0": 2000}

    def test_matches_density_matrix_oracle(self):
        two_qubit = (
            Circuit(
                2, (Gate("RY", (0,), 1.2), Gate("CNOT", (0, 1)), Gate("RY", (1,), -0.6))
            ),
            None,
            DeviceModel(
                (
                    QubitCalibration(0.03, 0.05, 0.04),
                    QubitCalibration(0.02, 0.01, 0.06),
                ),
                {(0, 1): 0.08},
            ),
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
            DeviceModel(
                tuple(
                    QubitCalibration(0.01 * (q + 1), 0.02 + 0.01 * q, 0.03 + 0.01 * q)
                    for q in range(5)
                ),
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
            for code in range(2**width):
                p = expected[code]
                observed = counts.counts.get(format(code, f"0{width}b"), 0) / shots
                sigma = math.sqrt(p * (1 - p) / shots)
                assert abs(observed - p) < 4 * sigma

    def test_physical_qubit_absent(self):
        device = DeviceModel.noiseless(2)
        with pytest.raises(ValueError, match="absent from device"):
            run_shots(Circuit(1), device, [5], None, 10, seed=0)

    def test_map_length_mismatch(self):
        device = DeviceModel.noiseless(2)
        with pytest.raises(ValueError, match="map length"):
            run_shots(Circuit(2), device, [0], None, 10, seed=0)


class TestDeviceModel:
    def test_pair_error_symmetric_lookup(self):
        device = DeviceModel(
            (QubitCalibration(), QubitCalibration(), QubitCalibration()),
            {(1, 0): 0.25},
        )
        assert device.pair_error(0, 1) == 0.25
        assert device.pair_error(1, 0) == 0.25
        assert device.pair_error(1, 2) == 0.0  # unlisted pairs are noiseless

    def test_probability_bounds_validated(self):
        with pytest.raises(ValueError, match="outside"):
            QubitCalibration(readout_p10=1.5)
        with pytest.raises(ValueError, match="outside"):
            DeviceModel((QubitCalibration(), QubitCalibration()), {(0, 1): -0.1})

    def test_json_round_trip(self):
        device = DeviceModel(
            (QubitCalibration(0.01, 0.02, 0.003), QubitCalibration(0.04, 0.05, 0.006)),
            {(0, 1): 0.07},
        )
        back = DeviceModel.from_json(device.to_json())
        assert back == device

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
        ],
    )
    def test_from_json_names_bad_key(self, payload, key):
        with pytest.raises(ValueError, match=rf"^calibration: {re.escape(key)} "):
            DeviceModel.from_json(payload)


class TestCountsTable:
    def test_sum_validation(self):
        with pytest.raises(ValueError, match="counts sum"):
            CountsTable(shots=5, counts={"0": 4})

    def test_mixed_width_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            CountsTable(shots=2, counts={"0": 1, "00": 1})

    def test_csv_export(self):
        table = CountsTable(shots=3, counts={"01": 2, "10": 1}, measured_basis="ZZ")
        assert table.to_csv() == "bitstring,count\n01,2\n10,1\n"
