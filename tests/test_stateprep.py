import math

import numpy as np
import pytest

from sizecon.pauli import PauliString, PauliSum
from sizecon.simulator import statevector
from sizecon.stateprep import (
    Circuit,
    DegenerateGroundStateError,
    Gate,
    PreparedState,
    SynthesisError,
    _code_at_level,
    compose,
    fci_ground,
    synthesize,
)

from oracles import circuit_unitary


def single_qubit_h(g0, g1, g2):
    return PauliSum(
        {PauliString("I"): g0, PauliString("Z"): g1, PauliString("X"): g2}
    )


class TestFciGround:
    def test_closed_form_two_level(self):
        g0, g1, g2 = -0.3, -0.8, 0.18
        state = fci_ground(single_qubit_h(g0, g1, g2))
        assert state.energy == pytest.approx(g0 - math.hypot(g1, g2), abs=1e-12)

    def test_no_coupling_gives_basis_state(self):
        # with g1 < 0 the |0> diagonal entry g0+g1 is the smaller one
        state = fci_ground(single_qubit_h(0.0, -0.5, 0.0))
        assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)

    def test_energy_matches_ci_oracle_all_reps(self, bundle, ci_oracle):
        for h in (bundle.h1q, bundle.h2q, bundle.h4):
            state = fci_ground(h)
            assert state.energy == pytest.approx(ci_oracle.e_fci, abs=1e-10)

    def test_hf_amplitude_real_non_negative(self, bundle):
        for h, hf_idx in ((bundle.h1q, 0), (bundle.h2q, 0), (bundle.h4, 0b1100)):
            state = fci_ground(h)
            amp = state.amplitudes[hf_idx]
            assert amp.imag == pytest.approx(0.0, abs=1e-12)
            assert amp.real > 0

    @pytest.mark.parametrize(
        "width, reference, double", [(1, 0, 1), (2, 0b00, 0b11), (4, 0b1100, 0b0011)]
    )
    def test_reference_and_double_codes(self, width, reference, double):
        assert _code_at_level(width, 0) == reference
        assert _code_at_level(width, 2) == double

    def test_degenerate_ground_reported(self):
        h = PauliSum({PauliString("ZZ"): 1.0, PauliString("II"): 0.0})
        with pytest.raises(DegenerateGroundStateError):
            fci_ground(h)

    @pytest.mark.parametrize("width", [3, 8, 9])
    def test_width_bound(self, width):
        wide = PauliSum({PauliString("Z" * width): 1.0})
        with pytest.raises(ValueError, match=f"no H2 block has width {width}: "):
            fci_ground(wide)


class TestSynthesize:
    def test_single_qubit_angle(self):
        state = fci_ground(single_qubit_h(-0.3, -0.8, 0.18))
        circuit = synthesize(state)
        assert [g.kind for g in circuit.gates] == ["RY"]
        c0, c1 = state.amplitudes.real
        assert circuit.gates[0].angle == pytest.approx(2 * math.atan2(c1, c0))

    def test_reference_target_means_zero_rotations(self):
        state = fci_ground(single_qubit_h(0.0, -0.5, 0.0))
        circuit = synthesize(state)
        assert [(g.kind, g.angle) for g in circuit.gates] == [("RY", 0.0)]
        out = statevector(circuit)
        assert abs(out[0]) == pytest.approx(1.0, abs=1e-12)

    def test_componentwise_amplitudes_4q(self, bundle):
        state = fci_ground(bundle.h4)
        circuit = synthesize(state)
        out = statevector(circuit)
        # align global phase on minimal-basis reference, then compare componentwise
        phase = out[0b1100] / abs(out[0b1100])
        assert np.allclose(out / phase, state.amplitudes, atol=1e-12)

    def test_depth_contracts(self, bundle):
        for h, max_two_qubit in ((bundle.h1q, 0), (bundle.h2q, 1), (bundle.h4, 3)):
            circuit = synthesize(fci_ground(h))
            assert circuit.two_qubit_count() <= max_two_qubit
            rotations = [g for g in circuit.gates if g.kind == "RY"]
            if h.width == 1:
                assert len(circuit.gates) == 1 and len(rotations) == 1
            else:
                assert len(rotations) == 1

    def test_unitarity_round_trip(self, bundle):
        for h in (bundle.h1q, bundle.h2q, bundle.h4):
            circuit = synthesize(fci_ground(h))
            state = statevector(circuit)
            back = statevector(circuit.inverse(), initial=state)
            fidelity = abs(back[0]) ** 2
            assert fidelity >= 1 - 1e-12

    def test_rejects_unreachable_target(self):
        bad = PreparedState(
            representation=2,
            amplitudes=np.array([0.5, 0.5, 0.5, 0.5], dtype=complex),
            energy=0.0,
        )
        with pytest.raises(SynthesisError):
            synthesize(bad)

    def test_matches_dense_unitary_oracle(self, bundle):
        state = fci_ground(bundle.h2q)
        circuit = synthesize(state)
        init = np.zeros(4, dtype=complex)
        init[0] = 1.0
        expected = circuit_unitary(circuit) @ init
        assert np.allclose(statevector(circuit), expected, atol=1e-12)


class TestCompose:
    def test_sixteen_parallel_rotations(self, bundle):
        sub = synthesize(fci_ground(bundle.h1q))
        full = compose(sub, 16)
        assert full.width == 16
        assert len(full.gates) == 16
        assert all(g.kind == "RY" for g in full.gates)
        assert full.depth == sub.depth == 1

    def test_block_b_on_its_own_qubits(self, bundle):
        # block b takes qubits 2b and 2b + 1, blocks in order
        sub = synthesize(fci_ground(bundle.h2q))
        full = compose(sub, 3)
        assert full.width == 6
        assert [g.targets for g in full.gates] == [(0,), (0, 1), (2,), (2, 3), (4,), (4, 5)]

    def test_no_inter_block_gates_and_depth(self, bundle):
        sub = synthesize(fci_ground(bundle.h4))
        full = compose(sub, 2)
        for g in full.gates:
            owners = {t // 4 for t in g.targets}
            assert len(owners) == 1
        assert full.depth == sub.depth

    def test_tensor_product_oracle(self, bundle):
        state = fci_ground(bundle.h4)
        sub = synthesize(state)
        for n in (2, 3, 4):
            full = compose(sub, n)
            out = statevector(full)
            expected = state.amplitudes
            for _ in range(n - 1):
                expected = np.kron(expected, state.amplitudes)
            fidelity = abs(np.vdot(expected, out)) ** 2
            assert fidelity >= 1 - 1e-12

    def test_multiplicative_separability_every_representation(self, bundle):
        cases = {bundle.h1q: (2, 8, 16), bundle.h2q: (2, 4, 8), bundle.h4: (2, 4)}
        for h, ns in cases.items():
            state = fci_ground(h)
            sub = synthesize(state)
            for n in ns:
                out = statevector(compose(sub, n))
                expected = state.amplitudes
                for _ in range(n - 1):
                    expected = np.kron(expected, state.amplitudes)
                assert abs(np.vdot(expected, out)) ** 2 >= 1 - 1e-12

    def test_no_subsystems_rejected(self, bundle):
        sub = synthesize(fci_ground(bundle.h1q))
        with pytest.raises(ValueError, match="at least one subsystem, got 0"):
            compose(sub, 0)


class TestCircuitPlumbing:
    def test_serialize_shows_every_angle_bit(self):
        # the distribution memo keys on this text, so angles one ulp apart
        # must not share an entry
        angle = 0.3
        near = math.nextafter(angle, 1.0)
        assert Circuit(1, (Gate("RY", (0,), angle),)).serialize() != (
            Circuit(1, (Gate("RY", (0,), near),)).serialize()
        )

    def test_rep4_template_text(self, bundle):
        # README: one "KIND targets [angle]" line per gate, angle as repr
        circuit = synthesize(fci_ground(bundle.h4))
        theta = circuit.gates[2].angle
        assert circuit.serialize() == (
            f"X 0\nX 1\nRY 2 {theta!r}\nCNOT 2 3\nCNOT 2 0\nCNOT 3 1\n"
        )

    def test_serialize_gates_without_angles(self):
        circuit = Circuit(3, (Gate("CZ", (2, 0)), Gate("X", (1,)), Gate("RZ", (1,), -0.5)))
        assert circuit.serialize() == "CZ 2 0\nX 1\nRZ 1 -0.5\n"

    def test_serialize_empty_circuit(self):
        assert Circuit(2).serialize() == ""

    def test_gate_validation(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("H", (0,))
        with pytest.raises(ValueError, match="distinct"):
            Gate("CNOT", (1, 1))
        with pytest.raises(ValueError, match="finite angle"):
            Gate("RY", (0,), float("nan"))
        with pytest.raises(ValueError, match="no angle"):
            Gate("X", (0,), 1.0)

    def test_circuit_target_bounds(self):
        with pytest.raises(ValueError, match="exceed width"):
            Circuit(1, (Gate("CNOT", (0, 1)),))

    def test_depth_layering(self):
        circuit = Circuit(
            3,
            (
                Gate("RY", (0,), 0.1),
                Gate("RY", (1,), 0.2),
                Gate("CNOT", (0, 1)),
                Gate("RY", (2,), 0.3),
            ),
        )
        assert circuit.depth == 2
