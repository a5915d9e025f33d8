"""Optimally shallow preparation circuits and their composition.

Synthesizes the exact two-determinant ground state in all three
representations, shows the fixed gate templates, and verifies that
replicating the circuit over disjoint blocks reproduces the tensor-power
state, i.e. the construction is multiplicatively separable by design.

Run:  python demos/02_shallow_state_prep.py
"""

import numpy as np

from sizecon import build_hamiltonians, compose, fci_ground, statevector, synthesize


def main():
    bundle = build_hamiltonians(0.7414)
    print("representation  gates  depth  2q-gates  fidelity")
    circuits = {}
    states = {}
    for h in (bundle.h1q, bundle.h2q, bundle.h4):
        state = fci_ground(h)
        circuit = synthesize(state)
        fidelity = abs(np.vdot(state.amplitudes, statevector(circuit))) ** 2
        circuits[h.width], states[h.width] = circuit, state
        print(f"{h.width:>14}  {len(circuit.gates):>5}  {circuit.depth:>5}  "
              f"{circuit.two_qubit_count():>8}  {fidelity:.12f}")

    print("\n4-qubit template (text serialization):")
    print(circuits[4].serialize())

    print("Ground-state amplitudes (1-qubit representation):")
    amps = states[1].amplitudes.real
    print(f"  reference |0>: {amps[0]:+.6f}   double |1>: {amps[1]:+.6f}")
    print(f"  double-excitation population: {amps[1]**2:.6f}")

    print("\nComposing 4 copies of the 1-qubit circuit on qubits 0..3:")
    sub = circuits[1]
    full = compose(sub, 4)
    print(f"  composite width {full.width}, depth {full.depth} "
          f"(= subsystem depth {sub.depth}: copies run in parallel)")
    tensor = states[1].amplitudes
    for _ in range(3):
        tensor = np.kron(tensor, states[1].amplitudes)
    fidelity = abs(np.vdot(tensor, statevector(full))) ** 2
    print(f"  overlap with 4-fold tensor power: {fidelity:.12f}")

    print("\nRound trip through the inverse circuit:")
    back = statevector(circuits[4].inverse(), initial=statevector(circuits[4]))
    print(f"  |<0000|U^-1 U|0000>|^2 = {abs(back[0])**2:.12f}")


if __name__ == "__main__":
    main()
