"""Synthetic device calibration, qubit ranking, and trajectory noise.

Generates a heterogeneous 156-qubit calibration (log-normal spread around
realistic medians), ranks qubits by combined readout + two-qubit error,
and shows how depolarizing insertions and readout confusion distort a
single-qubit measurement, bit-reproducibly for a fixed seed.

Run:  python demos/03_noisy_device.py
"""

import math

import numpy as np

from sizecon import DeviceModel, rank_qubits, run_shots, synthetic_calibration
from sizecon.device import qubit_scores
from sizecon.stateprep import Circuit, Gate


def main():
    device = synthetic_calibration(n_qubits=156, seed=11)
    order = rank_qubits(device)
    scores = qubit_scores(device).tolist()
    print("best five qubits   :", order[:5])
    print("worst five qubits  :", order[-5:])
    best, worst = order[0], order[-1]
    for label, q in (("best", best), ("worst", worst)):
        # a qubit's row: readout_p10, readout_p01, single_qubit_error
        p10, p01, single = device.qubits[q].tolist()
        print(f"  {label} qubit {q:>3}: p10={p10:.4f} p01={p01:.4f} 1q-error={single:.2e} "
              f"score={scores[q]:.4f}")

    theta = 0.9
    circuit = Circuit(1, (Gate("RY", (0,), theta),))
    shots = 100_000
    print(f"\nRY({theta}) prepared on different physical qubits, {shots} shots:")
    print(f"  noiseless <Z>      : {math.cos(theta):+.4f}")
    for label, q in (("best", best), ("worst", worst)):
        zero, one = run_shots(circuit, device, [q], None, shots, seed=5)
        # codes 0 and 1 read +1 and -1 on Z
        z = float(zero - one) / shots
        print(f"  qubit {q:>3} ({label:>5}) : {z:+.4f}")

    print("\nBit-exact reproducibility (same seed, same qubit):")
    a = run_shots(circuit, device, [best], None, 10_000, seed=123)
    b = run_shots(circuit, device, [best], None, 10_000, seed=123)
    same = np.array_equal(a, b)
    print(f"  identical counts: {same}")

    print("\nReadout confusion alone (empty circuit, p10 = 0.1):")
    lossy = DeviceModel.from_json(
        '{"qubits": [{"readout_p10": 0.1, "readout_p01": 0.0, '
        '"single_qubit_error": 0.0}], "two_qubit_error": []}'
    )
    ones = run_shots(Circuit(1), lossy, [0], None, shots, seed=9)[1]
    print(f"  observed P(1) = {ones / shots:.4f} (expected 0.1)")


if __name__ == "__main__":
    main()
