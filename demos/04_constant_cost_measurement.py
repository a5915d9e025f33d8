"""Measurement plans whose cost does not grow with system size.

Because the replicas do not interact, every subsystem's copy of a Pauli
string commutes with every other copy, so one tensor-product measurement
serves all N subsystems at once. The plan is built for one block, and each
group's basis change is laid on every block of the register: the number of
measurement settings therefore depends only on the representation, never on
N, and every subsystem's energy is estimated from the same shots.

Run:  python demos/04_constant_cost_measurement.py
"""

import numpy as np

from sizecon import (
    DeviceModel,
    build_hamiltonians,
    build_plan,
    compose,
    estimate_energies,
    extract_populations,
    fci_ground,
    synthesize,
)
from sizecon.simulator import TrajectoryEngine


def main():
    bundle = build_hamiltonians(0.7414)

    # one plan per representation serves every N: each group's basis change
    # is laid on every block of the register, one measurement setting each
    plans = [build_plan(h) for h in (bundle.h1q, bundle.h2q, bundle.h4)]
    print("group count vs system size:")
    print(f"{'N':>4} {'1-qubit':>8} {'2-qubit':>8} {'4-qubit':>8}")
    for n in (1, 2, 4, 8, 16):
        row = [f"{n:>4}"]
        for plan in plans:
            if n * plan.representation <= 16:
                settings = {compose(g.basis_change, n).serialize() for g in plan.groups}
                row.append(f"{len(settings):>8}")
            else:
                row.append(f"{'-':>8}")
        print(" ".join(row))

    h = bundle.h1q
    n = 8
    shots = 50_000
    plan = plans[0]
    print(f"\n1-qubit representation, N = {n}: "
          f"{len(plan.groups)} groups ({[g.basis for g in plan.groups]})")

    sub = synthesize(fci_ground(h))
    circuit = compose(sub, n)
    device = DeviceModel.noiseless(n)
    histograms = []
    for gi, group in enumerate(plan.groups):
        engine = TrajectoryEngine(circuit, compose(group.basis_change, n))
        # one (N, 2) array of shots per subsystem block and block code
        (histogram,) = engine.sample(device, [list(range(n))], shots, [40 + gi], h.width)
        histograms.append(histogram)

    energies = estimate_energies(plan, histograms)
    e_fci = bundle.levels.fci_energy
    print(f"\nper-subsystem energies from the shared {shots}-shot record:")
    for b, e in enumerate(energies):
        print(f"  subsystem {b}: {e:.6f} hartree (exact {e_fci:.6f})")
    print(f"  total = sum of subsystems = {energies.sum():.6f} hartree")

    pops = extract_populations(histograms[plan.z_group_index])
    print(f"\ndouble-excitation population per subsystem "
          f"(exact {bundle.levels.fci_double_population:.4f}):")
    print("  " + " ".join(f"{p:.4f}" for p in pops.double_excitation))
    print(f"  spread across subsystems: {np.ptp(pops.double_excitation):.4f}")


if __name__ == "__main__":
    main()
