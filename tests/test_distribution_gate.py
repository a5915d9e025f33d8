"""The distributional gate: a run's block energies against their exact
distribution.

One small config per representation is run through ``run_experiment``.
No gate, noise insertion or readout flip crosses a block, so each block of
the N-block register reads exactly the distribution that the
density-matrix oracle gives for one block on that block's own physical
qubits, group by group. With ``e_g = signs_g @ coefficients_g`` on each
block code, a block's energy from ``shots`` shots per group has the exact
mean ``constant + Σ_g p_g @ e_g`` and variance ``Σ_g (p_g @ e_g² −
(p_g @ e_g)²) / shots``. To the normal approximation, the sum of the
squared z-scores of every ``energy_hartree`` cell is then χ² with one
degree of freedom per row, and it must lie inside a two-sided bound at
tail probability 1e-6. The gate checks distributions, not bytes: any draw
from the same distributions passes it.

The seeds (master seed 1, synthetic device seed 7 on 16 qubits) were fixed
before the gate first ran. At 10⁴ shots, an oracle device whose
readout_p10 is 1.5 times the run's on every qubit moves the expected sum
past the upper bound by 3.8 to 5.5 standard deviations, in each
representation.
"""

import csv

import numpy as np
import pytest
from scipy import stats

from sizecon.config import ExperimentConfig
from sizecon.device import DeviceModel, load_device, rank_qubits
from sizecon.experiment import run_experiment, sampling_plan
from sizecon.hamiltonians import build_hamiltonians
from sizecon.sampling import plan_keys
from sizecon.stateprep import fci_ground, synthesize
from sizecon.tomography import build_plan

from oracles import density_matrix_probs

TAIL = 1e-6
SHOTS = 10_000
ROW_KEY = ("n_subsystems", "set_index", "sample_index", "subsystem")


def block_moments(config: ExperimentConfig, device: DeviceModel) -> dict:
    """The exact mean and variance of every block energy the config's run
    estimates, in hartree, keyed by ``ROW_KEY``. The blocks sit where the
    run puts them; ``device`` is the one the oracle evolves them on."""
    h_sub = build_hamiltonians(config.bond_length).subsystem_hamiltonian(config.representation)
    circuit = synthesize(fci_ground(h_sub))
    plan = build_plan(h_sub)
    energies = [g.signs @ np.array(g.coefficients) for g in plan.groups]
    pool = rank_qubits(load_device(config))
    width = config.representation
    moments = {}
    for n in config.subsystem_counts:
        maps = sampling_plan(config, pool, n).tolist()
        for (s, i), qubits in zip(plan_keys(config, n).tolist(), maps):
            for b in range(n):
                block = qubits[b * width:(b + 1) * width]
                probs = [density_matrix_probs(circuit, device, block, g.basis_change)
                         for g in plan.groups]
                mean = plan.constant + sum(p @ e for p, e in zip(probs, energies))
                variance = sum(p @ e**2 - (p @ e) ** 2 for p, e in zip(probs, energies))
                moments[n, s, i, b] = mean, variance / config.shots
    return moments


@pytest.mark.parametrize("representation, counts", [(1, (1, 4)), (2, (1, 2)), (4, (1, 2))])
def test_block_energies_follow_their_exact_distribution(tmp_path, representation, counts):
    config = ExperimentConfig(
        representation=representation, subsystem_counts=counts, output_dir=str(tmp_path / "run"),
        shots=SHOTS, k_sets=1, calibration_seed=7, calibration_qubits=16, master_seed=1,
    )
    run_dir = run_experiment(config)
    moments = block_moments(config, load_device(config))
    with open(run_dir / "samples.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(tuple(int(row[k]) for k in ROW_KEY) for row in rows) == sorted(moments)
    chi2 = 0.0
    for row in rows:
        mean, variance = moments[tuple(int(row[k]) for k in ROW_KEY)]
        chi2 += (float(row["energy_hartree"]) - mean) ** 2 / variance
    low, high = stats.chi2.ppf(TAIL / 2, len(rows)), stats.chi2.isf(TAIL / 2, len(rows))
    assert low < chi2 < high, (chi2, len(rows), low, high)
