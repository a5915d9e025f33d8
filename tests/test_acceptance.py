"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. The heavier statistical criteria use fixed, documented seeds;
every tolerance is pinned here and nowhere else.
"""

import csv
import math

import numpy as np
import pytest

from sizecon.analysis import cisd_reference, horizon, wls_fit
from sizecon.config import ExperimentConfig
from sizecon.device import DeviceModel
from sizecon.experiment import run_experiment
from sizecon.hamiltonians import build_hamiltonians, jordan_wigner, to_fermion, taper
from sizecon.report import analyze
from sizecon.molecule import build_integrals, solve_rhf
from sizecon.simulator import run_shots
from sizecon.stateprep import Circuit, Gate, compose
from sizecon.tomography import build_plan

from devices import make_device
from oracles import CiOracle, density_matrix_probs, wls_normal_equations

# Documented seeds for the statistical criteria.
CONE_CALIBRATION_SEED = 2025      # heterogeneous device behind criterion 7
CONE_MASTER_SEEDS = range(20)
NOISELESS_MASTER_SEED = 42


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def noiseless_calibration_file(tmp_path):
    path = tmp_path / "noiseless.json"
    path.write_text(DeviceModel.noiseless(16).to_json())
    return str(path)


def energy_per_h2_by_n(run_dir) -> dict[int, np.ndarray]:
    per_sample: dict[tuple[int, int, int], list[float]] = {}
    with open(run_dir / "samples.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["n_subsystems"]), int(row["set_index"]), int(row["sample_index"]))
            per_sample.setdefault(key, []).append(float(row["energy_hartree"]))
    by_n: dict[int, list[float]] = {}
    for (n, _, _), energies in per_sample.items():
        by_n.setdefault(n, []).append(float(np.mean(energies)))
    return {n: np.array(v) for n, v in by_n.items()}


def populations_by_n(run_dir, column) -> dict[int, np.ndarray]:
    by_n: dict[int, list[float]] = {}
    with open(run_dir / "samples.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            by_n.setdefault(int(row["n_subsystems"]), []).append(float(row[column]))
    return {n: np.array(v) for n, v in by_n.items()}


def test_criterion_01_horizon_table():
    """Published slope -> horizon rows reproduce exactly."""
    rows = [
        (8.474e-3, 1, 118, 118),
        (-7.000e-3, 2, 142, 71),
        (1.221e-1, 4, 8, 2),
    ]
    for delta, width, n_qubit, n_h2 in rows:
        h = horizon(delta, width)
        assert (h.n_qubit, h.n_h2) == (n_qubit, n_h2), (delta, width)
    report("criterion 1 (horizon table)", True, "3/3 rows exact")


def test_criterion_02_hardware_distributions_not_reproduced():
    """The measured hardware energy distributions depend on unpublished
    calibration data; criteria 3-9 stand in as property-based substitutes."""
    report(
        "criterion 2 (hardware distributions)",
        True,
        "substituted by criteria 3-9 per the acceptance contract",
    )


def test_criterion_03_noiseless_size_consistency(tmp_path):
    config = ExperimentConfig(
        representation=1,
        subsystem_counts=(1, 2, 4, 8, 16),
        output_dir=str(tmp_path / "flat"),
        shots=100_000,
        sampling_mode="selective",
        k_sets=3,
        calibration_file=noiseless_calibration_file(tmp_path),
        master_seed=NOISELESS_MASTER_SEED,
    )
    out = run_experiment(config)
    analyze(out)
    with open(out / "summary.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    slope = float(row["delta_kcal_per_qubit"])
    stderr = float(row["slope_stderr_kcal_per_qubit"])
    ok = abs(slope) < 3 * stderr
    report(
        "criterion 3 (noiseless size consistency)",
        ok,
        f"|slope|={abs(slope):.3e} < 3*stderr={3 * stderr:.3e} kcal/mol/qubit",
    )


def test_criterion_04_oracle_equivalence():
    worst = 0.0
    for bond_length in (0.5, 0.7414, 1.5, 3.0):
        system = build_integrals(bond_length)
        rhf = solve_rhf(system)
        h4 = jordan_wigner(to_fermion(system, rhf))
        h2q, h1q = taper(h4)
        ci = CiOracle(system, rhf)
        values = [
            np.linalg.eigvalsh(h.to_matrix())[0] for h in (h4, h2q, h1q)
        ] + [ci.e_fci]
        spread = max(values) - min(values)
        worst = max(worst, spread)
        assert spread < 1e-10, bond_length
    report("criterion 4 (oracle equivalence)", True, f"max spread {worst:.2e} hartree")


def test_criterion_05_multiplicative_separability(tmp_path):
    bundle = build_hamiltonians(0.7414)
    p_fci = bundle.levels.fci_double_population
    shots = 20_000
    s_entries = 2
    config = ExperimentConfig(
        representation=1,
        subsystem_counts=tuple(range(1, 17)),
        output_dir=str(tmp_path / "sep"),
        shots=shots,
        sampling_mode="random",
        s_repetitions=s_entries,
        calibration_file=noiseless_calibration_file(tmp_path),
        master_seed=NOISELESS_MASTER_SEED,
    )
    out = run_experiment(config)
    doubles = populations_by_n(out, "p_double")
    worst_z = 0.0
    for n, values in doubles.items():
        # each value is one subsystem's estimate from `shots` Z-basis shots
        se = math.sqrt(p_fci * (1 - p_fci) / (shots * len(values)))
        z = abs(float(values.mean()) - p_fci) / se
        worst_z = max(worst_z, z)
        assert z < 4, (n, z)

    cisd_pops = [
        cisd_reference(bundle.levels, n).double_population_per_h2 for n in range(1, 17)
    ]
    assert all(a > b for a, b in zip(cisd_pops, cisd_pops[1:]))
    assert cisd_pops[0] == pytest.approx(p_fci, abs=1e-10)
    report(
        "criterion 5 (multiplicative separability)",
        True,
        f"max |z|={worst_z:.2f} < 4; CISD strictly decreasing, equals FCI at N=1",
    )


def test_criterion_06_single_excitation_structure(tmp_path):
    # (a) single-qubit representation cannot report singles, noise or not
    noisy = ExperimentConfig(
        representation=1,
        subsystem_counts=(2, 4),
        output_dir=str(tmp_path / "r1-noisy"),
        shots=5_000,
        sampling_mode="selective",
        k_sets=1,
        calibration_seed=CONE_CALIBRATION_SEED,
        calibration_qubits=16,
        master_seed=7,
    )
    out = run_experiment(noisy)
    singles = populations_by_n(out, "p_single")
    assert all(np.all(v == 0.0) for v in singles.values())

    # (b) two- and four-qubit noiseless singles vanish
    cal = noiseless_calibration_file(tmp_path)
    for rep, counts in ((2, (2, 4)), (4, (1, 2))):
        config = ExperimentConfig(
            representation=rep,
            subsystem_counts=counts,
            output_dir=str(tmp_path / f"r{rep}-clean"),
            shots=5_000,
            sampling_mode="selective",
            k_sets=1,
            calibration_file=cal,
            master_seed=8,
        )
        out = run_experiment(config)
        singles = populations_by_n(out, "p_single")
        assert all(np.all(v == 0.0) for v in singles.values()), rep

    # (c) noisy four-qubit representation produces number-violating words
    detections = 0
    for seed in range(20):
        config = ExperimentConfig(
            representation=4,
            subsystem_counts=(1,),
            output_dir=str(tmp_path / f"r4-noisy-{seed}"),
            shots=10_000,
            sampling_mode="selective",
            k_sets=1,
            calibration_seed=CONE_CALIBRATION_SEED,
            calibration_qubits=16,
            master_seed=seed,
        )
        out = run_experiment(config)
        nv = populations_by_n(out, "p_number_violating")
        if all(np.all(v > 0.0) for v in nv.values()):
            detections += 1
    assert detections == 20
    report(
        "criterion 6 (single-excitation structure)",
        True,
        f"rep-1 singles identically 0; noiseless rep-2/4 singles 0; "
        f"number-violating detected in {detections}/20 noisy rep-4 seeds",
    )


def test_criterion_07_heteroscedastic_cone(tmp_path):
    satisfied = 0
    ratios = []
    for master_seed in CONE_MASTER_SEEDS:
        config = ExperimentConfig(
            representation=1,
            subsystem_counts=(2, 4, 8, 16),
            output_dir=str(tmp_path / f"cone-{master_seed}"),
            shots=50_000,
            sampling_mode="selective",
            k_sets=3,
            calibration_seed=CONE_CALIBRATION_SEED,
            calibration_qubits=16,
            master_seed=master_seed,
        )
        out = run_experiment(config)
        by_n = energy_per_h2_by_n(out)
        std2 = float(by_n[2].std(ddof=1))
        std16 = float(by_n[16].std(ddof=1))
        ratios.append(std16 / std2)
        if std16 <= std2:
            satisfied += 1
    fraction = satisfied / len(list(CONE_MASTER_SEEDS))
    ok = fraction >= 0.9
    report(
        "criterion 7 (heteroscedastic cone)",
        ok,
        f"{satisfied}/20 seeds non-increasing; median std16/std2 = {np.median(ratios):.3f}",
    )


def test_criterion_08_noise_channel_correctness():
    shots = 1_000_000

    # trajectory average vs exact density matrix, widths 1..3
    cases = [
        (
            Circuit(1, (Gate("RY", (0,), 1.1),)),
            make_device([(0.04, 0.02, 0.05)]),
            [0],
        ),
        (
            Circuit(2, (Gate("RY", (0,), 0.7), Gate("CNOT", (0, 1)))),
            make_device([(0.03, 0.01, 0.02), (0.02, 0.05, 0.04)], {(0, 1): 0.06}),
            [0, 1],
        ),
        (
            Circuit(
                3,
                (
                    Gate("RY", (0,), -0.9),
                    Gate("CNOT", (0, 1)),
                    Gate("RY", (2,), 2.0),
                    Gate("CZ", (1, 2)),
                ),
            ),
            make_device([(0.01, 0.03, 0.03)] * 3, {(0, 1): 0.05, (1, 2): 0.02}),
            [0, 1, 2],
        ),
    ]
    worst_z = 0.0
    for i, (circuit, device, pmap) in enumerate(cases):
        expected = density_matrix_probs(circuit, device, pmap)
        counts = run_shots(circuit, device, pmap, None, shots, seed=100 + i)
        for code, count in enumerate(counts):
            p = float(expected[code])
            observed = count / shots
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
            z = abs(observed - p) / sigma
            worst_z = max(worst_z, z)
            assert z < 4, (i, code, z)

    # readout confusion against the binomial prediction
    p10 = 0.1
    device = make_device([(p10, 0.0, 0.0)])
    counts = run_shots(Circuit(1), device, [0], None, 100_000, seed=200)
    ones = counts[1] / 100_000
    sigma = math.sqrt(p10 * (1 - p10) / 100_000)
    assert abs(ones - p10) < 3 * sigma
    report(
        "criterion 8 (noise-channel correctness)",
        True,
        f"max |z|={worst_z:.2f} over all bitstrings at 10^6 trajectories; "
        f"readout within 3 sigma",
    )


def test_criterion_09_wls_correctness():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 15))
        x = rng.uniform(0, 20, size=n)
        x[1] = x[0] + 2.0
        y = rng.uniform(-700, -600, size=n)
        s = rng.uniform(0.01, 5.0, size=n)
        points = list(zip(x, y, s))
        fit = wls_fit(points)
        intercept, slope, _ = wls_normal_equations(points)
        worst = max(worst, abs(fit.slope - slope), abs(fit.intercept - intercept))
        assert abs(fit.slope - slope) < 1e-10
        assert abs(fit.intercept - intercept) < 1e-10
    report("criterion 9 (WLS correctness)", True, f"max deviation {worst:.2e}")


def test_criterion_10_measurement_cost_constancy():
    bundle = build_hamiltonians(0.7414)
    details = []
    for h_sub, ns in (
        (bundle.h1q, (1, 2, 4, 8, 16)),
        (bundle.h2q, (1, 2, 4, 8)),
        (bundle.h4, (1, 2, 4)),
    ):
        # the distinct measurement settings of the N-block register: each
        # group's one-block basis change laid on every block
        plan = build_plan(h_sub)
        counts = [len({compose(g.basis_change, n).serialize() for g in plan.groups}) for n in ns]
        assert counts == [len(plan.groups)] * len(ns), (h_sub.width, counts)
        details.append(f"{h_sub.width}q: {counts[0]} groups")
    report("criterion 10 (measurement-cost constancy)", True, "; ".join(details))
