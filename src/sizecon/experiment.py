"""The run pipeline: from a config to a byte-stable run directory.

``run_experiment`` wires the full pipeline: Hamiltonian construction at the
configured bond length, ground-state circuit synthesis, qubit ranking and
sampling-plan generation, noisy shot simulation of every (N, set, sample,
group) work item, and tomography post-processing into per-subsystem
energies and populations. Raw results land in ``samples.csv`` /
``populations.csv`` next to a manifest recording the calibration hash and
every derived seed; identical configs reproduce the files byte for byte.

The config it takes is parsed and checked in :mod:`sizecon.config`;
:mod:`sizecon.report` turns a finished run directory into the summary and
figures.

Work items draw their seeds from (master seed, N, set, sample, group), so
execution order never matters. One ``TrajectoryEngine.sample`` call takes
every item of one (N, group), and each counts table it returns becomes its
per-block histogram (``tomography.block_histogram``) at once; only the
histograms are kept. Tomography and the CSV rows stay per item, in
(N, set, sample) order.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import SubsystemLevels
from .config import ConfigError, ExperimentConfig, QUBIT_BUDGET
from .hamiltonians import h1q_parameters, jordan_wigner, taper, to_fermion
from .molecule import build_integrals, solve_rhf
from .pauli import PauliSum
from .sampling import (
    SamplingPlan,
    random_plan,
    rank_qubits,
    selective_plan,
    synthetic_calibration,
)
from .simulator import DeviceModel, TrajectoryEngine
from .stateprep import compose, fci_ground, synthesize
from .tomography import (
    block_histogram,
    build_plan,
    estimate_energies,
    extract_populations,
    shot_noise_stderr,
)
from .units import HARTREE_TO_KCAL_PER_MOL

SAMPLES_CSV = "samples.csv"
POPULATIONS_CSV = "populations.csv"
MANIFEST_JSON = "manifest.json"
CALIBRATION_JSON = "calibration.json"
SUMMARY_CSV = "summary.csv"


@dataclass(frozen=True)
class HamiltonianBundle:
    """Everything the pipeline derives from one bond length."""

    bond_length: float
    e_hf: float
    h4: PauliSum
    h2q: PauliSum
    h1q: PauliSum
    levels: SubsystemLevels

    def subsystem_hamiltonian(self, representation: int) -> PauliSum:
        return {1: self.h1q, 2: self.h2q, 4: self.h4}[representation]


def build_hamiltonians(bond_length: float) -> HamiltonianBundle:
    system = build_integrals(bond_length)
    rhf = solve_rhf(system)
    h4 = jordan_wigner(to_fermion(system, rhf))
    h2q, h1q = taper(h4)
    levels = SubsystemLevels.from_single_qubit_terms(*h1q_parameters(h1q))
    return HamiltonianBundle(
        bond_length=bond_length, e_hf=rhf.e_hf, h4=h4, h2q=h2q, h1q=h1q, levels=levels
    )


def derive_seed(master_seed: int, *key: int) -> int:
    """Stable per-work-item seed from the master seed and an index tuple."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def load_device(config: ExperimentConfig) -> DeviceModel:
    if config.calibration_file is not None:
        path = Path(config.calibration_file)
        if not path.exists():
            raise ConfigError("calibration.file", f"no such file: {path}")
        return DeviceModel.from_json(path.read_text())
    return synthetic_calibration(
        n_qubits=config.calibration_qubits, seed=config.calibration_seed
    )


# Spawn-key namespace tag separating plan seeds from shot seeds.
_PLAN_SEED_TAG = 101


def sampling_plan(config: ExperimentConfig, pool: list[int], n: int) -> SamplingPlan:
    if config.sampling_mode == "selective":
        return selective_plan(pool, n, config.representation, config.k_sets)
    # random draws come from the same best-ranked sample set the selective
    # procedure partitions
    return random_plan(
        pool[:QUBIT_BUDGET],
        n,
        config.representation,
        config.s_repetitions,
        seed=derive_seed(config.master_seed, _PLAN_SEED_TAG, n),
    )


def run_experiment(config: ExperimentConfig) -> Path:
    """Execute the configured benchmark; returns the output directory."""
    # the calibration is loaded first, so a config it rejects leaves no run dir
    device = load_device(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    calibration_json = device.to_json()
    pool = rank_qubits(device)

    bundle = build_hamiltonians(config.bond_length)
    h_sub = bundle.subsystem_hamiltonian(config.representation)
    target = fci_ground(h_sub)
    circuit = synthesize(target)
    width = config.representation

    sample_rows: list[dict] = []
    seeds: dict[str, int] = {}
    for n in config.subsystem_counts:
        plan = sampling_plan(config, pool, n)
        mplan = build_plan(h_sub, n)
        blocks = [list(range(b * width, (b + 1) * width)) for b in range(n)]
        composed = compose(circuit, n, blocks)
        maps = [entry.physical_map for entry in plan.entries]
        by_group = []
        for gi, group in enumerate(mplan.groups):
            group_seeds = []
            for entry in plan.entries:
                seed = derive_seed(
                    config.master_seed, n, entry.set_index, entry.sample_index, gi
                )
                seeds[f"N{n}/set{entry.set_index}/sample{entry.sample_index}/group{gi}"] = seed
                group_seeds.append(seed)
            engine = TrajectoryEngine(composed, group.basis_change)
            by_group.append([
                block_histogram(table, width, n)
                for table in engine.sample(device, maps, config.shots, group_seeds, group.basis)
            ])
        for entry, histograms in zip(plan.entries, zip(*by_group)):
            energies = estimate_energies(mplan, histograms)
            stderrs = shot_noise_stderr(mplan, histograms)
            pops = extract_populations(histograms[mplan.z_group_index])
            for sub in range(n):
                sample_rows.append(
                    {
                        "run_id": config.run_id,
                        "representation": config.representation,
                        "n_subsystems": n,
                        "set_index": entry.set_index,
                        "sample_index": entry.sample_index,
                        "subsystem": sub,
                        "energy_hartree": repr(float(energies[sub])),
                        "energy_kcal_mol": repr(float(energies[sub] * HARTREE_TO_KCAL_PER_MOL)),
                        "energy_shot_stderr_hartree": repr(float(stderrs[sub])),
                        "p_hf": repr(float(pops.hf[sub])),
                        "p_single": repr(float(pops.single_excitation[sub])),
                        "p_double": repr(float(pops.double_excitation[sub])),
                        "p_number_violating": repr(float(pops.number_violating[sub])),
                    }
                )

    write_csv(out / SAMPLES_CSV, sample_rows)
    # the populations view is every samples.csv column but the energies
    write_csv(
        out / POPULATIONS_CSV,
        [{k: v for k, v in row.items() if not k.startswith("energy_")} for row in sample_rows],
    )
    (out / CALIBRATION_JSON).write_text(calibration_json)
    manifest = {
        "run_id": config.run_id,
        "package": f"sizecon {__version__}",
        "config": config.to_dict(),
        "calibration_sha256": hashlib.sha256(calibration_json.encode()).hexdigest(),
        "reference": {
            "e_hf_sub": bundle.levels.e_hf,
            "e_double_sub": bundle.levels.e_double,
            "coupling": bundle.levels.coupling,
            "e_fci_sub": bundle.levels.fci_energy,
            "fci_double_population": bundle.levels.fci_double_population,
        },
        "seeds": seeds,
    }
    (out / MANIFEST_JSON).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return out


def csv_text(rows: list[dict]) -> str:
    """``rows`` as CSV: a header from the first row's keys, then one line
    per row, all with LF line ends. Every CSV the package writes is this."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        raise ValueError(f"refusing to write empty {path.name}")
    with open(path, "w", newline="\n") as fh:
        fh.write(csv_text(rows))
