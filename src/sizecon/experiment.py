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
every item of one (N, group) and returns their shots per block code as one
``(items, N, 2**width)`` int64 array, the package's one counts format. Each
tomography reader then runs once per N on those stacks, and the rows go out
as tuples in (N, set, sample, subsystem) order; ``populations.csv`` is a
column subset of the same rows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

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
SAMPLES_HEADER = (
    "run_id", "representation", "n_subsystems", "set_index", "sample_index", "subsystem",
    "energy_hartree", "energy_kcal_mol", "energy_shot_stderr_hartree",
    "p_hf", "p_single", "p_double", "p_number_violating",
)


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


def read_calibration(path: str | Path, field_name: str) -> DeviceModel:
    """The device a calibration file describes. A missing file, or text that
    is not JSON, raises a ConfigError on ``field_name`` that names the file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(field_name, f"no such file: {path}")
    try:
        return DeviceModel.from_json(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(field_name, f"{path} is not valid JSON: {exc}") from exc


def load_device(config: ExperimentConfig) -> DeviceModel:
    if config.calibration_file is not None:
        return read_calibration(config.calibration_file, "calibration.file")
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
    device = load_device(config)
    calibration_json = device.to_json()
    pool = rank_qubits(device)

    bundle = build_hamiltonians(config.bond_length)
    h_sub = bundle.subsystem_hamiltonian(config.representation)
    target = fci_ground(h_sub)
    circuit = synthesize(target)
    width = config.representation

    rows: list[tuple] = []
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
            by_group.append(engine.sample(device, maps, config.shots, group_seeds, width))
        # every reader takes the (items, N, 2**width) stacks at once
        energies = estimate_energies(mplan, by_group)
        pops = extract_populations(by_group[mplan.z_group_index])
        columns = (
            energies,
            energies * HARTREE_TO_KCAL_PER_MOL,
            shot_noise_stderr(mplan, by_group),
            pops.hf,
            pops.single_excitation,
            pops.double_excitation,
            pops.number_violating,
        )
        values = zip(*(map(repr, column.ravel().tolist()) for column in columns))
        for entry in plan.entries:
            for sub in range(n):
                rows.append(
                    (config.run_id, config.representation, n, entry.set_index,
                     entry.sample_index, sub, *next(values))
                )

    # made only now, so a config that fails on the way leaves no run dir
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / SAMPLES_CSV, SAMPLES_HEADER, rows)
    # the populations view is every samples.csv column but the energies
    keep = [i for i, name in enumerate(SAMPLES_HEADER) if not name.startswith("energy_")]
    write_csv(
        out / POPULATIONS_CSV,
        [SAMPLES_HEADER[i] for i in keep],
        [[row[i] for i in keep] for row in rows],
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


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header line, then one line per row, all with LF line ends. Every
    CSV the package writes is this."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def write_csv(path: Path, header: Sequence[str], rows: list[Sequence]) -> None:
    if not rows:
        raise ValueError(f"refusing to write empty {path.name}")
    with open(path, "w", newline="\n") as fh:
        fh.write(csv_text(header, rows))


def dict_table(rows: list[dict]) -> tuple[list[str], list]:
    """The header (the first row's keys) and value rows of ``rows``, as
    ``csv_text`` and ``write_csv`` take them."""
    return list(rows[0]), [list(row.values()) for row in rows]
