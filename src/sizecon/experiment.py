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
execution order never matters; ``derive_seed`` mixes every key of one
(N, group) at once. One ``TrajectoryEngine.sample`` call takes
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
    PlanEntry,
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
    return HamiltonianBundle(h4=h4, h2q=h2q, h1q=h1q, levels=levels)


# numpy's SeedSequence constants: a pool of four 32-bit words, the two
# hashes' start values and multipliers, and the mix multipliers
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_constants(start: int, mult: int):
    """The (xor, multiplier) pair of each successive SeedSequence hash step."""
    while True:
        following = start * mult & _MASK32
        yield start, following
        start = following


def _hash(value, xor, mult):
    """One SeedSequence hash step of 32-bit words: Python ints or uint32 arrays."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words, as ``_hash`` takes them."""
    result = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
    return result ^ (result >> 16)


def derive_seed(master_seed: int, keys: Sequence[Sequence[int]]) -> list[int]:
    """Stable per-work-item seeds from the master seed and index tuples:
    for each key, ``SeedSequence(master_seed, spawn_key=key)
    .generate_state(1, np.uint64)[0]``. The keys, all of one length, are
    mixed in together as uint32 columns; each key part must lie in
    [0, 2**32), which keeps it one entropy word."""
    # the master seed's 32-bit words, least significant first, padded with
    # zeros to the pool size as SeedSequence pads it before a spawn key
    words = [master_seed >> s & _MASK32 for s in range(0, max(32, master_seed.bit_length()), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    consts = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(word, *next(consts)) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(consts)))
    # So far the pool is the same for every key. Each later entropy word is
    # hashed once per pool word and mixed into it: the master seed's last
    # words, then the key parts, one uint32 column each.
    pool = np.array(pool, dtype=np.uint32)[:, None].repeat(len(keys), axis=1)
    parts = np.array(keys, dtype=np.uint32).reshape(len(keys), -1)
    for word in [*words[_POOL_SIZE:], *parts.T]:
        xor, mult = np.array([next(consts) for _ in range(_POOL_SIZE)], dtype=np.uint32).T
        pool = _mix(pool, _hash(word, xor[:, None], mult[:, None]))
    # generate_state: two words, the first the seed's low half
    consts = _hash_constants(_INIT_B, _MULT_B)
    low, high = (_hash(word, *next(consts)).astype(np.uint64) for word in pool[:2])
    return (low | high << np.uint64(32)).tolist()


def read_calibration(path: str | Path, field_name: str) -> DeviceModel:
    """The device a calibration file describes. A missing file, or bytes
    that are not UTF-8 JSON, raise a ConfigError on ``field_name`` that
    names the file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(field_name, f"no such file: {path}")
    try:
        return DeviceModel.from_json(path.read_text())
    except UnicodeDecodeError as exc:
        raise ConfigError(field_name, f"{path} is not valid UTF-8: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past 4300 digits
        if str(exc).startswith("calibration: "):  # an entry at fault, not the text
            raise
        raise ConfigError(field_name, f"{path} is not valid JSON: {exc}") from exc


def load_device(config: ExperimentConfig) -> DeviceModel:
    if config.calibration_file is not None:
        return read_calibration(config.calibration_file, "calibration.file")
    return synthetic_calibration(
        n_qubits=config.calibration_qubits, seed=config.calibration_seed
    )


# Spawn-key namespace tag separating plan seeds from shot seeds.
_PLAN_SEED_TAG = 101


def sampling_plan(config: ExperimentConfig, pool: list[int], n: int) -> tuple[PlanEntry, ...]:
    if config.sampling_mode == "selective":
        return selective_plan(pool, n, config.representation, config.k_sets)
    # random draws come from the same best-ranked sample set the selective
    # procedure partitions
    return random_plan(
        pool[:QUBIT_BUDGET],
        n,
        config.representation,
        config.s_repetitions,
        seed=derive_seed(config.master_seed, [(_PLAN_SEED_TAG, n)])[0],
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
        maps = [entry.physical_map for entry in plan]
        by_group = []
        for gi, group in enumerate(mplan.groups):
            group_seeds = derive_seed(
                config.master_seed, [(n, e.set_index, e.sample_index, gi) for e in plan]
            )
            for entry, seed in zip(plan, group_seeds):
                seeds[f"N{n}/set{entry.set_index}/sample{entry.sample_index}/group{gi}"] = seed
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
        for entry in plan:
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
