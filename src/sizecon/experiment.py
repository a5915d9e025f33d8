"""The run pipeline: from a config to a byte-stable run directory.

``run_experiment`` wires the full pipeline: the device, Hamiltonian
construction at the configured bond length
(``hamiltonians.build_hamiltonians``), ground-state circuit
synthesis, sampling-plan generation over the ranked qubits, noisy shot
simulation of every (N, set, sample, group) work item, and tomography
post-processing into per-subsystem energies and populations.
``rundir.write_run`` writes the two run tables, the calibration and a
manifest recording the hashes and every derived seed; identical configs
reproduce the files byte for byte.

The config it takes is parsed and checked in :mod:`sizecon.config`;
:mod:`sizecon.device` reads or draws the device (``load_device``) and ranks
its qubits; :mod:`sizecon.rundir` owns the format of the run directory,
and :mod:`sizecon.report` turns a finished one into the summary and
figures.

Both plans are plain data. The measurement plan covers one block and is
built once per run. Each N's sampling plan is one int64 array, ``maps``,
the physical qubits of each work item, which goes to the sampler as it is;
``sampling.plan_keys`` gives the ``(set, sample)`` row of each item, from
which the run draws its seeds, names them in the manifest and labels its
rows. ``stateprep.compose(circuit, n)`` owns the pipeline's N-block
register, with block ``b`` on qubits ``b * width`` to
``(b + 1) * width - 1``: it is the one place a block meets the register,
and it lays the preparation circuit and each group's basis change on
every block.

Work items draw their seeds from (master seed, N, set, sample, group), so
execution order never matters; ``derive_seed`` mixes every key of one
(N, group) at once. One ``TrajectoryEngine.sample`` call takes
every item of one (N, group) and returns their shots per block code as one
``(items, N, 2**width)`` int64 array, the package's one counts format. Each
tomography reader then runs once per N on those stacks, into the seven
value columns of that N's rows, which ``write_run`` formats.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ExperimentConfig, QUBIT_BUDGET
from .device import load_device, rank_qubits
from .hamiltonians import build_hamiltonians
from .rundir import write_run
from .sampling import plan_keys, random_plan, selective_plan
from .simulator import TrajectoryEngine
from .stateprep import compose, fci_ground, synthesize
from .tomography import (
    build_plan,
    estimate_energies,
    extract_populations,
    shot_noise_stderr,
)
from .units import HARTREE_TO_KCAL_PER_MOL

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


# Spawn-key namespace tag separating plan seeds from shot seeds.
_PLAN_SEED_TAG = 101


def sampling_plan(config: ExperimentConfig, pool: list[int], n: int) -> np.ndarray:
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
    mplan = build_plan(h_sub)
    width = config.representation

    tables = []
    seeds: dict[str, int] = {}
    for n in config.subsystem_counts:
        maps = sampling_plan(config, pool, n)
        items = plan_keys(config, n).tolist()
        composed = compose(circuit, n)
        by_group = []
        for gi, group in enumerate(mplan.groups):
            group_seeds = derive_seed(config.master_seed, [(n, s, i, gi) for s, i in items])
            for (s, i), seed in zip(items, group_seeds):
                seeds[f"N{n}/set{s}/sample{i}/group{gi}"] = seed
            engine = TrajectoryEngine(composed, compose(group.basis_change, n))
            by_group.append(engine.sample(device, maps, config.shots, group_seeds, width))
        # every reader takes the (items, N, 2**width) stacks at once
        energies = estimate_energies(mplan, by_group)
        pops = extract_populations(by_group[mplan.z_group_index])
        tables.append((n, items, (
            energies,
            energies * HARTREE_TO_KCAL_PER_MOL,
            shot_noise_stderr(mplan, by_group),
            pops.hf,
            pops.single_excitation,
            pops.double_excitation,
            pops.number_violating,
        )))

    # made only now, so a config that fails on the way leaves no run dir
    return write_run(config, tables, calibration_json, bundle.levels, seeds)
