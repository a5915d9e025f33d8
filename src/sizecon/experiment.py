"""End-to-end benchmark orchestration.

``run_experiment`` wires the full pipeline: Hamiltonian construction at the
configured bond length, ground-state circuit synthesis, qubit ranking and
sampling-plan generation, noisy shot simulation of every (N, set, sample,
group) work item, and tomography post-processing into per-subsystem
energies and populations. Raw results land in ``samples.csv`` /
``populations.csv`` next to a manifest recording the calibration hash and
every derived seed; identical configs reproduce the files byte for byte.

``analyze`` turns a finished run directory into the summary regression
(slope, horizon), the three figure CSVs, and their SVG companions.

Work items draw their seeds from (master seed, N, set, sample, group), so
execution order never matters; the sequential loop here could be farmed out
to a pool without changing a single output byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import SubsystemLevels, cisd_reference, error_stats, horizon, wls_fit
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
from .svgplot import Figure, Series, write as write_svg
from .tomography import (
    build_plan,
    estimate_energies,
    extract_populations,
    shot_noise_stderr,
)
from .units import HARTREE_TO_KCAL_PER_MOL

QUBIT_BUDGET = 16
DEFAULT_SHOTS = 100_000
DEFAULT_BOND_LENGTH = 0.7414   # angstrom, experimental equilibrium

SAMPLES_CSV = "samples.csv"
POPULATIONS_CSV = "populations.csv"
MANIFEST_JSON = "manifest.json"
CALIBRATION_JSON = "calibration.json"
SUMMARY_CSV = "summary.csv"


class ConfigError(ValueError):
    """Invalid experiment configuration; names the offending field by its
    path in the JSON config (``sampling.k``, ``calibration.file``, ...)."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


def _typed(value, field_name: str, kind: type | tuple, what: str = "an integer"):
    """``value`` if it is a ``kind`` (never a bool), else a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(field_name, f"must be {what}, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    representation: int
    subsystem_counts: tuple[int, ...]
    output_dir: str
    shots: int = DEFAULT_SHOTS
    sampling_mode: str = "selective"
    k_sets: int = 3
    s_repetitions: int = 50
    bond_length: float = DEFAULT_BOND_LENGTH
    calibration_file: str | None = None
    calibration_seed: int = 0
    calibration_qubits: int = 156
    master_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "subsystem_counts", tuple(self.subsystem_counts))
        if self.representation not in (1, 2, 4):
            raise ConfigError("representation", f"must be 1, 2 or 4, got {self.representation}")
        if not self.subsystem_counts:
            raise ConfigError("subsystem_counts", "must not be empty")
        for n in self.subsystem_counts:
            if n < 1:
                raise ConfigError("subsystem_counts", f"counts must be >= 1, got {n}")
            if n * self.representation > QUBIT_BUDGET:
                raise ConfigError(
                    "subsystem_counts",
                    f"N={n} needs {n * self.representation} qubits, over the "
                    f"{QUBIT_BUDGET}-qubit budget",
                )
        if self.shots < 1:
            raise ConfigError("shots", f"must be >= 1, got {self.shots}")
        if self.sampling_mode not in ("selective", "random"):
            raise ConfigError("sampling.mode", f"unknown mode {self.sampling_mode!r}")
        if self.sampling_mode == "selective":
            if self.k_sets < 1:
                raise ConfigError("sampling.k", "must be >= 1")
            for n in self.subsystem_counts:
                if QUBIT_BUDGET % (n * self.representation) != 0:
                    raise ConfigError(
                        "subsystem_counts",
                        f"N={n} x width {self.representation} does not divide the "
                        f"{QUBIT_BUDGET}-qubit pool; use random sampling",
                    )
        elif self.s_repetitions < 1:
            raise ConfigError("sampling.s", "must be >= 1")
        if self.bond_length <= 0:
            raise ConfigError("bond_length", f"must be positive, got {self.bond_length}")
        if self.calibration_file is None and self.calibration_qubits < QUBIT_BUDGET:
            raise ConfigError(
                "calibration.n_qubits", f"need at least {QUBIT_BUDGET} qubits"
            )

    @property
    def run_id(self) -> str:
        return f"r{self.representation}q-s{self.master_seed}"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("document", f"not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("document", "top level must be an object")
        known = {
            "representation", "subsystem_counts", "shots", "sampling",
            "bond_length", "calibration", "output_dir", "master_seed",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown field")
        for required in ("representation", "subsystem_counts", "output_dir"):
            if required not in raw:
                raise ConfigError(required, "missing required field")

        sampling = raw.get("sampling", {})
        if not isinstance(sampling, dict):
            raise ConfigError("sampling", "must be an object")
        calibration = raw.get("calibration", {})
        if not isinstance(calibration, dict):
            raise ConfigError("calibration", "must be an object")
        counts = _typed(raw["subsystem_counts"], "subsystem_counts", list, "a list of integers")
        kwargs: dict = {
            "subsystem_counts": [_typed(n, "subsystem_counts", int) for n in counts],
            "output_dir": _typed(raw["output_dir"], "output_dir", str, "a string"),
            "sampling_mode": sampling.get("mode", "selective"),
        }
        # (JSON object, key, name in errors, config field); all must be integers
        integer_fields = (
            (raw, "representation", "representation", "representation"),
            (raw, "shots", "shots", "shots"),
            (raw, "master_seed", "master_seed", "master_seed"),
            (sampling, "k", "sampling.k", "k_sets"),
            (sampling, "s", "sampling.s", "s_repetitions"),
            (calibration, "synthetic_seed", "calibration.synthetic_seed", "calibration_seed"),
            (calibration, "n_qubits", "calibration.n_qubits", "calibration_qubits"),
        )
        for source, key, name, attribute in integer_fields:
            if key in source:
                kwargs[attribute] = _typed(source[key], name, int)
        if "bond_length" in raw:
            kwargs["bond_length"] = _typed(
                raw["bond_length"], "bond_length", (int, float), "a number"
            )
        if "file" in calibration:
            kwargs["calibration_file"] = _typed(
                calibration["file"], "calibration.file", str, "a string"
            )
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError("document", str(exc)) from exc

    def to_dict(self) -> dict:
        sampling = {"mode": self.sampling_mode}
        if self.sampling_mode == "selective":
            sampling["k"] = self.k_sets
        else:
            sampling["s"] = self.s_repetitions
        calibration: dict = (
            {"file": self.calibration_file}
            if self.calibration_file is not None
            else {"synthetic_seed": self.calibration_seed, "n_qubits": self.calibration_qubits}
        )
        return {
            "representation": self.representation,
            "subsystem_counts": list(self.subsystem_counts),
            "shots": self.shots,
            "sampling": sampling,
            "bond_length": self.bond_length,
            "calibration": calibration,
            "output_dir": self.output_dir,
            "master_seed": self.master_seed,
        }


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
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    device = load_device(config)
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
        engines = [
            TrajectoryEngine(composed, group.basis_change) for group in mplan.groups
        ]
        for entry in plan.entries:
            counts = []
            for gi, group in enumerate(mplan.groups):
                seed = derive_seed(
                    config.master_seed, n, entry.set_index, entry.sample_index, gi
                )
                seeds[f"N{n}/set{entry.set_index}/sample{entry.sample_index}/group{gi}"] = seed
                counts.append(
                    engines[gi].sample(
                        device, entry.physical_map, config.shots, seed, group.basis
                    )
                )
            energies = estimate_energies(mplan, counts)
            stderrs = shot_noise_stderr(mplan, counts)
            pops = extract_populations(
                counts[mplan.z_group_index], config.representation, n
            )
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

    _write_csv(out / SAMPLES_CSV, sample_rows)
    _write_csv(
        out / POPULATIONS_CSV,
        [
            {
                k: row[k]
                for k in (
                    "run_id", "representation", "n_subsystems", "set_index",
                    "sample_index", "subsystem", "p_hf", "p_single", "p_double",
                    "p_number_violating",
                )
            }
            for row in sample_rows
        ],
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


def _write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        raise ValueError(f"refusing to write empty {path.name}")
    with open(path, "w", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Analysis of a finished run directory.
# ---------------------------------------------------------------------------


@dataclass
class SampleAggregate:
    """Per-(set, sample) values averaged over subsystems."""

    n_subsystems: int
    set_index: int
    sample_index: int
    energy_per_h2: float        # hartree
    shot_variance_per_h2: float  # hartree^2
    p_hf: float
    p_single: float
    p_double: float
    p_number_violating: float


def load_samples(run_dir: Path) -> list[SampleAggregate]:
    rows_by_key: dict[tuple[int, int, int], list[dict]] = {}
    with open(run_dir / SAMPLES_CSV, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["n_subsystems"]), int(row["set_index"]), int(row["sample_index"]))
            rows_by_key.setdefault(key, []).append(row)
    aggregates = []
    for (n, set_index, sample_index), rows in sorted(rows_by_key.items()):
        energies = np.array([float(r["energy_hartree"]) for r in rows])
        stderrs = np.array([float(r["energy_shot_stderr_hartree"]) for r in rows])
        aggregates.append(
            SampleAggregate(
                n_subsystems=n,
                set_index=set_index,
                sample_index=sample_index,
                energy_per_h2=float(energies.mean()),
                shot_variance_per_h2=float(np.sum(stderrs**2)) / n**2,
                p_hf=float(np.mean([float(r["p_hf"]) for r in rows])),
                p_single=float(np.mean([float(r["p_single"]) for r in rows])),
                p_double=float(np.mean([float(r["p_double"]) for r in rows])),
                p_number_violating=float(
                    np.mean([float(r["p_number_violating"]) for r in rows])
                ),
            )
        )
    return aggregates


def analyze(run_dir: str | Path) -> Path:
    """Produce summary and figure outputs for a finished run directory."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST_JSON
    if not manifest_path.exists():
        raise FileNotFoundError(f"{run_dir} has no {MANIFEST_JSON}; not a run directory")
    manifest = json.loads(manifest_path.read_text())
    representation = int(manifest["config"]["representation"])
    ref = manifest["reference"]
    levels = SubsystemLevels(
        e_hf=ref["e_hf_sub"], e_double=ref["e_double_sub"], coupling=ref["coupling"]
    )
    aggregates = load_samples(run_dir)
    if not aggregates:
        raise ValueError(f"{run_dir}/{SAMPLES_CSV} holds no samples")

    by_n: dict[int, list[SampleAggregate]] = {}
    for agg in aggregates:
        by_n.setdefault(agg.n_subsystems, []).append(agg)

    # Regression points: x = total qubits, y = mean energy per H2 (kcal/mol),
    # weight from the across-sample variance with a shot-noise floor.
    points = []
    per_n_energy: dict[int, tuple[float, float]] = {}
    for n in sorted(by_n):
        values = np.array([a.energy_per_h2 for a in by_n[n]]) * HARTREE_TO_KCAL_PER_MOL
        mean = float(values.mean())
        std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        shot_floor = math.sqrt(
            float(np.mean([a.shot_variance_per_h2 for a in by_n[n]]))
        ) * HARTREE_TO_KCAL_PER_MOL
        stddev = max(std, shot_floor, 1e-12)
        per_n_energy[n] = (mean, std)
        points.append((n * representation, mean, stddev))

    # One system size leaves the slope, its error and the horizon
    # undetermined: those fields stay empty, the intercept is the mean energy
    # per H2 at that size, and fig1 has no fit line.
    fit = wls_fit(points) if len(points) >= 2 else None
    hz = horizon(fit.slope, representation) if fit is not None else None
    _write_csv(
        run_dir / SUMMARY_CSV,
        [
            {
                "representation": representation,
                "n_points": len(points),
                "delta_kcal_per_qubit": repr(fit.slope) if fit is not None else "",
                "slope_stderr_kcal_per_qubit": repr(fit.slope_stderr) if fit is not None else "",
                "intercept_kcal": repr(fit.intercept if fit is not None else points[0][1]),
                "horizon_n_qubit": hz.n_qubit if hz is not None else "",
                "horizon_n_h2": hz.n_h2 if hz is not None else "",
                "horizon_unbounded": hz.unbounded if hz is not None else "",
            }
        ],
    )

    _emit_fig1(run_dir, representation, aggregates, fit, points)
    _emit_fig2(run_dir, by_n, levels)
    _emit_fig3(run_dir, by_n, levels)
    return run_dir


def _emit_fig1(run_dir, representation, aggregates, fit, points):
    rows = [
        {
            "kind": "sample",
            "n_subsystems": a.n_subsystems,
            "total_qubits": a.n_subsystems * representation,
            "set_index": a.set_index,
            "sample_index": a.sample_index,
            "energy_per_h2_kcal": repr(a.energy_per_h2 * HARTREE_TO_KCAL_PER_MOL),
        }
        for a in aggregates
    ]
    xs = [p[0] for p in points]
    ends = (min(xs), max(xs)) if fit is not None else ()
    for x in ends:
        rows.append(
            {
                "kind": "fit",
                "n_subsystems": "",
                "total_qubits": x,
                "set_index": "",
                "sample_index": "",
                "energy_per_h2_kcal": repr(fit.intercept + fit.slope * x),
            }
        )
    _write_csv(run_dir / "fig1.csv", rows)

    scatter = Series(
        label=f"{representation}-qubit samples",
        xs=[a.n_subsystems * representation for a in aggregates],
        ys=[a.energy_per_h2 * HARTREE_TO_KCAL_PER_MOL for a in aggregates],
        kind="scatter",
        marker="cross",
    )
    line = Series(
        label="WLS",
        xs=list(ends),
        ys=[fit.intercept + fit.slope * x for x in ends],
        kind="line",
        color="#888888",
        dashed=True,
    )
    write_svg(
        Figure(
            title="Energy per H2 vs system size",
            xlabel="total qubits",
            ylabel="energy per H2 (kcal/mol)",
            series=[scatter, line] if fit is not None else [scatter],
        ),
        run_dir / "fig1.svg",
    )


def _emit_fig2(run_dir, by_n, levels: SubsystemLevels):
    ns = sorted(by_n)
    curve_ns = list(range(1, max(ns) + 1))
    cisd_by_n = {n: cisd_reference(levels, n) for n in curve_ns}
    fci_double = levels.fci_double_population

    def stats(getter):
        means, stds = {}, {}
        for n in ns:
            vals = np.array([getter(a) for a in by_n[n]])
            means[n] = float(vals.mean())
            stds[n] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        return means, stds

    dbl_mean, dbl_std = stats(lambda a: a.p_double)
    sgl_mean, sgl_std = stats(lambda a: a.p_single)

    rows = [
        {
            "n_subsystems": n,
            "measured_mean_double": repr(dbl_mean[n]) if n in dbl_mean else "",
            "measured_std_double": repr(dbl_std[n]) if n in dbl_std else "",
            "fci_double": repr(fci_double),
            "cisd_double": repr(cisd_by_n[n].double_population_per_h2),
        }
        for n in curve_ns
    ]
    _write_csv(run_dir / "fig2a.csv", rows)
    rows = [
        {
            "n_subsystems": n,
            "measured_mean_single": repr(sgl_mean[n]) if n in sgl_mean else "",
            "measured_std_single": repr(sgl_std[n]) if n in sgl_std else "",
            "fci_single": repr(0.0),
            "cisd_single": repr(0.0),
        }
        for n in curve_ns
    ]
    _write_csv(run_dir / "fig2b.csv", rows)

    write_svg(
        Figure(
            title="Double-excitation population per H2",
            xlabel="subsystems N",
            ylabel="population",
            series=[
                Series("measured", ns, [dbl_mean[n] for n in ns], "scatter"),
                Series("FCI", curve_ns, [fci_double] * len(curve_ns), "line", color="#000000"),
                Series(
                    "CISD",
                    curve_ns,
                    [cisd_by_n[n].double_population_per_h2 for n in curve_ns],
                    "line",
                    color="#9467bd",
                ),
            ],
        ),
        run_dir / "fig2a.svg",
    )
    write_svg(
        Figure(
            title="Single-excitation population per H2",
            xlabel="subsystems N",
            ylabel="population",
            series=[
                Series("measured", ns, [sgl_mean[n] for n in ns], "scatter"),
                Series("FCI = CISD = 0", curve_ns, [0.0] * len(curve_ns), "line", color="#000000"),
            ],
        ),
        run_dir / "fig2b.svg",
    )


def _emit_fig3(run_dir, by_n, levels: SubsystemLevels):
    e_fci = levels.fci_energy
    e_hf = levels.e_hf
    samples = [
        (n, a.energy_per_h2) for n, aggs in by_n.items() for a in aggs
    ]
    stats, hf_gap = error_stats(samples, e_fci=e_fci, e_hf=e_hf)
    rows = [
        {
            "n_subsystems": n,
            "mean_error_kcal": repr(stat.mean_error_kcal),
            "std_error_kcal": repr(stat.std_kcal),
            "hf_reference_kcal": repr(hf_gap),
            "fci_reference_kcal": repr(0.0),
        }
        for n, stat in sorted(stats.items())
    ]
    _write_csv(run_dir / "fig3.csv", rows)

    ns = sorted(stats)
    write_svg(
        Figure(
            title="Energy error per H2 vs system size",
            xlabel="subsystems N",
            ylabel="error (kcal/mol)",
            series=[
                Series("measured", ns, [stats[n].mean_error_kcal for n in ns], "scatter"),
                Series("HF", ns, [hf_gap] * len(ns), "line", color="#d62728", dashed=True),
                Series("FCI", ns, [0.0] * len(ns), "line", color="#000000"),
            ],
        ),
        run_dir / "fig3.svg",
    )


def reference_table(bond_length: float, n_max: int) -> list[dict]:
    """Classical FCI/CISD/HF reference rows for N = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    bundle = build_hamiltonians(bond_length)
    levels = bundle.levels
    rows = []
    for n in range(1, n_max + 1):
        cisd = cisd_reference(levels, n)
        rows.append(
            {
                "n_subsystems": n,
                "hf_energy_per_h2": repr(levels.e_hf),
                "fci_energy_per_h2": repr(levels.fci_energy),
                "cisd_energy_per_h2": repr(cisd.energy / n),
                "cisd_correlation_per_h2": repr(cisd.correlation_per_h2),
                "fci_double_population": repr(levels.fci_double_population),
                "cisd_double_population": repr(cisd.double_population_per_h2),
            }
        )
    return rows
