"""Reports on a finished run directory: the summary fit and the figures.

``analyze`` reads ``samples.csv`` and ``manifest.json`` and writes
``summary.csv`` (the WLS slope, its error and the chemical-accuracy
horizon) and the figures ``fig1``, ``fig2a``, ``fig2b`` and ``fig3``.

Each figure is one table: a list of CSV rows plus the series it plots,
each naming its y column and the rows it takes. ``_write_figure`` writes
``<name>.csv`` from the rows and then ``<name>.svg`` with every point read
back from those same rows, so a plotted value cannot differ from its CSV.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import SubsystemLevels, cisd_reference, error_stats, horizon, mean_sd, wls_fit
from .experiment import (
    MANIFEST_JSON,
    SAMPLES_CSV,
    SUMMARY_CSV,
    build_hamiltonians,
    dict_table,
    write_csv,
)
from .svgplot import Figure, Series, write as write_svg
from .units import HARTREE_TO_KCAL_PER_MOL


@dataclass
class SampleAggregate:
    """Per-(set, sample) values averaged over subsystems."""

    n_subsystems: int
    set_index: int
    sample_index: int
    energy_per_h2: float        # hartree
    shot_variance_per_h2: float  # hartree^2
    p_single: float
    p_double: float


_SAMPLE_COLUMNS = (
    "n_subsystems", "set_index", "sample_index", "energy_hartree",
    "energy_shot_stderr_hartree", "p_single", "p_double",
)


def load_samples(run_dir: Path, expected_rows: int) -> list[SampleAggregate]:
    """The run's samples, one aggregate per (N, set, sample); a file that
    lacks a column it reads or does not hold ``expected_rows`` subsystem rows
    raises a ValueError."""
    rows_by_key: dict[tuple[int, int, int], list[dict]] = {}
    with open(run_dir / SAMPLES_CSV, newline="") as fh:
        reader = csv.DictReader(fh)
        for column in _SAMPLE_COLUMNS:
            if column not in (reader.fieldnames or ()):
                raise ValueError(f"{run_dir}/{SAMPLES_CSV} has no column {column}")
        for row in reader:
            key = (int(row["n_subsystems"]), int(row["set_index"]), int(row["sample_index"]))
            rows_by_key.setdefault(key, []).append(row)
    found = sum(len(rows) for rows in rows_by_key.values())
    if found != expected_rows:
        raise ValueError(
            f"{run_dir}/{SAMPLES_CSV} has {found} subsystem rows; "
            f"its manifest expects {expected_rows}"
        )
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
                p_single=float(np.mean([float(r["p_single"]) for r in rows])),
                p_double=float(np.mean([float(r["p_double"]) for r in rows])),
            )
        )
    return aggregates


@dataclass(frozen=True)
class Plotted:
    """One series of a figure table: the ``y`` column of the rows that are
    not blank there and, when ``only`` is a (column, value) pair, hold that
    value in that column."""

    label: str
    y: str
    kind: str = "scatter"
    color: str | None = None
    dashed: bool = False
    only: tuple[str, str] | None = None


def _write_figure(
    run_dir: Path, name: str, rows: list[dict], x: str, figure: Figure, *plotted: Plotted
) -> None:
    """Write ``<name>.csv`` from ``rows``, then ``<name>.svg`` plotting each
    series from those rows; a series that takes no row is left out."""
    write_csv(run_dir / f"{name}.csv", *dict_table(rows))
    for p in plotted:
        taken = [
            r for r in rows
            if r[p.y] != "" and (p.only is None or r[p.only[0]] == p.only[1])
        ]
        if taken:
            figure.series.append(
                Series(
                    p.label,
                    [float(r[x]) for r in taken],
                    [float(r[p.y]) for r in taken],
                    p.kind,
                    p.color,
                    p.dashed,
                )
            )
    write_svg(figure, run_dir / f"{name}.svg")


def _manifest_field(manifest: object, path: str, run_dir: Path):
    """The manifest's value at the dotted ``path``; a missing key raises a
    ValueError that names it."""
    value = manifest
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"{run_dir}/{MANIFEST_JSON} has no key {path}")
        value = value[key]
    return value


def analyze(run_dir: str | Path) -> Path:
    """Produce summary and figure outputs for a finished run directory."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST_JSON
    if not manifest_path.exists():
        raise FileNotFoundError(f"{run_dir} has no {MANIFEST_JSON}; not a run directory")
    manifest = json.loads(manifest_path.read_text())
    representation = int(_manifest_field(manifest, "config.representation", run_dir))
    levels = SubsystemLevels(
        e_hf=_manifest_field(manifest, "reference.e_hf_sub", run_dir),
        e_double=_manifest_field(manifest, "reference.e_double_sub", run_dir),
        coupling=_manifest_field(manifest, "reference.coupling", run_dir),
    )
    # one seed per (N, set, sample, group) work item; a sample holds N rows
    samples = {key.rsplit("/", 1)[0] for key in _manifest_field(manifest, "seeds", run_dir)}
    aggregates = load_samples(run_dir, sum(int(s.split("/")[0][1:]) for s in samples))
    if not aggregates:
        raise ValueError(f"{run_dir}/{SAMPLES_CSV} holds no samples")

    by_n: dict[int, list[SampleAggregate]] = {}
    for agg in aggregates:
        by_n.setdefault(agg.n_subsystems, []).append(agg)
    ns = sorted(by_n)

    # Regression points: x = total qubits, y = mean energy per H2 (kcal/mol),
    # weight from the across-sample variance with a shot-noise floor.
    points = []
    for n in ns:
        mean, std = mean_sd([a.energy_per_h2 * HARTREE_TO_KCAL_PER_MOL for a in by_n[n]])
        shot_floor = math.sqrt(
            float(np.mean([a.shot_variance_per_h2 for a in by_n[n]]))
        ) * HARTREE_TO_KCAL_PER_MOL
        points.append((n * representation, mean, max(std, shot_floor, 1e-12)))

    # One system size leaves the slope, its error and the horizon
    # undetermined: those fields stay empty, the intercept is the mean energy
    # per H2 at that size, and fig1 has no fit line.
    fit = wls_fit(points) if len(points) >= 2 else None
    hz = horizon(fit.slope, representation) if fit is not None else None
    write_csv(
        run_dir / SUMMARY_CSV,
        *dict_table([
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
        ]),
    )

    fig1 = [
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
    ends = (points[0][0], points[-1][0]) if fit is not None else ()
    fig1 += [
        {
            "kind": "fit",
            "n_subsystems": "",
            "total_qubits": x,
            "set_index": "",
            "sample_index": "",
            "energy_per_h2_kcal": repr(fit.intercept + fit.slope * x),
        }
        for x in ends
    ]
    _write_figure(
        run_dir, "fig1", fig1, "total_qubits",
        Figure("Energy per H2 vs system size", "total qubits", "energy per H2 (kcal/mol)"),
        Plotted(f"{representation}-qubit samples", "energy_per_h2_kcal", only=("kind", "sample")),
        Plotted("WLS", "energy_per_h2_kcal", "line", "#888888", dashed=True, only=("kind", "fit")),
    )

    curve_ns = range(1, ns[-1] + 1)
    cisd = {n: cisd_reference(levels, n).double_population_per_h2 for n in curve_ns}
    for name, column, fci, cisd_at, title, references in (
        ("fig2a", "double", levels.fci_double_population, cisd,
         "Double-excitation population per H2",
         [Plotted("FCI", "fci_double", "line", "#000000"),
          Plotted("CISD", "cisd_double", "line", "#9467bd")]),
        ("fig2b", "single", 0.0, dict.fromkeys(curve_ns, 0.0),
         "Single-excitation population per H2",
         [Plotted("FCI = CISD = 0", "fci_single", "line", "#000000")]),
    ):
        stats = {n: mean_sd([getattr(a, f"p_{column}") for a in by_n[n]]) for n in ns}
        rows = [
            {
                "n_subsystems": n,
                f"measured_mean_{column}": repr(stats[n][0]) if n in stats else "",
                f"measured_std_{column}": repr(stats[n][1]) if n in stats else "",
                f"fci_{column}": repr(fci),
                f"cisd_{column}": repr(cisd_at[n]),
            }
            for n in curve_ns
        ]
        _write_figure(
            run_dir, name, rows, "n_subsystems",
            Figure(title, "subsystems N", "population"),
            Plotted("measured", f"measured_mean_{column}"), *references,
        )

    errors, hf_gap = error_stats(
        [(n, a.energy_per_h2) for n in by_n for a in by_n[n]],
        e_fci=levels.fci_energy,
        e_hf=levels.e_hf,
    )
    fig3 = [
        {
            "n_subsystems": n,
            "mean_error_kcal": repr(stat.mean_error_kcal),
            "std_error_kcal": repr(stat.std_kcal),
            "hf_reference_kcal": repr(hf_gap),
            "fci_reference_kcal": repr(0.0),
        }
        for n, stat in sorted(errors.items())
    ]
    _write_figure(
        run_dir, "fig3", fig3, "n_subsystems",
        Figure("Energy error per H2 vs system size", "subsystems N", "error (kcal/mol)"),
        Plotted("measured", "mean_error_kcal"),
        Plotted("HF", "hf_reference_kcal", "line", "#d62728", dashed=True),
        Plotted("FCI", "fci_reference_kcal", "line", "#000000"),
    )
    return run_dir


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
