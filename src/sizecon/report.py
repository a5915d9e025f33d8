"""Reports on a finished run directory: the summary fit and the figures.

``analyze`` reads the run's manifest and samples through
:mod:`sizecon.rundir` and writes the summary (the WLS slope, its error and
the chemical-accuracy horizon) and the figures ``fig1``, ``fig2a``,
``fig2b`` and ``fig3``. The manifest's ``config`` is read as
``ExperimentConfig`` reads a config file; it gives the representation and
the rows ``rundir.load_samples`` expects. ``_report`` builds the text of
all nine files and writes none; ``analyze`` then writes them in one
``rundir.write_files`` call, so an error found while building leaves no
report file behind.

Each figure is one table: a list of CSV rows plus an ``svgplot.Figure``
whose series each name a column of those rows. ``_figure`` builds
``<name>.csv`` from the rows and ``<name>.svg`` from the same rows, so a
plotted value cannot differ from its CSV.

``analyze`` runs its arithmetic with numpy's overflow, invalid-value and
division-by-zero errors raised: values a forged ``samples.csv`` holds that
overflow a statistic end in one error naming the file, not in warnings.
The reference curves come from the manifest's ``reference`` levels, which
are checked to give finite values before ``samples.csv`` is read.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .analysis import SubsystemLevels, cisd_reference, error_stats, horizon, mean_sd, wls_fit
from .config import ConfigError, ExperimentConfig
from .hamiltonians import build_hamiltonians
from .rundir import (
    MANIFEST_JSON, SAMPLES_CSV, SUMMARY_CSV, csv_text, load_samples, manifest_field, read_manifest,
    write_files,
)
from .svgplot import Figure, Series, render
from .units import HARTREE_TO_KCAL_PER_MOL


def _figure(name: str, rows: list[dict], figure: Figure) -> dict[str, str]:
    """``<name>.csv`` of ``rows``, then ``<name>.svg`` drawn from the same rows."""
    return {f"{name}.csv": csv_text(rows), f"{name}.svg": render(figure, rows)}


# the summary cells a fit fills, in their column order
FITTED = ("delta_kcal_per_qubit", "slope_stderr_kcal_per_qubit", "intercept_kcal",
          "horizon_n_qubit", "horizon_n_h2", "horizon_unbounded")


def analyze(run_dir: str | Path) -> Path:
    """Produce summary and figure outputs for a finished run directory."""
    run_dir = Path(run_dir)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            files = _report(run_dir)
    except FloatingPointError as exc:
        raise ValueError(
            f"{run_dir}/{SAMPLES_CSV} holds values whose statistics are not finite: {exc}") from None
    write_files(run_dir, {name: text.encode() for name, text in files.items()})
    return run_dir


def _report(run_dir: Path) -> dict[str, str]:
    """The text of each file of a finished run directory's report, by name:
    the summary, then each figure's table and its SVG."""
    manifest = read_manifest(run_dir)
    try:
        config = ExperimentConfig.from_dict(manifest_field(manifest, "config", run_dir, number=False))
    except ConfigError as exc:
        path = "config" if exc.field_name == "document" else f"config.{exc.field_name}"
        raise ValueError(f"{run_dir}/{MANIFEST_JSON} key {path}: {exc.reason}") from None
    levels = SubsystemLevels(*(
        manifest_field(manifest, f"reference.{key}", run_dir)
        for key in ("e_hf_sub", "e_double_sub", "coupling")
    ))
    # The reference curves come from these levels, not from samples.csv: one
    # that is not finite is refused here, before anything is written.
    curve_ns = range(1, max(config.subsystem_counts) + 1)
    cisd = {n: cisd_reference(levels, n).double_population_per_h2 for n in curve_ns}
    drawn = (
        levels.fci_energy * HARTREE_TO_KCAL_PER_MOL,                  # each error's offset
        (levels.e_hf - levels.fci_energy) * HARTREE_TO_KCAL_PER_MOL,  # fig3's HF line
        levels.fci_double_population,
        *cisd.values(),
    )
    if not all(map(math.isfinite, drawn)):
        raise ValueError(f"{run_dir}/{MANIFEST_JSON} key reference: its levels give reference "
                         "values that are not finite")
    by_n = load_samples(run_dir, config, manifest_field(manifest, "samples_sha256", run_dir, number=False))

    # Regression points: x = total qubits, y = mean energy per H2 (kcal/mol),
    # weight from the across-sample variance with a shot-noise floor.
    points = []
    for n, samples in by_n.items():
        mean, std = mean_sd(samples.energy_per_h2 * HARTREE_TO_KCAL_PER_MOL)
        shot_variance = float(samples.shot_variance_per_h2.mean())
        shot_floor = math.sqrt(shot_variance) * HARTREE_TO_KCAL_PER_MOL
        points.append((n * config.representation, mean, max(std, shot_floor, 1e-12)))

    # One system size leaves the slope, its error and the horizon
    # undetermined: those cells stay empty, the intercept is the mean energy
    # per H2 at that size, and fig1 has no fit line.
    if len(points) >= 2:
        fit = wls_fit(points)
        hz = horizon(fit.slope, config.representation)
        fitted = (repr(fit.slope), repr(fit.slope_stderr), repr(fit.intercept),
                  hz.n_qubit, hz.n_h2, hz.unbounded)
        line = [(x, repr(fit.intercept + fit.slope * x)) for x in (points[0][0], points[-1][0])]
    else:
        fitted = ("", "", repr(points[0][1]), "", "", "")
        line = []
    summary = {"representation": config.representation, "n_points": len(points)}
    files = {SUMMARY_CSV: csv_text([{**summary, **dict(zip(FITTED, fitted))}])}

    fig1 = [
        {
            "kind": "sample",
            "n_subsystems": n,
            "total_qubits": n * config.representation,
            "set_index": set_index,
            "sample_index": sample_index,
            "energy_per_h2_kcal": repr(energy),
        }
        for n, samples in by_n.items()
        for (_, set_index, sample_index), energy in zip(
            samples.keys.tolist(), (samples.energy_per_h2 * HARTREE_TO_KCAL_PER_MOL).tolist()
        )
    ]
    fig1 += [
        {**dict.fromkeys(fig1[0], ""), "kind": "fit", "total_qubits": x, "energy_per_h2_kcal": y}
        for x, y in line
    ]
    files |= _figure("fig1", fig1, Figure(
        "Energy per H2 vs system size", "total qubits", "energy per H2 (kcal/mol)", "total_qubits",
        (Series(f"{config.representation}-qubit samples", "energy_per_h2_kcal", only=("kind", "sample")),
         Series("WLS", "energy_per_h2_kcal", "line", "#888888", dashed=True, only=("kind", "fit"))),
    ))

    for name, column, fci, cisd_at, title, references in (
        ("fig2a", "double", levels.fci_double_population, cisd,
         "Double-excitation population per H2",
         (Series("FCI", "fci_double", "line", "#000000"),
          Series("CISD", "cisd_double", "line", "#9467bd"))),
        ("fig2b", "single", 0.0, dict.fromkeys(curve_ns, 0.0),
         "Single-excitation population per H2",
         (Series("FCI = CISD = 0", "fci_single", "line", "#000000"),)),
    ):
        stats = {n: mean_sd(getattr(samples, f"p_{column}")) for n, samples in by_n.items()}
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
        files |= _figure(name, rows, Figure(title, "subsystems N", "population", "n_subsystems",
                                            (Series("measured", f"measured_mean_{column}"), *references)))

    energies = {n: samples.energy_per_h2 for n, samples in by_n.items()}
    errors, hf_gap = error_stats(energies, e_fci=levels.fci_energy, e_hf=levels.e_hf)
    fig3 = [
        {
            "n_subsystems": n,
            "mean_error_kcal": repr(mean),
            "std_error_kcal": repr(sd),
            "hf_reference_kcal": repr(hf_gap),
            "fci_reference_kcal": repr(0.0),
        }
        for n, (mean, sd) in errors.items()
    ]
    files |= _figure("fig3", fig3, Figure(
        "Energy error per H2 vs system size", "subsystems N", "error (kcal/mol)", "n_subsystems",
        (Series("measured", "mean_error_kcal"),
         Series("HF", "hf_reference_kcal", "line", "#d62728", dashed=True),
         Series("FCI", "fci_reference_kcal", "line", "#000000")),
    ))
    return files


# the largest N ``reference --n-max`` takes, a bound on outside input that
# covers the paper's horizon of 118 H2
REFERENCE_N_MAX = 256


def reference_table(bond_length: float, n_max: int) -> list[dict]:
    """Classical FCI/CISD/HF reference rows for N = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    levels = build_hamiltonians(bond_length).levels
    return [
        {
            "n_subsystems": cisd.n_subsystems,
            "hf_energy_per_h2": repr(levels.e_hf),
            "fci_energy_per_h2": repr(levels.fci_energy),
            "cisd_energy_per_h2": repr(cisd.energy / cisd.n_subsystems),
            "cisd_correlation_per_h2": repr(cisd.correlation_per_h2),
            "fci_double_population": repr(levels.fci_double_population),
            "cisd_double_population": repr(cisd.double_population_per_h2),
        }
        for cisd in (cisd_reference(levels, n) for n in range(1, n_max + 1))
    ]
