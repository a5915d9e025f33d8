"""Reports on a finished run directory: the summary fit and the figures.

``analyze`` reads the run's manifest and samples through
:mod:`sizecon.rundir` and writes the summary (the WLS slope, its error and
the chemical-accuracy horizon) and the figures ``fig1``, ``fig2a``,
``fig2b`` and ``fig3``. The manifest's ``config`` is read as
``ExperimentConfig`` reads a config file; it gives the representation and
the rows ``rundir.load_samples`` expects.

Each figure is one table: a list of CSV rows plus the series it plots,
each naming its y column and the rows it takes. ``_write_figure`` writes
``<name>.csv`` from the rows and then ``<name>.svg`` with every point read
back from those same rows, so a plotted value cannot differ from its CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .analysis import SubsystemLevels, cisd_reference, error_stats, horizon, mean_sd, wls_fit
from .config import ConfigError, ExperimentConfig
from .hamiltonians import build_hamiltonians
from .rundir import MANIFEST_JSON, SUMMARY_CSV, load_samples, manifest_field, read_manifest, write_csv
from .svgplot import Figure, Series, write as write_svg
from .units import HARTREE_TO_KCAL_PER_MOL


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
    write_csv(run_dir / f"{name}.csv", rows)
    for p in plotted:
        taken = [r for r in rows if r[p.y] != "" and (p.only is None or r[p.only[0]] == p.only[1])]
        if taken:
            xs, ys = [float(r[x]) for r in taken], [float(r[p.y]) for r in taken]
            figure.series.append(Series(p.label, xs, ys, p.kind, p.color, p.dashed))
    write_svg(figure, run_dir / f"{name}.svg")


def analyze(run_dir: str | Path) -> Path:
    """Produce summary and figure outputs for a finished run directory."""
    run_dir = Path(run_dir)
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
    # undetermined: those fields stay empty, the intercept is the mean energy
    # per H2 at that size, and fig1 has no fit line.
    fit = wls_fit(points) if len(points) >= 2 else None
    hz = horizon(fit.slope, config.representation) if fit is not None else None
    write_csv(
        run_dir / SUMMARY_CSV,
        [
            {
                "representation": config.representation,
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
        Plotted(f"{config.representation}-qubit samples", "energy_per_h2_kcal", only=("kind", "sample")),
        Plotted("WLS", "energy_per_h2_kcal", "line", "#888888", dashed=True, only=("kind", "fit")),
    )

    curve_ns = range(1, max(by_n) + 1)
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
        _write_figure(
            run_dir, name, rows, "n_subsystems",
            Figure(title, "subsystems N", "population"),
            Plotted("measured", f"measured_mean_{column}"), *references,
        )

    energies = {n: samples.energy_per_h2 for n, samples in by_n.items()}
    errors, hf_gap = error_stats(energies, e_fci=levels.fci_energy, e_hf=levels.e_hf)
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
