"""Reports on a finished run directory: the summary fit and the figures.

``analyze`` reads ``samples.csv`` and ``manifest.json`` and writes
``summary.csv`` (the WLS slope, its error and the chemical-accuracy
horizon) and the figures ``fig1``, ``fig2a``, ``fig2b`` and ``fig3``.

``load_samples`` reads ``samples.csv`` once, into columns. It sorts the
rows by (N, set, sample, subsystem), so their order in the file does not
matter, and checks that they are exactly the subsystems 0..N-1 of each
(N, set, sample) key the manifest's seeds name. Each N's rows then form a
``(samples, N)`` array per column, reduced along its rows into one value
per sample. A row of N contiguous values is summed in numpy's pairwise
order, as a 1-D array of the same values is, so the sums do not depend on
how many samples share the array.

Each figure is one table: a list of CSV rows plus the series it plots,
each naming its y column and the rows it takes. ``_write_figure`` writes
``<name>.csv`` from the rows and then ``<name>.svg`` with every point read
back from those same rows, so a plotted value cannot differ from its CSV.
"""

from __future__ import annotations

import csv
import json
import math
import re
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
from .hamiltonians import BLOCK_DETERMINANTS
from .svgplot import Figure, Series, write as write_svg
from .units import HARTREE_TO_KCAL_PER_MOL


@dataclass(frozen=True)
class SizeSamples:
    """The samples of one system size N in key order, each reduced over its
    N subsystem rows."""

    keys: np.ndarray                   # (samples, 3): N, set, sample
    energy_per_h2: np.ndarray          # hartree, the subsystems' mean
    shot_variance_per_h2: np.ndarray   # hartree^2, squared stderrs summed / N^2
    p_single: np.ndarray
    p_double: np.ndarray


_KEY_COLUMNS = ("n_subsystems", "set_index", "sample_index", "subsystem")
# the columns SizeSamples reduces, in its field order
_VALUE_COLUMNS = ("energy_hartree", "energy_shot_stderr_hartree", "p_single", "p_double")
_SEED_KEY = re.compile(r"^N(\d+)/set(\d+)/sample(\d+)/group\d+$", re.MULTILINE)


def _numbers(path: Path, name: str, cells: tuple[str, ...], kind: type) -> np.ndarray:
    """Column ``name`` as ``kind``; a cell that is not one, or not finite,
    raises a ValueError naming its row (data rows count from 1) and the
    column."""
    try:
        numbers = np.array(cells, dtype=kind)
    except (ValueError, OverflowError):
        for row, cell in enumerate(cells, 1):
            try:
                np.array(cell, dtype=kind)
            except (ValueError, OverflowError):
                what = "a 64-bit integer" if kind is np.int64 else "a number"
                raise ValueError(f"{path} row {row}, column {name}: {cell!r} is not {what}") from None
        raise
    bad = np.flatnonzero(~np.isfinite(numbers))
    if bad.size:
        row = int(bad[0]) + 1
        raise ValueError(
            f"{path} row {row}, column {name}: {cells[row - 1]!r} is not a finite number"
        )
    return numbers


def load_samples(run_dir: Path, keys: list[tuple[int, int, int]]) -> dict[int, SizeSamples]:
    """The run's samples by N, in ascending N. ``keys`` are the manifest's
    sorted (N, set, sample) keys. A file that lacks a column it reads, holds
    a cell that is not a finite number, or whose rows are not each key's subsystems
    0..N-1 and no other raises a ValueError."""
    path = run_dir / SAMPLES_CSV
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for column in _KEY_COLUMNS + _VALUE_COLUMNS:
            if column not in header:
                raise ValueError(f"{path} has no column {column}")
        rows = list(reader)
    sizes = np.array([key[0] for key in keys], dtype=np.int64)
    if len(rows) != sizes.sum():
        raise ValueError(
            f"{path} has {len(rows)} subsystem rows; its manifest expects {sizes.sum()}"
        )
    if not rows:
        raise ValueError(f"{path} holds no samples")
    if set(map(len, rows)) != {len(header)}:
        row = next(i for i, cells in enumerate(rows, 1) if len(cells) != len(header))
        raise ValueError(f"{path} row {row} has {len(rows[row - 1])} cells, not {len(header)}")
    cells = dict(zip(header, zip(*rows)))
    found = np.column_stack([_numbers(path, name, cells[name], np.int64) for name in _KEY_COLUMNS])
    order = np.lexsort(found.T[::-1])
    found = found[order]
    expected = np.column_stack([
        np.repeat(np.array(keys, dtype=np.int64), sizes, axis=0),
        np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes),
    ])
    if not np.array_equal(found, expected):
        # the rows agree up to the first that differs, and the lesser of the
        # two there belongs to a group whose subsystem rows differ
        first = np.flatnonzero((found != expected).any(axis=1))[0]
        group = min(found[first].tolist(), expected[first].tolist())[:3]
        held, listed = (t[(t[:, :3] == group).all(axis=1), 3].tolist() for t in (found, expected))
        raise ValueError(
            f"{path} holds subsystem rows {held} for N{group[0]}/set{group[1]}/"
            f"sample{group[2]}; its manifest expects {listed or 'none'}"
        )
    # each N's rows are one contiguous run of every sorted column, so each
    # (samples, N) block sums its rows in numpy's pairwise order
    values = [_numbers(path, name, cells[name], float)[order] for name in _VALUE_COLUMNS]
    # a sample's values are means over its N subsystems, but its shot
    # variance is its squared stderrs summed over N^2
    values[1] **= 2
    by_n = {}
    for n in np.unique(sizes).tolist():
        lo, hi = np.searchsorted(found[:, 0], (n, n + 1))
        sums = [column[lo:hi].reshape(-1, n).sum(axis=1) for column in values]
        reduced = (total / n**power for total, power in zip(sums, (1, 2, 1, 1)))
        by_n[n] = SizeSamples(found[lo:hi:n, :3], *reduced)
    return by_n


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
        taken = [r for r in rows if r[p.y] != "" and (p.only is None or r[p.only[0]] == p.only[1])]
        if taken:
            xs, ys = [float(r[x]) for r in taken], [float(r[p.y]) for r in taken]
            figure.series.append(Series(p.label, xs, ys, p.kind, p.color, p.dashed))
    write_svg(figure, run_dir / f"{name}.svg")


# what analyze requires of a manifest value, by the words a fault uses for it
_MANIFEST_VALUES = {
    "1, 2 or 4": lambda value: type(value) is int and value in BLOCK_DETERMINANTS,
    "a finite number": lambda value: type(value) in (int, float) and math.isfinite(value),
    "an object": lambda value: type(value) is dict,
}


def _manifest_field(manifest: object, path: str, run_dir: Path, what: str):
    """The manifest's value at the dotted ``path``, which must be ``what``
    (a key of ``_MANIFEST_VALUES``; a bool is not a number); a missing key
    or another value raises a ValueError that names the key."""
    value = manifest
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"{run_dir}/{MANIFEST_JSON} has no key {path}")
        value = value[key]
    if not _MANIFEST_VALUES[what](value):
        shown = {list: "an array", dict: "an object"}.get(type(value)) or json.dumps(value)
        raise ValueError(f"{run_dir}/{MANIFEST_JSON} key {path} must be {what}, not {shown}")
    return value


def analyze(run_dir: str | Path) -> Path:
    """Produce summary and figure outputs for a finished run directory."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST_JSON
    if not manifest_path.exists():
        raise FileNotFoundError(f"{run_dir} has no {MANIFEST_JSON}; not a run directory")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
        raise ValueError(f"{manifest_path} is not valid JSON: {exc}") from None
    representation = _manifest_field(manifest, "config.representation", run_dir, "1, 2 or 4")
    levels = SubsystemLevels(*(
        _manifest_field(manifest, f"reference.{key}", run_dir, "a finite number")
        for key in ("e_hf_sub", "e_double_sub", "coupling")
    ))
    # one seed per (N, set, sample, group) work item; a sample holds N rows
    seeds = _SEED_KEY.findall("\n".join(_manifest_field(manifest, "seeds", run_dir, "an object")))
    keys = sorted({tuple(map(int, key)) for key in set(seeds)})
    if keys and max(map(max, keys)) > np.iinfo(np.int64).max:
        n, s, i = max(keys, key=max)
        raise ValueError(f"{run_dir}/{MANIFEST_JSON} key seeds names N{n}/set{s}/sample{i}, "
                         "an index past a 64-bit integer")
    by_n = load_samples(run_dir, keys)

    # Regression points: x = total qubits, y = mean energy per H2 (kcal/mol),
    # weight from the across-sample variance with a shot-noise floor.
    points = []
    for n, samples in by_n.items():
        mean, std = mean_sd(samples.energy_per_h2 * HARTREE_TO_KCAL_PER_MOL)
        shot_variance = float(samples.shot_variance_per_h2.mean())
        shot_floor = math.sqrt(shot_variance) * HARTREE_TO_KCAL_PER_MOL
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
            "n_subsystems": n,
            "total_qubits": n * representation,
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
        Plotted(f"{representation}-qubit samples", "energy_per_h2_kcal", only=("kind", "sample")),
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

    pairs = [(n, e) for n, samples in by_n.items() for e in samples.energy_per_h2.tolist()]
    errors, hf_gap = error_stats(pairs, e_fci=levels.fci_energy, e_hf=levels.e_hf)
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
