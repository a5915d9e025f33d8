"""Reports on a finished run directory: the summary fit and the figures.

``analyze`` reads ``samples.csv`` and ``manifest.json`` and writes
``summary.csv`` (the WLS slope, its error and the chemical-accuracy
horizon) and the figures ``fig1``, ``fig2a``, ``fig2b`` and ``fig3``. The
manifest's ``config`` is read as ``ExperimentConfig`` reads a config file;
it gives the representation and, through ``sampling.plan_keys``, the
(N, set, sample) keys the rows must hold. The manifest's ``seeds`` are
provenance, and not read.

``load_samples`` reads ``samples.csv`` once, into columns. It checks the
header's column names, each row's cell count by the csv module's rules (a
quoted cell may hold a comma or a line break, and a blank or ``#`` line is
a row of 0 or 1 cells), and then the row count against the manifest.
numpy's C text reader parses the eight columns it uses in one call, four
int64 keys and four float64 values; a cell may hold what Python's ``int``
or ``float`` takes. When that reader rejects a cell, or reads a value that
is not finite, ``_numbers`` converts each column cell by cell and names the
first cell that fails. The messages are those of the csv-module reader this
replaced, in its order but for the cell counts, which it checked after the
row count. The rows are sorted by (N, set, sample, subsystem), so their
order in the file does not matter, and checked to be exactly the
subsystems 0..N-1 of each (N, set, sample) key the manifest's config implies.
Each N's rows then form a ``(samples, N)`` array per column, reduced along
its rows into one value per sample. A row of N contiguous values is summed
in numpy's pairwise order, as a 1-D array of the same values is, so the
sums do not depend on how many samples share the array.

Each figure is one table: a list of CSV rows plus the series it plots,
each naming its y column and the rows it takes. ``_write_figure`` writes
``<name>.csv`` from the rows and then ``<name>.svg`` with every point read
back from those same rows, so a plotted value cannot differ from its CSV.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import SubsystemLevels, cisd_reference, error_stats, horizon, mean_sd, wls_fit
from .config import ConfigError, ExperimentConfig
from .experiment import (
    MANIFEST_JSON,
    SAMPLES_CSV,
    SUMMARY_CSV,
    build_hamiltonians,
    write_csv,
)
from .sampling import plan_keys
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
_COLUMNS = _KEY_COLUMNS + _VALUE_COLUMNS
_TABLE = np.dtype([(name, np.int64 if name in _KEY_COLUMNS else float) for name in _COLUMNS])
# the csv module's dialect: a quoted cell may hold a comma or a line break,
# and no line is a comment
_CSV = dict(delimiter=",", comments=None, quotechar='"')


def _numbers(path: Path, name: str, cells: list[str]) -> np.ndarray:
    """Column ``name`` as its ``_TABLE`` type; a cell that is not one, or
    not finite, raises a ValueError naming its row (data rows count from 1)
    and the column."""
    kind = _TABLE[name].type
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
    finite = np.isfinite(numbers)
    if not finite.all():
        row = int(finite.argmin())
        raise ValueError(f"{path} row {row + 1}, column {name}: {cells[row]!r} is not a finite number")
    return numbers


def _columns(path: Path, lines: list[str], usecols: list[int]):
    """The ``_COLUMNS`` of ``lines`` in order, the keys as int64 and the
    values as finite floats. numpy's C reader parses them all at once; when
    it rejects a cell, or a value is not finite, ``_numbers`` walks each
    column as it is taken, takes every cell Python's ``int`` or ``float``
    takes, and names the first cell it does not."""
    # the C reader gets ASCII text only, and none with a NUL or \x1c-\x1f: it
    # ends a number at a NUL, takes \x1c-\x1f for spaces, and has crashed on
    # an integer cell that starts with some characters past U+FFFF, where
    # Python's int and float reject all three
    text = "".join(lines)
    if text.isascii() and not any(c in text for c in "\0\x1c\x1d\x1e\x1f"):
        with contextlib.suppress(ValueError):
            table = np.loadtxt(lines, _TABLE, usecols=usecols, ndmin=1, **_CSV)
            if all(np.isfinite(table[name]).all() for name in _VALUE_COLUMNS):
                yield from (table[name] for name in _COLUMNS)
                return
    # Python strings, where a numpy string would drop a trailing NUL
    cells = np.loadtxt(lines, object, usecols=usecols, ndmin=2, **_CSV)
    for j, name in enumerate(_COLUMNS):
        yield _numbers(path, name, cells[:, j].tolist())


def load_samples(run_dir: Path, keys: np.ndarray) -> dict[int, SizeSamples]:
    """The run's samples by N, in ascending N. ``keys`` are the run's sorted
    (N, set, sample) keys, an ``(items, 3)`` int64 array. A file that lacks
    a column it reads, has a row (a blank line included) of another cell
    count than its header, holds a cell that is not a finite number, or
    whose rows are not each key's subsystems 0..N-1 and no other, or that
    is not UTF-8, raises a ValueError."""
    path = run_dir / SAMPLES_CSV
    try:
        # read whole, so that a decode error counts its position from the
        # start of the file, not from the start of a read chunk
        fh = io.StringIO(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not valid UTF-8: {exc}") from None
    header = next(csv.reader(fh), [])
    for column in _COLUMNS:
        if column not in header:
            raise ValueError(f"{path} has no column {column}")
    lines = fh.readlines()
    # the cells of each csv row; a row is one line unless a quoted cell holds
    # a line break
    widths = (list(map(len, csv.reader(lines))) if any('"' in line for line in lines)
              else [line.count(",") + (line != "\n") for line in lines])
    if set(widths) - {len(header)}:
        row = next(i for i, width in enumerate(widths, 1) if width != len(header))
        raise ValueError(f"{path} row {row} has {widths[row - 1]} cells, not {len(header)}")
    sizes = keys[:, 0]
    if len(widths) != sizes.sum():
        raise ValueError(f"{path} has {len(widths)} subsystem rows; its manifest expects {sizes.sum()}")
    if not widths:
        raise ValueError(f"{path} holds no samples")
    # a name the header repeats is read from its last column
    columns = _columns(path, lines, list(map({c: i for i, c in enumerate(header)}.get, _COLUMNS)))
    found = np.column_stack([next(columns) for _ in _KEY_COLUMNS])
    order = np.lexsort(found.T[::-1])
    found = found[order]
    expected = np.column_stack([
        np.repeat(keys, sizes, axis=0),
        np.arange(len(widths)) - np.repeat(np.cumsum(sizes) - sizes, sizes),
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
    values = [column[order] for column in columns]
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
    write_csv(run_dir / f"{name}.csv", rows)
    for p in plotted:
        taken = [r for r in rows if r[p.y] != "" and (p.only is None or r[p.only[0]] == p.only[1])]
        if taken:
            xs, ys = [float(r[x]) for r in taken], [float(r[p.y]) for r in taken]
            figure.series.append(Series(p.label, xs, ys, p.kind, p.color, p.dashed))
    write_svg(figure, run_dir / f"{name}.svg")


def _manifest_field(manifest: object, path: str, run_dir: Path, number: bool = True):
    """The manifest's value at the dotted ``path``, which must be a finite
    number (a bool is not one) unless ``number`` is false; a missing key or
    another value raises a ValueError that names the key."""
    value = manifest
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"{run_dir}/{MANIFEST_JSON} has no key {path}")
        value = value[key]
    # false for NaN, and exact for an integer past the float range
    if number and not (type(value) in (int, float) and abs(value) <= sys.float_info.max):
        shown = {list: "an array", dict: "an object"}.get(type(value)) or json.dumps(value)
        raise ValueError(f"{run_dir}/{MANIFEST_JSON} key {path} must be a finite number, not {shown}")
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
    try:
        config = ExperimentConfig.from_dict(_manifest_field(manifest, "config", run_dir, number=False))
    except ConfigError as exc:
        path = "config" if exc.field_name == "document" else f"config.{exc.field_name}"
        raise ValueError(f"{run_dir}/{MANIFEST_JSON} key {path}: {exc.reason}") from None
    levels = SubsystemLevels(*(
        _manifest_field(manifest, f"reference.{key}", run_dir)
        for key in ("e_hf_sub", "e_double_sub", "coupling")
    ))
    # the rows of every sample the config plans; a sample holds N rows
    by_n = load_samples(run_dir, np.concatenate([
        np.insert(plan_keys(config, n), 0, n, axis=1) for n in sorted(config.subsystem_counts)
    ]))

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


# the largest N ``reference --n-max`` takes: the paper's horizon is 118 H2,
# and the CISD solve of every N up to n_max costs about n_max**4
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
