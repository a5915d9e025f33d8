"""The run-directory format: its thirteen files, their one writer and their readers.

``run`` writes four files with ``write_run``: ``samples.csv``,
``populations.csv``, ``calibration.json`` and ``manifest.json``. ``analyze``
reads the manifest and ``samples.csv`` back and adds the report, the nine
``REPORT_FILES`` that :mod:`sizecon.report` builds: ``summary.csv``, and a
CSV table and an SVG for each of ``fig1``, ``fig2a``, ``fig2b`` and ``fig3``.

Both commands build every file in memory before any is written, and
``write_files`` is the one place that writes or removes a file of the
directory. ``write_run`` first removes an earlier run's report, which
describes other samples, and writes ``manifest.json`` last. There are no
temp files or renames: a run whose write fails partway leaves no
manifest, or an earlier one whose ``samples_sha256`` refuses any
``samples.csv`` but its own.

``samples.csv`` holds one row per subsystem of every work item, in
(N, set, sample, subsystem) order, with N in the config's order and each
N's (set, sample) rows as ``sampling.plan_keys`` gives them: the six key
cells, then seven values. Of each N's value columns, ``format_floats``
calls ``repr`` once per distinct value, and the rows go out as joined
lines, the six key cells as one prefix per row. ``populations.csv`` is a
column subset of the same rows. No cell the package writes needs CSV
quoting, so every table is ``str`` cells joined by commas with LF line
ends: ``table_text`` takes the run tables' rows already joined, and
``csv_text`` joins the report's rows for it.

The manifest echoes the config (``ExperimentConfig.to_dict``), the SHA-256
of ``calibration.json`` and of ``samples.csv``, the reference energies and
every derived seed; the seeds are provenance, and ``analyze`` reads none.
``manifest_field`` reads one key, and names it when it is missing or not a
finite number.

``load_samples`` reads only the file ``run`` wrote. It checks the file's
SHA-256 against the manifest's ``samples_sha256`` before anything else, so
any edit is refused as a whole. A manifest whose digest was edited to
match is outside input still, so the file must then be what ``run``
writes: printable ASCII without ``"``, in nonblank lines that each end in
LF, under exactly ``SAMPLES_HEADER``. This also keeps numpy's C reader from
text it misreads: it ends a number at a NUL, takes ``\\x1c``-``\\x1f`` for
spaces, and has crashed on an integer cell that starts with some
characters past U+FFFF. The row count is checked against the config
before any key array is built. One ``np.loadtxt`` parses the eight columns
``analyze`` uses, four int64 keys and four float64 values; a cell or a row
it rejects is named by its line in the file, the header being line 1.
Every line must then hold the header's 13 cells; one count of the file's
commas checks that, and only a failing file is walked for the line to name.
The values must be finite, and the keys must be exactly the rows the
manifest's config implies, in the order ``run`` writes them. Each N's rows then form a
``(samples, N)`` array per column, reduced along its rows into one value
per sample. A row of N contiguous values is summed in numpy's pairwise
order, as a 1-D array of the same values is, so the sums do not depend on
how many samples share the array.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .analysis import SubsystemLevels
from .config import ExperimentConfig
from .sampling import plan_keys

SAMPLES_CSV = "samples.csv"
POPULATIONS_CSV = "populations.csv"
MANIFEST_JSON = "manifest.json"
CALIBRATION_JSON = "calibration.json"
SUMMARY_CSV = "summary.csv"
# the files analyze writes: the summary, then each figure's table and SVG
REPORT_FILES = (SUMMARY_CSV, *(f"fig{f}.{ext}" for f in ("1", "2a", "2b", "3") for ext in ("csv", "svg")))
SAMPLES_HEADER = (
    "run_id", "representation", "n_subsystems", "set_index", "sample_index", "subsystem",
    "energy_hartree", "energy_kcal_mol", "energy_shot_stderr_hartree",
    "p_hf", "p_single", "p_double", "p_number_violating",
)
# the populations view is every samples.csv column but the energies
POPULATIONS_HEADER = tuple(name for name in SAMPLES_HEADER if not name.startswith("energy_"))
KEY_COLUMNS = ("n_subsystems", "set_index", "sample_index", "subsystem")
# the columns SizeSamples reduces, in its field order
VALUE_COLUMNS = ("energy_hartree", "energy_shot_stderr_hartree", "p_single", "p_double")
TABLE = np.dtype([(name, np.int64) for name in KEY_COLUMNS] + [(name, float) for name in VALUE_COLUMNS])
# the row numpy's loadtxt names in a message: the last " at row <number>",
# after any cell text it quotes
_ROW = re.compile(r"(.*) at row (\d+)", re.S)
# the bytes a run table holds: printable ASCII but the quote, and LF
_TEXT = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n"


def table_text(header: Sequence[str], lines: list[str]) -> str:
    """A header line of ``header`` joined by commas, then ``lines``, the
    rows already joined, each ending in LF. An empty table is refused."""
    if not lines:
        raise ValueError("refusing to write an empty table")
    return "\n".join([",".join(header), *lines, ""])


def csv_text(rows: list[dict]) -> str:
    """``table_text`` of the first row's keys and each row's ``str`` cells.
    Every cell the package writes is an int, a float ``repr``, a bool,
    ``""`` or a fixed label, and none needs CSV quoting."""
    lines = [",".join(map(str, row.values())) for row in rows]
    return table_text(rows[0] if lines else (), lines)


def write_files(directory: Path, files: dict[str, bytes], remove: Sequence[str] = ()) -> None:
    """Make ``directory`` if it is missing, remove the files ``remove`` names
    there, then write each of ``files``, name to bytes, in its order."""
    directory.mkdir(parents=True, exist_ok=True)
    for name in remove:
        (directory / name).unlink(missing_ok=True)
    for name, data in files.items():
        (directory / name).write_bytes(data)


def format_floats(values: np.ndarray) -> list[str]:
    """``list(map(repr, values.ravel().tolist()))`` of a float64 array, with
    ``repr`` called once per distinct bit pattern: the run's value columns
    repeat most of their values. Bit patterns, not float equality, keep
    -0.0, 0.0 and each NaN apart."""
    bits = np.asarray(values, dtype=np.float64).ravel().view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def write_run(config: ExperimentConfig, tables: list[tuple[int, list, tuple]], calibration_json: str,
              levels: SubsystemLevels, seeds: dict[str, int]) -> Path:
    """Write the run's four files to ``config.output_dir``, made if it is
    missing, after removing any report of an earlier run there; the
    manifest is written last. ``tables`` holds, for each N in the config's
    order, N, its ``(set, sample)`` keys and the seven float value columns
    of ``SAMPLES_HEADER`` in order, one ``(items, N)`` array each. Returns
    the directory."""
    samples, populations = [], []
    for n, items, columns in tables:
        texts = [format_floats(column) for column in columns]
        head = f"{config.run_id},{config.representation},{n},"
        prefixes = [f"{head}{s},{i},{sub}" for s, i in items for sub in range(n)]
        samples += map(",".join, zip(prefixes, *texts))
        populations += map(",".join, zip(prefixes, *texts[3:]))
    files = {SAMPLES_CSV: table_text(SAMPLES_HEADER, samples).encode(),
             POPULATIONS_CSV: table_text(POPULATIONS_HEADER, populations).encode(),
             CALIBRATION_JSON: calibration_json.encode()}
    manifest = {
        "run_id": config.run_id,
        "package": f"sizecon {__version__}",
        "config": config.to_dict(),
        "calibration_sha256": hashlib.sha256(files[CALIBRATION_JSON]).hexdigest(),
        "samples_sha256": hashlib.sha256(files[SAMPLES_CSV]).hexdigest(),
        "reference": {
            "e_hf_sub": levels.e_hf,
            "e_double_sub": levels.e_double,
            "coupling": levels.coupling,
            "e_fci_sub": levels.fci_energy,
            "fci_double_population": levels.fci_double_population,
        },
        "seeds": seeds,
    }
    files[MANIFEST_JSON] = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    out = Path(config.output_dir)
    # an earlier run's report describes other samples: it goes before the
    # new files are written
    write_files(out, files, remove=REPORT_FILES)
    return out


def read_manifest(run_dir: Path) -> object:
    """The parsed manifest of ``run_dir``; a directory without one raises a
    FileNotFoundError, and a manifest that is not JSON a ValueError."""
    path = run_dir / MANIFEST_JSON
    if not path.exists():
        raise FileNotFoundError(f"{run_dir} has no {MANIFEST_JSON}; not a run directory")
    try:
        return json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # bad JSON, bytes not UTF-8, deep nesting
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def manifest_field(manifest: object, path: str, run_dir: Path, number: bool = True):
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


@dataclass(frozen=True)
class SizeSamples:
    """The samples of one system size N in key order, each reduced over its
    N subsystem rows."""

    keys: np.ndarray                   # (samples, 3): N, set, sample
    energy_per_h2: np.ndarray          # hartree, the subsystems' mean
    shot_variance_per_h2: np.ndarray   # hartree^2, squared stderrs summed / N^2
    p_single: np.ndarray
    p_double: np.ndarray


def load_samples(run_dir: Path, config: ExperimentConfig, sha256: str) -> dict[int, SizeSamples]:
    """The run's samples by N, in ascending N. A ``samples.csv`` whose
    SHA-256 is not ``sha256``, or that is not what ``run`` writes for
    ``config``, raises a ValueError that names the file."""
    path = run_dir / SAMPLES_CSV
    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() != sha256:
        raise ValueError(f"{path} does not match the samples_sha256 of its manifest")
    if data.translate(None, _TEXT) or b"\n\n" in data or not data.endswith(b"\n"):
        raise ValueError(f"{path} is not a table run writes: printable ASCII without '\"', "
                         "in nonblank lines that each end in LF")
    lines = data.decode().split("\n")[:-1]
    if lines[0] != ",".join(SAMPLES_HEADER):
        raise ValueError(f"{path} header is not {','.join(SAMPLES_HEADER)}")
    if len(lines) - 1 != config.rows:
        raise ValueError(f"{path} has {len(lines) - 1} subsystem rows; its manifest expects {config.rows}")
    try:
        table = np.loadtxt(lines[1:], TABLE, delimiter=",", comments=None, ndmin=1,
                           usecols=list(map(SAMPLES_HEADER.index, TABLE.names)))
    except ValueError as exc:
        # numpy counts the data rows from 0 for a cell it cannot convert and
        # from 1 for a short row; the header is line 1 of the file
        offset = 2 if str(exc).startswith("could not convert") else 1
        message = _ROW.sub(lambda found: f"{found[1]} at line {int(found[2]) + offset}", str(exc), count=1)
        raise ValueError(f"{path} does not parse: {message}") from None
    # the reader skips the columns analyze does not use, so a row that lost
    # or gained a cell past them is found by the commas of the whole file
    commas = len(SAMPLES_HEADER) - 1
    if data.count(b",") != commas * len(lines):
        line, text = next((i, t) for i, t in enumerate(lines, 1) if t.count(",") != commas)
        raise ValueError(f"{path} line {line} has {text.count(',') + 1} cells, not {commas + 1}")
    for name in VALUE_COLUMNS:
        if not np.isfinite(table[name]).all():
            raise ValueError(f"{path} column {name} holds a value that is not a finite number")
    found = np.column_stack([table[name] for name in KEY_COLUMNS])
    expected = np.concatenate([
        np.column_stack([np.full(n * len(keys), n), keys.repeat(n, axis=0), np.tile(range(n), len(keys))])
        for n, keys in ((n, plan_keys(config, n)) for n in config.subsystem_counts)
    ])
    if not np.array_equal(found, expected):
        # the lesser of the two rows that first differ belongs to a group
        # whose subsystem rows differ
        first = np.flatnonzero((found != expected).any(axis=1))[0]
        group = min(found[first].tolist(), expected[first].tolist())[:3]
        held, listed = (t[(t[:, :3] == group).all(axis=1), 3].tolist() for t in (found, expected))
        raise ValueError(f"{path} holds subsystem rows {held} for N{group[0]}/set{group[1]}/"
                         f"sample{group[2]}; its manifest expects {listed or 'none'}")
    # a sample's values are means over its N subsystems, but its shot
    # variance is its squared stderrs summed over N^2
    values = [table[name] for name in VALUE_COLUMNS]
    values[1] = values[1] ** 2
    by_n = {}
    for n in sorted(config.subsystem_counts):
        # each N's rows are contiguous, so each (samples, N) block sums its
        # rows in numpy's pairwise order
        at = found[:, 0] == n
        sums = [column[at].reshape(-1, n).sum(axis=1) for column in values]
        reduced = (total / n**power for total, power in zip(sums, (1, 2, 1, 1)))
        by_n[n] = SizeSamples(found[at][::n, :3], *reduced)
    return by_n
