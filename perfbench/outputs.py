"""Correctness checks on a run directory: byte identity and invariants.

``samples.csv`` and ``summary.csv`` must match the sha256 recorded for the
workload and master seed. A record also keeps a 16-bit digest of every
``samples.csv`` row, a digest of every column, and the whole (one-row)
``summary.csv``, so a mismatch names the first differing row and column
without storing the expected file.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import io
import math
from pathlib import Path

GATED = ("samples.csv", "summary.csv")
_PROBABILITIES = ("p_hf", "p_single", "p_double", "p_number_violating")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _row_digests(rows: list[list[str]]) -> bytes:
    return b"".join(hashlib.sha256(",".join(r).encode()).digest()[:2] for r in rows)


def _column_digests(rows: list[list[str]]) -> dict[str, str]:
    header, body = rows[0], rows[1:]
    return {
        name: hashlib.sha256("\n".join(r[i] for r in body).encode()).hexdigest()[:16]
        for i, name in enumerate(header)
    }


def make_record(run_dir: Path) -> dict:
    """What the gate stores for one run directory."""
    samples = (run_dir / "samples.csv").read_text()
    rows = _rows(samples)
    return {
        "samples.csv": {
            "sha256": hashlib.sha256(samples.encode()).hexdigest(),
            "rows": base64.b64encode(_row_digests(rows)).decode(),
            "columns": _column_digests(rows),
        },
        "summary.csv": {
            "sha256": sha256(run_dir / "summary.csv"),
            "text": (run_dir / "summary.csv").read_text(),
        },
    }


def first_difference(run_dir: Path, record: dict, name: str) -> str:
    """Human-readable location of the first change against the record; row 0
    is the header."""
    rows = _rows((run_dir / name).read_text())
    if name == "summary.csv":
        expected = _rows(record[name]["text"])
        for r, (got, want) in enumerate(zip(rows, expected)):
            for c, (g, w) in enumerate(zip(got, want)):
                if g != w:
                    return f"row {r} column {expected[0][c]!r}: {g!r} != recorded {w!r}"
            if len(got) != len(want):
                return f"row {r}: {len(got)} fields != recorded {len(want)}"
        return f"{len(rows)} rows != recorded {len(expected)}"
    want = base64.b64decode(record[name]["rows"])
    got = _row_digests(rows)
    row = next(
        (i for i in range(min(len(got), len(want)) // 2) if got[2 * i:2 * i + 2] != want[2 * i:2 * i + 2]),
        None,
    )
    columns = [
        c for c, d in _column_digests(rows).items() if record[name]["columns"].get(c) != d
    ]
    if row is None:
        where = (f"{len(rows)} rows != recorded {len(want) // 2}" if len(got) != len(want)
                 else "every row parses equal (line endings or quoting changed)")
    else:
        where = f"first differing row {row}"
        if row > 0:
            where += f" ({dict(zip(rows[0], rows[row]))})"
    return f"{where}; differing columns {columns}"


def invariant_errors(run_dir: Path, config: dict) -> list[str]:
    """Checks that hold for any seed: row counts, probabilities, finiteness."""
    errors = []
    rep = config["representation"]
    counts = config["subsystem_counts"]
    sampling = config["sampling"]
    with open(run_dir / "samples.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if sampling["mode"] == "selective":
        expected = sum(sampling["k"] * (16 // (n * rep)) * n for n in counts)
    else:
        expected = sum(sampling["s"] * n for n in counts)
    if len(rows) != expected:
        errors.append(f"samples.csv has {len(rows)} rows, expected {expected}")
    for i, row in enumerate(rows):
        probs = [float(row[p]) for p in _PROBABILITIES]
        if any(not 0.0 <= p <= 1.0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            errors.append(f"samples.csv row {i + 1}: populations {probs} are not a distribution")
            break
        if not all(math.isfinite(float(row[k])) for k in (
                "energy_hartree", "energy_kcal_mol", "energy_shot_stderr_hartree")):
            errors.append(f"samples.csv row {i + 1}: non-finite energy")
            break
        if not 0 <= int(row["subsystem"]) < int(row["n_subsystems"]):
            errors.append(f"samples.csv row {i + 1}: subsystem index out of range")
            break
    with open(run_dir / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    if len(summary) != 1 or int(summary[0]["n_points"]) != len(counts):
        errors.append(f"summary.csv does not hold one fit over {len(counts)} points")
    elif not math.isfinite(float(summary[0]["delta_kcal_per_qubit"])):
        errors.append("summary.csv slope is not finite")
    return errors


def bytes_written(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
