"""Experiment configuration: the JSON schema, its types and its ranges.

``ExperimentConfig.from_json`` reads the config file that ``sizecon run``
takes, and ``from_dict`` the same document once parsed: ``analyze`` reads
the copy a run's manifest holds with it. Every key the file may hold has
one row in ``_SCHEMA`` under its JSON path: its type, its bounds and the
setting under which the program does not read it. An unknown key, a key
the chosen sampling mode or calibration source would ignore, a value of
the wrong type or one out of range raises a ``ConfigError`` that names the
path as the file spells it (``shots``, ``sampling.k``,
``calibration.file``); ``to_dict``, which the manifest records, leaves the
unread keys out.

``plan_shape`` is the one place the shape of a sampling plan is decided,
and ``rows`` sums the samples.csv rows those plans produce. Past
``MAX_ROWS`` a config is refused on the sampling key that sets its plans'
size, and past ``MAX_SHOT_ROWS`` shots times rows on ``shots``, both
before anything is allocated.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

from .hamiltonians import BLOCK_DETERMINANTS

# the most qubits one sample may take, and the size of the best-ranked pool
# that the selective and random procedures draw from
QUBIT_BUDGET = 16
DEFAULT_SHOTS = 100_000
DEFAULT_BOND_LENGTH = 0.7414   # angstrom, experimental equilibrium
# the largest synthetic device: its all-to-all pairs grow as the square of
# the qubits, and at 1024 qubits `sizecon calibration generate` takes about
# 0.4 s and 280 MB and writes a 52 MB file (2-vCPU AMD EPYC)
MAX_QUBITS = 1024
# a set or sample index is one 32-bit word of a work item's seed key
_MAX_INDEX = 2**32 - 1
# the most samples.csv rows a config may plan, N per work item summed over
# its plans. Memory grows with the rows (about 3.5 kB a row at width 4,
# where each row has seeds for five groups), so sampling.k and sampling.s
# alone cannot bound a run: at their ceiling the plan keys alone would
# need about 480 GB. At the budget, a 1-shot run of representation 4,
# N = 1 and s = 65536 takes about 5 s and 270 MB (2-vCPU Intel Xeon).
MAX_ROWS = 2**16
# the most shot-rows a config may plan, its shots times its samples.csv
# rows, which also bounds the shots: a run's time grows with both. The
# slowest shape measured is representation 4 at N = 4 (width 16) with the
# fewest shots the bound allows on MAX_ROWS rows, 16384: about 0.63 M
# shot-rows/s on 1024 such rows, so a run at the bound takes about 30 min.
# Representations 2 and 1 at width 16 run 5.7-6.2 M and 12-14 M shot-rows/s
# at 1e6 shots (2-vCPU Intel Xeon). The canonical configs plan 19.2 M, 9.6 M
# and 3.6 M.
MAX_SHOT_ROWS = 2**30


class ConfigError(ValueError):
    """Invalid experiment configuration; names the offending field by its
    path in the JSON config (``sampling.k``, ``calibration.file``, ...)."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name
        self.reason = message


def _typed(value, field_name: str, kind: type | tuple, what: str = "an integer"):
    """``value`` if it is a ``kind`` (never a bool), else a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(field_name, f"must be {what}, got {value!r}")
    return value


# JSON path -> (config field, required type, what an error says it must be,
# least value, greatest value, the setting under which the program does not
# read the key). A file that holds a key with that setting is rejected, and
# ``to_dict`` leaves the key out.
_FILE = "calibration.file"
_SCHEMA = {
    "representation": ("representation", int, "an integer", None, None, None),
    "subsystem_counts": ("subsystem_counts", list, "a list of integers", None, None, None),
    "output_dir": ("output_dir", str, "a string", None, None, None),
    "shots": ("shots", int, "an integer", 1, None, None),
    "master_seed": ("master_seed", int, "an integer", 0, None, None),
    "bond_length": ("bond_length", (int, float), "a number", None, None, None),
    "sampling.mode": ("sampling_mode", str, "a string", None, None, None),
    "sampling.k": ("k_sets", int, "an integer", 1, _MAX_INDEX, "sampling mode 'random'"),
    "sampling.s": ("s_repetitions", int, "an integer", 1, _MAX_INDEX, "sampling mode 'selective'"),
    "calibration.file": ("calibration_file", str, "a string", None, None, None),
    "calibration.synthetic_seed": ("calibration_seed", int, "an integer", 0, None, _FILE),
    "calibration.n_qubits": (
        "calibration_qubits", int, "an integer", QUBIT_BUDGET, MAX_QUBITS, _FILE),
}


def _settings(mode, has_file: bool) -> set[str]:
    """A config's settings, as the last column of ``_SCHEMA`` names them."""
    return {f"sampling mode {mode!r}"} | ({_FILE} if has_file else set())


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
        if self.representation not in BLOCK_DETERMINANTS:
            raise ConfigError("representation", f"must be 1, 2 or 4, got {self.representation}")
        if not self.subsystem_counts:
            raise ConfigError("subsystem_counts", "must not be empty")
        if len(set(self.subsystem_counts)) != len(self.subsystem_counts):
            raise ConfigError(
                "subsystem_counts", f"lists an N more than once: {list(self.subsystem_counts)}"
            )
        for n in self.subsystem_counts:
            if n < 1:
                raise ConfigError("subsystem_counts", f"counts must be >= 1, got {n}")
            if n * self.representation > QUBIT_BUDGET:
                raise ConfigError(
                    "subsystem_counts",
                    f"N={n} needs {n * self.representation} qubits, over the "
                    f"{QUBIT_BUDGET}-qubit budget",
                )
        if not self.output_dir:
            raise ConfigError("output_dir", "must not be empty")
        if self.sampling_mode not in ("selective", "random"):
            raise ConfigError("sampling.mode", f"unknown mode {self.sampling_mode!r}")
        settings = _settings(self.sampling_mode, self.calibration_file is not None)
        for path, (name, _, _, low, high, unread_with) in _SCHEMA.items():
            value = getattr(self, name)
            if unread_with in settings:
                continue
            if low is not None and value < low:
                raise ConfigError(path, f"must be >= {low}, got {value}")
            if high is not None and value > high:
                raise ConfigError(path, f"must be <= {high}, got {value}")
        if self.sampling_mode == "selective":
            for n in self.subsystem_counts:
                if QUBIT_BUDGET % (n * self.representation) != 0:
                    raise ConfigError(
                        "subsystem_counts",
                        f"N={n} x width {self.representation} does not divide the "
                        f"{QUBIT_BUDGET}-qubit pool; use random sampling",
                    )
        rows = self.rows
        if rows > MAX_ROWS:
            raise ConfigError(
                "sampling.k" if self.sampling_mode == "selective" else "sampling.s",
                f"plans {rows} samples.csv rows, over the {MAX_ROWS}-row budget",
            )
        if rows * self.shots > MAX_SHOT_ROWS:
            raise ConfigError(
                "shots", f"plans {rows * self.shots} shot-rows ({self.shots} shots on each of "
                f"{rows} samples.csv rows), over the {MAX_SHOT_ROWS} shot-row budget",
            )
        # false for NaN, and exact for an integer past the float range
        if not 0 < self.bond_length <= sys.float_info.max:
            raise ConfigError(
                "bond_length", f"must be positive and finite, got {self.bond_length}"
            )

    def plan_shape(self, n: int) -> tuple[int, int]:
        """The (sets, samples per set) of the plan drawn at ``n`` subsystems:
        k sets of ``16 / (n * width)`` samples in selective mode, one set of
        s samples in random mode. Each sample is one work item of n rows."""
        if self.sampling_mode == "selective":
            return self.k_sets, QUBIT_BUDGET // (n * self.representation)
        return 1, self.s_repetitions

    @property
    def rows(self) -> int:
        """The samples.csv rows the config plans: N per work item."""
        return sum(n * math.prod(self.plan_shape(n)) for n in self.subsystem_counts)

    @property
    def run_id(self) -> str:
        return f"r{self.representation}q-s{self.master_seed}"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad JSON, a 4301-digit int, deep nesting
            raise ConfigError("document", f"not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: object) -> "ExperimentConfig":
        """The config a parsed JSON document holds, checked as ``from_json``
        checks the text."""
        if not isinstance(raw, dict):
            raise ConfigError("document", "top level must be an object")
        values = {}
        for key, value in raw.items():
            if key not in ("sampling", "calibration"):
                values[key] = value
            elif isinstance(value, dict):
                values.update((f"{key}.{k}", v) for k, v in value.items())
            else:
                raise ConfigError(key, "must be an object")
        unknown = sorted(set(values) - set(_SCHEMA))
        if unknown:
            raise ConfigError(unknown[0], "unknown field")
        settings = _settings(values.get("sampling.mode", "selective"), _FILE in values)
        for path in values:
            if _SCHEMA[path][-1] in settings:
                raise ConfigError(path, f"is not used with {_SCHEMA[path][-1]}")
        for required in ("representation", "subsystem_counts", "output_dir"):
            if required not in raw:
                raise ConfigError(required, "missing required field")

        kwargs = {
            _SCHEMA[path][0]: _typed(value, path, *_SCHEMA[path][1:3])
            for path, value in values.items()
        }
        kwargs["subsystem_counts"] = [
            _typed(n, "subsystem_counts", int) for n in kwargs["subsystem_counts"]
        ]
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError("document", str(exc)) from exc

    def to_dict(self) -> dict:
        """The config in the JSON layout ``from_json`` reads, holding every
        key the config's settings read and no other."""
        settings = _settings(self.sampling_mode, self.calibration_file is not None)
        out: dict = {}
        for path, (name, *_, unread_with) in _SCHEMA.items():
            value = getattr(self, name)
            if value is not None and unread_with not in settings:
                group, _, key = path.rpartition(".")
                (out.setdefault(group, {}) if group else out)[key] = value
        return out
