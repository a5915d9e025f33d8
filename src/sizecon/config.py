"""Experiment configuration: the JSON schema, its types and its ranges.

``ExperimentConfig.from_json`` reads the config file that ``sizecon run``
takes. Every key the file may hold is listed once in ``_SCHEMA`` under its
JSON path; an unknown key, a key the chosen sampling mode or calibration
source would ignore, a value of the wrong type or one out of range raises a
``ConfigError`` that names the path as the file spells it (``shots``,
``sampling.k``, ``calibration.file``). The keys that one sampling mode or
calibration source does not read are listed once in ``_UNREAD_WITH``;
``to_dict``, which the manifest records, leaves the same keys out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .hamiltonians import BLOCK_DETERMINANTS

# the most qubits one sample may take, and the size of the best-ranked pool
# that the selective and random procedures draw from
QUBIT_BUDGET = 16
DEFAULT_SHOTS = 100_000
DEFAULT_BOND_LENGTH = 0.7414   # angstrom, experimental equilibrium


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


# JSON path -> (config field, required type, what an error says it must be)
_SCHEMA = {
    "representation": ("representation", int, "an integer"),
    "subsystem_counts": ("subsystem_counts", list, "a list of integers"),
    "output_dir": ("output_dir", str, "a string"),
    "shots": ("shots", int, "an integer"),
    "master_seed": ("master_seed", int, "an integer"),
    "bond_length": ("bond_length", (int, float), "a number"),
    "sampling.mode": ("sampling_mode", str, "a string"),
    "sampling.k": ("k_sets", int, "an integer"),
    "sampling.s": ("s_repetitions", int, "an integer"),
    "calibration.file": ("calibration_file", str, "a string"),
    "calibration.synthetic_seed": ("calibration_seed", int, "an integer"),
    "calibration.n_qubits": ("calibration_qubits", int, "an integer"),
}

# JSON path -> the setting under which the program does not read it. A file
# that holds such a key with that setting is rejected, and ``to_dict``
# leaves the key out.
_UNREAD_WITH = {
    "sampling.k": "sampling mode 'random'",
    "sampling.s": "sampling mode 'selective'",
    "calibration.synthetic_seed": "calibration.file",
    "calibration.n_qubits": "calibration.file",
}


def _settings(mode, has_file: bool) -> set[str]:
    """A config's settings, as ``_UNREAD_WITH`` names them."""
    return {f"sampling mode {mode!r}"} | ({"calibration.file"} if has_file else set())


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
        if self.shots < 1:
            raise ConfigError("shots", f"must be >= 1, got {self.shots}")
        if self.sampling_mode not in ("selective", "random"):
            raise ConfigError("sampling.mode", f"unknown mode {self.sampling_mode!r}")
        if self.sampling_mode == "selective":
            if self.k_sets < 1:
                raise ConfigError("sampling.k", "must be >= 1")
            # a set or sample index is one 32-bit word of a seed key; no
            # run with 2**32 sets or samples fits in memory anyway
            if self.k_sets >= 2**32:
                raise ConfigError("sampling.k", f"must be < 2**32, got {self.k_sets}")
            for n in self.subsystem_counts:
                if QUBIT_BUDGET % (n * self.representation) != 0:
                    raise ConfigError(
                        "subsystem_counts",
                        f"N={n} x width {self.representation} does not divide the "
                        f"{QUBIT_BUDGET}-qubit pool; use random sampling",
                    )
        elif self.s_repetitions < 1:
            raise ConfigError("sampling.s", "must be >= 1")
        elif self.s_repetitions >= 2**32:
            raise ConfigError("sampling.s", f"must be < 2**32, got {self.s_repetitions}")
        try:
            finite = math.isfinite(self.bond_length)
        except OverflowError:  # an integer past the float range
            finite = False
        if not (finite and self.bond_length > 0):
            raise ConfigError(
                "bond_length", f"must be positive and finite, got {self.bond_length}"
            )
        if self.calibration_file is None and self.calibration_qubits < QUBIT_BUDGET:
            raise ConfigError(
                "calibration.n_qubits", f"need at least {QUBIT_BUDGET} qubits"
            )
        for path, seed in (("master_seed", self.master_seed),
                           ("calibration.synthetic_seed", self.calibration_seed)):
            if seed < 0:
                raise ConfigError(path, f"must be >= 0, got {seed}")

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
        settings = _settings(values.get("sampling.mode", "selective"), "calibration.file" in values)
        for path, setting in _UNREAD_WITH.items():
            if setting in settings and path in values:
                raise ConfigError(path, f"is not used with {setting}")
        for required in ("representation", "subsystem_counts", "output_dir"):
            if required not in raw:
                raise ConfigError(required, "missing required field")

        kwargs = {
            _SCHEMA[path][0]: _typed(value, path, *_SCHEMA[path][1:])
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
        for path, (name, _, _) in _SCHEMA.items():
            value = getattr(self, name)
            if value is not None and _UNREAD_WITH.get(path) not in settings:
                group, _, key = path.rpartition(".")
                (out.setdefault(group, {}) if group else out)[key] = value
        return out
