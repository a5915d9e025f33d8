"""The calibrated device: its arrays, its calibration file, the synthetic
device and the qubit ranking.

Arrays: ``DeviceModel`` holds its calibration as numpy columns, not one
object per qubit or pair: an ``(n, 3)`` float64 table of qubit rates
(readout_p10, readout_p01, single_qubit_error), an ``(m, 2)`` int64 array
of the listed pairs, each as (min, max) in the order given, and their
``(m,)`` float64 errors. ``TrajectoryEngine.sample`` reads every item's
gate and readout rates from them by fancy indexing, and ``pair_error``
looks pairs up by binary search over their sorted ``lo * n + hi`` keys, so
no array grows as the square of the qubits. Rates are validated on whole
columns; the first entry at fault, in the order given, is the one an error
names.

Calibration file: ``to_json`` writes the document ``json.dumps(payload,
indent=2)`` writes, pairs sorted; ``from_json`` reads one back. An entry
at fault raises a ``CalibrationError``, a ``ValueError`` whose message
starts ``calibration: `` and names the entry; text that is not JSON raises
what ``json.loads`` raises. ``read_calibration`` reads a file and tells
the two apart by type: the first goes out as it is, the second becomes a
``ConfigError`` that names the path. ``load_device`` is the run's device,
read from ``calibration.file`` or drawn from the synthetic generator; a
file must hold at least the ``QUBIT_BUDGET`` qubits of the sampling pool.

Synthetic device: ``synthetic_calibration`` draws a device whose rates
spread log-normally around fixed medians (module constants), in the order
p10, p01, one-qubit error, then every pair; a seed thus names one device.

Ranking: ``rank_qubits`` orders the device's qubits best first by the
composite score of ``qubit_scores``: mean readout error plus mean incident
two-qubit error, each weighted 1. The sampling plans draw from that order.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .config import QUBIT_BUDGET, ConfigError, ExperimentConfig

# a qubit's calibration keys: the columns of DeviceModel.qubits, in order
_QUBIT_KEYS = ("readout_p10", "readout_p01", "single_qubit_error")
_NUMBER = {int, float}  # the types of a rate in a calibration document; not bool
_KINDS = {"qubits": {list}, "two_qubit_error": {list}, "pair": {list}}  # else _NUMBER

# synthetic_calibration's medians, and the standard deviation of each rate's log
READOUT_MEDIAN = 1e-2
SINGLE_QUBIT_MEDIAN = 3e-4
TWO_QUBIT_MEDIAN = 3e-3
LOG_SPREAD = 0.75


class CalibrationError(ValueError):
    """A calibration document's entry at fault; the text itself parsed."""


class DeviceModel:
    """Calibrated device: per-qubit rates plus per-pair two-qubit rates, held
    as three read-only arrays:

    * ``qubits``, ``(n, 3)`` float64: one row per qubit, with the columns
      readout_p10 (P(read 1 | prepared 0)), readout_p01 (P(read 0 |
      prepared 1)) and single_qubit_error, in ``_QUBIT_KEYS`` order;
    * ``pairs``, ``(m, 2)`` int64: each listed pair as (min, max), in the
      order given;
    * ``pair_errors``, ``(m,)`` float64: each pair's two-qubit error.

    Unlisted pairs are noiseless. A pair may be given in either order, but
    only once; the constructor rejects the first entry at fault. Lookups go
    through the pairs' sorted ``lo * n + hi`` keys, so no array grows as the
    square of the qubits."""

    def __init__(self, qubits, pairs=(), pair_errors=()):
        rates = np.array(qubits, dtype=float).reshape(-1, 3)
        listed = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        errors = np.array(pair_errors, dtype=float).reshape(-1)
        fault = _first_fault(rates, listed, errors)
        if fault is not None:
            raise ValueError(fault[1])
        self.qubits, self.pair_errors, self.n_qubits = rates, errors, len(rates)
        self.pairs = np.column_stack([np.minimum(*listed.T), np.maximum(*listed.T)])
        keys = self.pairs @ np.array([self.n_qubits, 1])
        self._order = np.argsort(keys, kind="stable")  # the pairs by key
        # the sorted keys, closed by one past any key, and their errors
        self._keys = np.append(keys[self._order], np.iinfo(np.int64).max)
        self._key_errors = np.append(errors[self._order], 0.0)
        self.qubits.flags.writeable = self.pairs.flags.writeable = False
        self.pair_errors.flags.writeable = False

    def pair_error(self, a, b):
        """The two-qubit error of each pair (a, b), given in either order; 0
        where the pair is not listed. ``a`` and ``b`` may be arrays."""
        key = np.minimum(a, b) * self.n_qubits + np.maximum(a, b)
        at = np.searchsorted(self._keys, key)
        return np.where(self._keys[at] == key, self._key_errors[at], 0.0)

    @classmethod
    def noiseless(cls, n_qubits: int) -> "DeviceModel":
        return cls(np.zeros((n_qubits, 3)))

    def to_json(self) -> str:
        """The text of ``json.dumps(payload, indent=2) + "\\n"``, pairs
        sorted, laid out by hand through one template per list: ``indent``
        forces the pure-Python encoder, which takes several times longer on
        a 156-qubit device. A rate is written by ``repr``, as ``json``
        writes a float."""
        qubits = _json_list(
            '    {\n      "readout_p10": %r,\n      "readout_p01": %r,\n'
            '      "single_qubit_error": %r\n    }', *self.qubits.T.tolist()
        )
        two_qubit = _json_list(
            '    {\n      "pair": [\n        %d,\n        %d\n      ],\n      "error": %r\n    }',
            *self.pairs[self._order].T.tolist(), self.pair_errors[self._order].tolist(),
        )
        return '{\n  "qubits": %s,\n  "two_qubit_error": %s\n}\n' % (qubits, two_qubit)

    @classmethod
    def from_json(cls, text: str) -> "DeviceModel":
        """Parse ``to_json`` output. The entries are read in file order, up
        to the first one of the wrong shape or type; vectorised checks then
        find the first rate outside [0, 1] and the first pair that repeats
        a qubit, leaves the device or is listed twice (in either order).
        The first entry at fault, in file order, raises a
        ``CalibrationError`` that names it."""
        payload = json.loads(text)
        given, fault = _read_list(payload, "qubits", _QUBIT_KEYS)
        if fault is None:
            pair_columns, fault = _read_list(payload, "two_qubit_error", ("pair", "error"), [])
            given.update(pair_columns)
        rates = _array([given[key] for key in _QUBIT_KEYS], float).T
        pairs = _array(given.get("pair", []), np.int64).reshape(-1, 2)
        errors = _array(given.get("error", []), float)
        # a value fault comes before any type fault the read met
        fault = _first_fault(rates, pairs, errors, given) or fault
        if fault is not None:
            raise CalibrationError("calibration: " + "".join(fault))
        return cls(rates, pairs, errors)


# (key, what) of each value fault of a pair entry, in the order checked; a
# qubit's rate outside [0, 1] reads as the first
_PAIR_FAULTS = (("error", "= {} outside [0, 1]"), ("pair", "{} repeats a qubit or leaves the device"),
                ("pair", "{} is listed twice"))


def _first_fault(rates: np.ndarray, pairs: np.ndarray, errors: np.ndarray, given=None):
    """The first entry at fault, in file order, as ``(where, message)``, or
    None: a rate outside [0, 1], or a pair that repeats a qubit, leaves the
    device or is listed before. The message quotes the values ``given``,
    one list per key; by default the arrays' own."""
    outside = ~((rates >= 0.0) & (rates <= 1.0))  # NaN too
    if outside.any():
        index, column = divmod(int(np.argmax(outside)), 3)
        name, key, what = "qubits", _QUBIT_KEYS[column], _PAIR_FAULTS[0][1]
    else:
        n, lo, hi = len(rates), np.minimum(*pairs.T), np.maximum(*pairs.T)
        bad_index = (lo == hi) | (lo < 0) | (hi >= n)
        # a bad pair gets a key of its own, below every good key
        keys = np.where(bad_index, -1 - np.arange(len(pairs)), lo * n + hi)
        order = np.argsort(keys, kind="stable")
        twice = np.zeros(len(pairs), dtype=bool)
        twice[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        faults = np.stack([~((errors >= 0.0) & (errors <= 1.0)), bad_index, twice])
        if not faults.any():
            return None
        index = int(np.argmax(faults.any(axis=0)))
        name, (key, what) = "two_qubit_error", _PAIR_FAULTS[np.argmax(faults[:, index])]
    columns = (*rates.T.tolist(), pairs.tolist(), errors.tolist())
    given = given or dict(zip((*_QUBIT_KEYS, "pair", "error"), columns))
    return f"{name}[{index}].", f"{key} " + what.format(given[key][index])


def _array(values: list, dtype) -> np.ndarray:
    """``values`` as an array of ``dtype``. A number too large for it
    becomes -1, which every check rejects; messages quote ``values``."""
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        bound = np.frompyfunc(lambda v: -1 if abs(v) >= 2**62 else v, 1, 1)
        return bound(np.array(values, dtype=object)).astype(dtype)


def _json_list(template: str, *columns: list) -> str:
    """A list of objects laid out at depth 2 as ``indent=2`` writes it, the
    ``i``-th object being ``template`` filled from the ``i``-th value of
    each column."""
    rows = ",\n".join([template] * len(columns[0])) % tuple(chain.from_iterable(zip(*columns)))
    return "[\n" + rows + "\n  ]" if rows else "[]"


def _read_list(payload: object, name: str, keys: tuple, default=None) -> tuple:
    """``(columns, fault)``: for each key, the list of the values that the
    entries of list ``name`` hold, up to the first entry of the wrong shape
    or type, and that entry's fault as ``(where, message)``, or None. A
    well-formed list is read in one go; only a list with a fault is walked
    entry by entry."""
    try:
        entries, fault = _json_field(payload, name, default), None
    except ValueError as error:
        entries, fault = [], ("", str(error))
    try:
        columns = {key: [entry[key] for entry in entries] for key in keys}
        if all(map(_well_typed, keys, columns.values())):
            return columns, fault
    except (KeyError, TypeError):
        pass
    for index, entry in enumerate(entries):
        try:
            for key in keys:
                _json_field(entry, key)
        except ValueError as error:
            entries, fault = entries[:index], (f"{name}[{index}].", str(error))
            break
    return {key: [entry[key] for entry in entries] for key in keys}, fault


def _well_typed(key: str, column: list) -> bool:
    """Whether every value of a column has the type ``_json_field`` asks of
    ``key``. Only a JSON list of length 2 holds two ints: a string holds
    strings, and an object's keys are strings."""
    if key != "pair":
        return set(map(type, column)) <= _NUMBER
    return set(map(len, column)) <= {2} and set(map(type, chain.from_iterable(column))) <= {int}


def _json_field(entry: object, key: str, default=None):
    """``entry[key]`` of a calibration document, of the type ``key`` takes:
    a list for the two lists and a pair, which holds two ints, else a number
    (so a bool is not an int)."""
    value = entry.get(key, default) if type(entry) is dict else None
    if value is None:
        raise ValueError(f"{key} is missing")
    if type(value) not in _KINDS.get(key, _NUMBER):
        raise ValueError(f"{key} has the wrong type {type(value).__name__}")
    if key == "pair" and (len(value) != 2 or type(value[0]) is not int or type(value[1]) is not int):
        raise ValueError(f"pair is not two ints: {value}")
    return value


def read_calibration(path: str, field_name: str) -> DeviceModel:
    """The device a calibration file describes. A missing file, a path that
    is not a file (a directory, or the empty path), or bytes that are not
    UTF-8 JSON raise a ConfigError on ``field_name`` that names the path;
    an entry at fault raises ``from_json``'s CalibrationError."""
    if not (path and Path(path).is_file()):  # Path("") is the current directory
        missing = not Path(path).exists()
        raise ConfigError(field_name, f"no such file: {path}" if missing else f"{path!r} is not a file")
    try:
        return DeviceModel.from_json(Path(path).read_text())
    except UnicodeDecodeError as exc:
        raise ConfigError(field_name, f"{path} is not valid UTF-8: {exc}") from exc
    except CalibrationError:
        raise
    except (ValueError, RecursionError) as exc:  # bad JSON, a 4301-digit int, deep nesting
        raise ConfigError(field_name, f"{path} is not valid JSON: {exc}") from exc


def load_device(config: ExperimentConfig) -> DeviceModel:
    """The run's device. A calibration file must hold at least the
    ``QUBIT_BUDGET`` qubits that both sampling plans draw from, as
    ``calibration.n_qubits`` must; a smaller one raises a ConfigError on
    ``calibration.file``. ``read_calibration`` alone takes any size, so
    ``calibration rank`` ranks any file."""
    if config.calibration_file is None:
        return synthetic_calibration(n_qubits=config.calibration_qubits, seed=config.calibration_seed)
    device = read_calibration(config.calibration_file, "calibration.file")
    if device.n_qubits < QUBIT_BUDGET:
        raise ConfigError("calibration.file", f"{config.calibration_file} holds {device.n_qubits} "
                          f"qubits, fewer than the {QUBIT_BUDGET}-qubit pool")
    return device


def synthetic_calibration(n_qubits: int = 156, seed: int = 0) -> DeviceModel:
    """Heterogeneous per-qubit calibration, log-normally spread around medians.

    The medians (``READOUT_MEDIAN``, ``SINGLE_QUBIT_MEDIAN``,
    ``TWO_QUBIT_MEDIAN``) echo contemporary superconducting magnitudes, and
    every rate's log has standard deviation ``LOG_SPREAD``. All-to-all
    coupling is assumed, so every unordered pair gets a two-qubit error.
    Rates are clipped to 0.5 to stay physically sensible.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    rng = np.random.default_rng(seed)

    def draw(median: float, size: int) -> np.ndarray:
        return np.minimum(rng.lognormal(math.log(median), LOG_SPREAD, size), 0.5)

    qubits = [draw(median, n_qubits) for median in (READOUT_MEDIAN, READOUT_MEDIAN, SINGLE_QUBIT_MEDIAN)]
    pairs = np.column_stack(np.triu_indices(n_qubits, 1))
    return DeviceModel(np.transpose(qubits), pairs, draw(TWO_QUBIT_MEDIAN, len(pairs)))


def qubit_scores(device: DeviceModel) -> np.ndarray:
    """Composite noise score of every qubit: its mean readout error plus the
    mean error of the pairs it belongs to (0 for a qubit in no pair)."""
    # each qubit's incident pair errors in the order the pairs are listed,
    # which fixes the rounding of each mean: one stable sort by qubit
    ends = device.pairs.ravel()
    incident = np.repeat(device.pair_errors, 2)[np.argsort(ends, kind="stable")]
    degree = np.bincount(ends, minlength=device.n_qubits)
    start = np.cumsum(degree) - degree
    mean = np.zeros(device.n_qubits)
    # a row sum of a contiguous (qubits, degree) table adds each row as
    # np.mean adds one qubit's list, pairwise
    for d in (np.flatnonzero(np.bincount(degree)[1:]) + 1).tolist():
        qubits = np.flatnonzero(degree == d)
        mean[qubits] = incident[start[qubits, None] + np.arange(d)].sum(axis=1) / d
    return 0.5 * (device.qubits[:, 0] + device.qubits[:, 1]) + mean


def rank_qubits(device: DeviceModel) -> list[int]:
    """Physical qubits ordered best (least noisy) first, ties by index."""
    return np.argsort(qubit_scores(device), kind="stable").tolist()
