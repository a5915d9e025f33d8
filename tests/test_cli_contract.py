"""The CLI contract, swept over every config key and calibration entry key.

Each config key's row in ``config._SCHEMA`` names its type and bounds. A
value of another type, one past a bound, or 10**400 must end ``sizecon run``
in exactly one ``error: config: <path>: ...`` line, with exit 1 and no
output directory; a bound itself must parse. Every key of a calibration
entry that is missing, of the wrong type or outside [0, 1] must end in one
``error: value: calibration: ...`` line. The cases run in-process through
``cli.main``: an uncaught exception fails the test, and pytest's
``filterwarnings = error`` turns any warning into one.
"""

import copy
import json

import pytest

from sizecon.cli import main as cli_main
from sizecon.config import _SCHEMA, ExperimentConfig

BASE = {"representation": 1, "subsystem_counts": [2], "output_dir": "run", "shots": 10}
WRONG_TYPES = {"string": "1", "float": 1.5, "true": True, "null": None, "list": [1]}


def config_with(path, value):
    """``BASE`` with ``value`` at the JSON ``path``, under the sampling mode
    that reads it."""
    config = copy.deepcopy(BASE)
    if path == "sampling.s":
        config["sampling"] = {"mode": "random"}
    group, _, key = path.rpartition(".")
    (config.setdefault(group, {}) if group else config)[key] = value
    return config


def unbounded_above(row):
    """A row bounded below only takes 10**400: a seed may be any
    non-negative integer."""
    *_, low, high, _ = row
    return low is not None and high is None


def invalid_values():
    for path, row in _SCHEMA.items():
        _, kind, _, low, high, _ = row
        for name, value in WRONG_TYPES.items():
            if isinstance(value, bool) or not isinstance(value, kind):
                yield pytest.param(path, value, id=f"{path}-{name}")
        if low is not None:
            yield pytest.param(path, low - 1, id=f"{path}-below")
        if high is not None:
            yield pytest.param(path, high + 1, id=f"{path}-above")
        if not unbounded_above(row):
            yield pytest.param(path, 10**400, id=f"{path}-10**400")


def edge_values():
    for path, row in _SCHEMA.items():
        *_, low, high, _ = row
        if low is not None:
            yield pytest.param(path, low, id=f"{path}-low")
        if high is not None:
            yield pytest.param(path, high, id=f"{path}-high")
        if unbounded_above(row):
            yield pytest.param(path, 10**400, id=f"{path}-10**400")


@pytest.mark.parametrize("path, value", invalid_values())
def test_invalid_config_value_is_one_line(tmp_path, capsys, monkeypatch, path, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config_with(path, value)))
    assert cli_main(["run", "config.json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith(f"error: config: {path}: ")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("path, value", edge_values())
def test_config_edge_value_parses(path, value):
    config = ExperimentConfig.from_json(json.dumps(config_with(path, value)))
    assert getattr(config, _SCHEMA[path][0]) == value


@pytest.mark.parametrize(
    "path", [path for path, (*_, low, _, _) in _SCHEMA.items() if low is not None]
)
def test_config_lower_bound_runs(tmp_path, capsys, monkeypatch, path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config_with(path, _SCHEMA[path][3])))
    assert cli_main(["run", "config.json"]) == 0
    assert capsys.readouterr() == ("run complete: run\n", "")


QUBIT = {"readout_p10": 0.01, "readout_p01": 0.02, "single_qubit_error": 0.001}
ENTRY_KEYS = [("qubits", key) for key in QUBIT] + [("two_qubit_error", "pair"),
                                                   ("two_qubit_error", "error")]
MISSING = object()
BAD_ENTRY_VALUES = {"missing": MISSING, "string": "0.1", "true": True, "null": None,
                    "-0.1": -0.1, "1.5": 1.5}


@pytest.mark.parametrize(
    "entry, key, value",
    [pytest.param(entry, key, value, id=f"{entry}[0].{key}-{name}")
     for entry, key in ENTRY_KEYS for name, value in BAD_ENTRY_VALUES.items()],
)
def test_invalid_calibration_entry_is_one_line(tmp_path, capsys, monkeypatch, entry, key, value):
    monkeypatch.chdir(tmp_path)
    calibration = {"qubits": [dict(QUBIT), dict(QUBIT)],
                   "two_qubit_error": [{"pair": [0, 1], "error": 0.01}]}
    if value is MISSING:
        del calibration[entry][0][key]
    else:
        calibration[entry][0][key] = value
    (tmp_path / "cal.json").write_text(json.dumps(calibration))
    (tmp_path / "config.json").write_text(
        json.dumps({**BASE, "calibration": {"file": "cal.json"}})
    )
    for args in (["calibration", "rank", "cal.json"], ["run", "config.json"]):
        assert cli_main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith(f"error: value: calibration: {entry}[0].{key} ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cal.json", "config.json"]
