"""The CLI contract, swept over every config key and calibration entry key.

Each config key's row in ``config._SCHEMA`` names its type and bounds. A
value of another type, one past a bound, or 10**400 must end ``sizecon run``
in exactly one ``error: config: <path>: ...`` line, with exit 1 and no
output directory; a bound itself must parse. Every key of a calibration
entry that is missing, of the wrong type or outside [0, 1] must end in one
``error: value: calibration: ...`` line. The string and float keys
``output_dir``, ``calibration.file`` and ``bond_length`` also take the empty
string, 0, -0.0, 1e-320, NaN and Infinity, each ending in one ``error:``
line. The cases run in-process through
``cli.main``: an uncaught exception fails the test, and pytest's
``filterwarnings = error`` turns any warning into one. The valid edges of
every key, each at its least value and at its greatest where a run there is
cheap, must run: exit 0, one ``run complete`` line and a ``samples.csv``.
"""

import copy
import itertools
import json

import pytest

from sizecon.cli import main as cli_main
from sizecon.config import _SCHEMA, QUBIT_BUDGET, ExperimentConfig

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
    assert len((tmp_path / "run" / "samples.csv").read_text().splitlines()) > 1


# The valid edges that test_config_lower_bound_runs leaves: a key without
# bounds in _SCHEMA at its least and greatest valid values, and a bounded key
# at its upper bound where a run there is cheap. The two calibration files
# hold QUBIT_BUDGET qubits with every rate at 0 and no pair listed, and with
# every rate at 1 and every pair listed. Not run:
# * shots at MAX_SHOTS: each work item would draw 2**63 - 1 shots, which
#   takes centuries;
# * sampling.k and sampling.s at 2**32 - 1: a plan of that many sets or
#   samples does not fit in memory;
# * bond lengths past 5.7 angstrom, where the SCF of solve_rhf stops
#   converging, and below 0.01, where jordan_wigner starts to reject the
#   Hamiltonian as non-Hermitian by round-off (from about 0.005).
VALID_EDGES = [
    ("representation", 1), ("representation", 4),
    ("subsystem_counts", [1]), ("subsystem_counts", [QUBIT_BUDGET]),
    ("output_dir", "r"), ("output_dir", "parents/made/run"),
    ("master_seed", 10**400),
    ("bond_length", 0.01), ("bond_length", 5.7),
    ("sampling.mode", "selective"), ("sampling.mode", "random"),
    ("calibration.file", "rates-0.json"), ("calibration.file", "rates-1.json"),
    ("calibration.synthetic_seed", 10**400),
    ("calibration.n_qubits", _SCHEMA["calibration.n_qubits"][4]),
]


def test_valid_edges_cover_every_key():
    bounded_below = {path for path, (*_, low, _, _) in _SCHEMA.items() if low is not None}
    assert {path for path, _ in VALID_EDGES} | bounded_below == set(_SCHEMA)


@pytest.mark.parametrize(
    "path, value",
    [pytest.param(path, value, id=f"{path}-{str(value)[:16]}") for path, value in VALID_EDGES],
)
def test_valid_edge_runs(tmp_path, capsys, monkeypatch, path, value):
    monkeypatch.chdir(tmp_path)
    if path == "calibration.file":  # rates-0.json or rates-1.json
        rate = int(value[len("rates-")])
        pairs = itertools.combinations(range(QUBIT_BUDGET), 2) if rate else ()
        calibration = {
            "qubits": [dict.fromkeys(QUBIT, float(rate))] * QUBIT_BUDGET,
            "two_qubit_error": [{"pair": list(pair), "error": 1.0} for pair in pairs],
        }
        (tmp_path / value).write_text(json.dumps(calibration))
    config = config_with(path, value)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli_main(["run", "config.json"]) == 0
    assert capsys.readouterr() == (f"run complete: {config['output_dir']}\n", "")
    assert len((tmp_path / config["output_dir"] / "samples.csv").read_text().splitlines()) > 1


EDGE_VALUES = {"empty": "", "0": 0, "-0.0": -0.0, "1e-320": 1e-320, "NaN": float("nan"),
               "Infinity": float("inf")}


def edge_error(path, value):
    """The start of the one line that ``value`` at ``path`` ends in: each is a
    config error on its own path, but an empty output_dir and the empty
    calibration path say why, and 1e-320 angstrom is a valid bond length
    whose overlap matrix is singular."""
    if path == "bond_length" and value == 1e-320:
        return "error: value: overlap matrix at bond length 1e-320 angstrom is singular"
    if value == "":
        return {"output_dir": "error: config: output_dir: must not be empty",
                "calibration.file": "error: config: calibration.file: '' is not a file",
                "bond_length": "error: config: bond_length: must be a number, got ''"}[path]
    return f"error: config: {path}: "


@pytest.mark.parametrize(
    "path, value",
    [pytest.param(path, value, id=f"{path}-{name}")
     for path in ("output_dir", "calibration.file", "bond_length")
     for name, value in EDGE_VALUES.items()],
)
def test_empty_zero_and_non_finite_values_are_one_line(tmp_path, capsys, monkeypatch, path, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config_with(path, value)))
    assert cli_main(["run", "config.json"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith(edge_error(path, value))
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("path", ["", ".", "calibrations"], ids=["empty", "dot", "directory"])
def test_calibration_path_that_is_not_a_file_is_one_line(tmp_path, capsys, monkeypatch, path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "calibrations").mkdir()
    (tmp_path / "config.json").write_text(json.dumps(config_with("calibration.file", path)))
    for args, field in ((["run", "config.json"], "calibration.file"),
                        (["calibration", "rank", path], "file")):
        assert cli_main(args) == 1
        assert capsys.readouterr() == ("", f"error: config: {field}: {path!r} is not a file\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["calibrations", "config.json"]


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
