"""The CLI contract, swept over every config key and calibration entry key.

Each config key's row in ``config._SCHEMA`` names its type and bounds. A
value of another type, one past a bound, or 10**400 must end ``sizecon run``
in exactly one ``error: config: <path>: ...`` line, with exit 1 and no
output directory; a bound itself must parse. Every key of a calibration
entry that is missing, of the wrong type or outside [0, 1] must end in one
``error: value: calibration: ...`` line, and a file of fewer than
``QUBIT_BUDGET`` qubits in one ``error: config: calibration.file: ...``
line, in either sampling mode. The string and float keys
``output_dir``, ``calibration.file`` and ``bond_length`` also take the empty
string, 0, -0.0, 1e-320, NaN and Infinity, each ending in one ``error:``
line. The cases run in-process through
``cli.main``: an uncaught exception fails the test, and pytest's
``filterwarnings = error`` turns any warning into one. The valid edges of
every key, each at its least value and at its greatest where a run there is
cheap, must run: exit 0, one ``run complete`` line and a ``samples.csv``.
A config that plans exactly ``config.MAX_ROWS`` rows must parse, and one
set or sample more must end ``run`` in one ``error: config:`` line before
anything is planned; so must a config that plans exactly
``config.MAX_SHOT_ROWS`` shots times rows, and one shot more.
``reference --n-max`` past its bounds, 10**400 included, must end in one
``error: usage:`` line, rejected by the parser before any work starts; the
bound itself must run. An empty ``--output`` of ``reference`` or
``calibration generate`` must end in one such line too.
"""

import copy
import itertools
import json
import tracemalloc

import pytest

from sizecon.cli import main as cli_main
from sizecon.config import _SCHEMA, MAX_ROWS, MAX_SHOT_ROWS, QUBIT_BUDGET, ConfigError, ExperimentConfig
from sizecon.device import DeviceModel
from sizecon.molecule import MAX_BOND_LENGTH
from sizecon.report import REFERENCE_N_MAX

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


# each key's greatest value on BASE: its bound in _SCHEMA, and for shots,
# which the shot-row budget bounds with the rows, the most shots BASE's
# 48 rows take
HIGH = {path: row[4] for path, row in _SCHEMA.items()}
HIGH["shots"] = MAX_SHOT_ROWS // ExperimentConfig.from_dict(BASE).rows


def unbounded_above(path):
    """A key bounded below only takes 10**400: a seed may be any
    non-negative integer."""
    return _SCHEMA[path][3] is not None and HIGH[path] is None


def invalid_values():
    for path, row in _SCHEMA.items():
        _, kind, _, low, _, _ = row
        high = HIGH[path]
        for name, value in WRONG_TYPES.items():
            if isinstance(value, bool) or not isinstance(value, kind):
                yield pytest.param(path, value, id=f"{path}-{name}")
        if low is not None:
            yield pytest.param(path, low - 1, id=f"{path}-below")
        if high is not None:
            yield pytest.param(path, high + 1, id=f"{path}-above")
        if not unbounded_above(path):
            yield pytest.param(path, 10**400, id=f"{path}-10**400")


def edge_values():
    for path, row in _SCHEMA.items():
        low, high = row[3], HIGH[path]
        if low is not None:
            yield pytest.param(path, low, id=f"{path}-low")
        if high is not None:
            yield pytest.param(path, high, id=f"{path}-high")
        if unbounded_above(path):
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
    text = json.dumps(config_with(path, value))
    if path in ("sampling.k", "sampling.s") and value == _SCHEMA[path][4]:
        # within its own bound, but its plans are over the row budget
        with pytest.raises(ConfigError, match=f"^{path}: plans .* over the {MAX_ROWS}-row budget$"):
            ExperimentConfig.from_json(text)
        return
    config = ExperimentConfig.from_json(text)
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
# * shots at HIGH["shots"], the most the shot-row budget leaves BASE's
#   rows: a run there takes minutes; test_shot_row_budget_edge parses
#   the most shots on other row counts and refuses one more;
# * sampling.k and sampling.s at 2**32 - 1: such a plan is over the
#   config.MAX_ROWS budget, which test_row_budget_edge covers;
# * bond lengths below 0.01, where jordan_wigner starts to reject the
#   Hamiltonian as non-Hermitian by round-off (from about 0.005).
VALID_EDGES = [
    ("representation", 1), ("representation", 4),
    ("subsystem_counts", [1]), ("subsystem_counts", [QUBIT_BUDGET]),
    ("output_dir", "r"), ("output_dir", "parents/made/run"),
    ("master_seed", 10**400),
    ("bond_length", 0.01), ("bond_length", MAX_BOND_LENGTH),
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


@pytest.mark.parametrize(
    "sampling, n, rows_each",
    [({"mode": "selective", "k": MAX_ROWS // 16}, 2, 16), ({"mode": "random", "s": MAX_ROWS}, 1, 1)],
    ids=["selective-k", "random-s"],
)
def test_row_budget_edge(tmp_path, capsys, monkeypatch, sampling, n, rows_each):
    # the rows are N per work item: 8 items of 2 rows per selective set at
    # N = 2 (rows_each 16), one row per random sample at N = 1. At the budget the config
    # parses; one set or sample more, and the most the key itself takes,
    # each end run in one line before anything is planned
    monkeypatch.chdir(tmp_path)
    config = {**BASE, "subsystem_counts": [n], "sampling": sampling}
    assert ExperimentConfig.from_dict(config).rows == MAX_ROWS
    key = "k" if sampling["mode"] == "selective" else "s"
    for value in (sampling[key] + 1, 2**32 - 1):
        (tmp_path / "config.json").write_text(json.dumps({**config, "sampling": {**sampling, key: value}}))
        tracemalloc.start()
        try:
            code = cli_main(["run", "config.json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr() == ("", f"error: config: sampling.{key}: plans {value * rows_each} "
                                           f"samples.csv rows, over the {MAX_ROWS}-row budget\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
        assert peak < 1_000_000


@pytest.mark.parametrize(
    "overrides, rows",
    [({"subsystem_counts": [1], "sampling": {"mode": "random", "s": 1}}, 1),
     ({"subsystem_counts": [2], "sampling": {"k": 1}}, 16),
     ({"representation": 4, "subsystem_counts": [1, 2], "sampling": {"mode": "random", "s": 3}}, 9)],
    ids=["one-row", "selective-16-rows", "random-9-rows"],
)
def test_shot_row_budget_edge(tmp_path, capsys, monkeypatch, overrides, rows):
    # the most shots whose shot-rows, shots times samples.csv rows, are
    # within the budget parse (exactly at it where the rows divide it); one
    # shot more ends run in one line on shots before anything is planned
    monkeypatch.chdir(tmp_path)
    config = {**BASE, **overrides}
    shots = MAX_SHOT_ROWS // rows
    assert ExperimentConfig.from_dict({**config, "shots": shots}).rows == rows
    assert rows * shots <= MAX_SHOT_ROWS < rows * (shots + 1)
    (tmp_path / "config.json").write_text(json.dumps({**config, "shots": shots + 1}))
    tracemalloc.start()
    try:
        code = cli_main(["run", "config.json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr() == ("", f"error: config: shots: plans {rows * (shots + 1)} shot-rows "
                                       f"({shots + 1} shots on each of {rows} samples.csv rows), "
                                       f"over the {MAX_SHOT_ROWS} shot-row budget\n")
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    assert peak < 1_000_000


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


@pytest.mark.parametrize("n_qubits", [1, QUBIT_BUDGET - 1])
@pytest.mark.parametrize("sampling", [{"mode": "selective"}, {"mode": "random", "s": 3}],
                         ids=["selective", "random"])
def test_calibration_file_smaller_than_the_pool_is_one_line(tmp_path, capsys, monkeypatch,
                                                            n_qubits, sampling):
    # calibration.n_qubits must be >= QUBIT_BUDGET, and so must a file;
    # calibration rank still ranks it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cal.json").write_text(DeviceModel.noiseless(n_qubits).to_json())
    config = {**BASE, "subsystem_counts": [1, 2], "sampling": sampling,
              "calibration": {"file": "cal.json"}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli_main(["run", "config.json"]) == 1
    assert capsys.readouterr() == ("", f"error: config: calibration.file: cal.json holds {n_qubits} "
                                       f"qubits, fewer than the {QUBIT_BUDGET}-qubit pool\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cal.json", "config.json"]
    assert cli_main(["calibration", "rank", "cal.json"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + n_qubits


@pytest.mark.parametrize("path, message", [
    ("", "config file '' is not a file"),
    (".", "config file '.' is not a file"),
    ("configs", "config file 'configs' is not a file"),
    ("missing.json", "config file not found: missing.json"),
], ids=["empty", "dot", "directory", "missing"])
def test_config_path_that_is_not_a_file_is_one_line(tmp_path, capsys, monkeypatch, path, message):
    # Path("") names the current directory, so the message quotes the path
    # as given
    monkeypatch.chdir(tmp_path)
    (tmp_path / "configs").mkdir()
    assert cli_main(["run", path]) == 1
    assert capsys.readouterr() == ("", f"error: io: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["configs"]


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


@pytest.mark.parametrize("value", [0, -1, REFERENCE_N_MAX + 1, 10**8, 10**400])
def test_reference_n_max_past_a_bound_is_one_line(capsys, monkeypatch, value):
    def no_work(*args):
        raise AssertionError("reference_table ran")

    monkeypatch.setattr("sizecon.cli.reference_table", no_work)
    assert cli_main(["reference", "--n-max", str(value)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    bound = ">= 1" if value < 1 else f"<= {REFERENCE_N_MAX}"
    assert err.splitlines() == [
        f"error: usage: sizecon reference: argument --n-max: must be {bound}, got {value}"
    ]


@pytest.mark.parametrize(
    "args",
    [["reference", "--n-max", "3"], ["calibration", "generate", "--seed", "1"]],
    ids=["reference", "calibration-generate"],
)
def test_empty_output_is_one_usage_line(capsys, monkeypatch, tmp_path, args):
    # Path("") is the current directory, a path the command line never gave
    monkeypatch.chdir(tmp_path)
    assert cli_main([*args, "--output", ""]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: usage: sizecon {' '.join(args[:-2])}: argument --output: must be a path or -, got ''"
    ]
    assert list(tmp_path.iterdir()) == []


def test_reference_n_max_bound_runs(capsys):
    assert cli_main(["reference", "--n-max", str(REFERENCE_N_MAX)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + REFERENCE_N_MAX
    assert lines[-1].startswith(f"{REFERENCE_N_MAX},")
