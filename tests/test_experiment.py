import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sizecon import cli, experiment, report, rundir
from sizecon.cli import main as cli_main
from sizecon.config import MAX_QUBITS, MAX_ROWS, MAX_SHOT_ROWS, ConfigError, ExperimentConfig
from sizecon.device import DeviceModel, synthetic_calibration
from sizecon.experiment import derive_seed, run_experiment
from sizecon.hamiltonians import build_hamiltonians
from sizecon.molecule import MAX_BOND_LENGTH
from sizecon.report import analyze, reference_table
from sizecon.rundir import (
    POPULATIONS_HEADER,
    REPORT_FILES,
    SAMPLES_HEADER,
    csv_text,
    format_floats,
    load_samples,
    table_text,
)
from sizecon.sampling import plan_keys
from sizecon.simulator import TrajectoryEngine

from oracles import reference_csv_text, reference_load_samples
from test_sampling import scanned_score

ROOT = Path(__file__).resolve().parent.parent
# what analyze says of a samples.csv that is not the file its run wrote
DIGEST = "samples.csv does not match the samples_sha256 of its manifest"
# and of one whose manifest digest was rewritten to match
NOT_RUN_TEXT = ("samples.csv is not a table run writes: printable ASCII without '\"', "
                "in nonblank lines that each end in LF")
# the files run writes, in sorted order
RUN_FILES = ["calibration.json", "manifest.json", "populations.csv", "samples.csv"]


def run_cli(*args):
    """``sizecon`` in a fresh interpreter, so stderr holds everything the
    process writes there, warnings included."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    return subprocess.run(
        [sys.executable, "-m", "sizecon.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def set_cell(text, row, column, value):
    """``text``, a CSV, with the cell of data row ``row`` (from 1) in
    ``column`` set to ``value``."""
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def insert_line(text, row, line):
    """``text``, a CSV, with ``line`` inserted as data row ``row`` (from 1)."""
    lines = text.split("\n")
    return "\n".join(lines[:row] + [line] + lines[row:])


def sample_keys(run_dir):
    """The sorted (N, set, sample) keys, an ``(items, 3)`` int64 array, of
    the samples the run's manifest config plans, as ``plan_keys`` names
    them at each N."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    config = ExperimentConfig.from_dict(manifest["config"])
    keys = [(n, s, i) for n in sorted(config.subsystem_counts) for s, i in plan_keys(config, n).tolist()]
    return np.array(keys, dtype=np.int64)


def load(run_dir):
    """``load_samples`` of ``run_dir`` as ``analyze`` calls it, with the
    config and the samples digest of its manifest."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    return load_samples(run_dir, ExperimentConfig.from_dict(manifest["config"]), manifest["samples_sha256"])


def edit_row(text, row, edit):
    """``text``, a CSV, with data row ``row`` (from 1) replaced by
    ``edit`` of it."""
    lines = text.split("\n")
    lines[row] = edit(lines[row])
    return "\n".join(lines)


def forge(run_dir, text):
    """Write ``text`` as the run's ``samples.csv``, with the manifest's
    ``samples_sha256`` rewritten to match it."""
    data = text.encode(errors="surrogateescape")
    (run_dir / "samples.csv").write_bytes(data)
    manifest = (run_dir / "manifest.json").read_text()
    (run_dir / "manifest.json").write_text(
        set_key(manifest, "samples_sha256", hashlib.sha256(data).hexdigest())
    )


def assert_same_samples(got, expected):
    """Equal SizeSamples by N, field by field and byte for byte."""
    assert list(got) == list(expected)
    for n in expected:
        for field in ("keys", "energy_per_h2", "shot_variance_per_h2", "p_single", "p_double"):
            a, b = getattr(got[n], field), getattr(expected[n], field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (n, field)


def set_key(text, path, value):
    """``text``, a JSON object, with the value at the dotted ``path`` set to
    ``value``."""
    document = json.loads(text)
    *parents, last = path.split(".")
    node = document
    for key in parents:
        node = node[key]
    node[last] = value
    return json.dumps(document)


def tiny_config(tmp_path, **overrides):
    settings = dict(
        representation=1,
        subsystem_counts=(2, 4),
        output_dir=str(tmp_path / "run"),
        shots=2000,
        sampling_mode="selective",
        k_sets=1,
        calibration_seed=5,
        calibration_qubits=16,
        master_seed=3,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        config = tiny_config(tmp_path)
        back = ExperimentConfig.from_json(json.dumps(config.to_dict()))
        assert back == config

    def test_from_json_minimal(self):
        config = ExperimentConfig.from_json(
            '{"representation": 2, "subsystem_counts": [1, 8], "output_dir": "x"}'
        )
        assert config.shots == 100_000
        assert config.sampling_mode == "selective"
        assert config.bond_length == 0.7414

    @pytest.mark.parametrize(
        "payload, field",
        [
            ('{"subsystem_counts": [1], "output_dir": "x"}', "representation"),
            ('{"representation": 3, "subsystem_counts": [1], "output_dir": "x"}', "representation"),
            ('{"representation": 1, "subsystem_counts": [], "output_dir": "x"}', "subsystem_counts"),
            ('{"representation": 4, "subsystem_counts": [8], "output_dir": "x"}', "subsystem_counts"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "shots": 0}', "shots"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "sampling": {"mode": "best"}}', "sampling.mode"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "sampling": {"k": 0}}', "sampling.k"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "sampling": {"mode": "random", "s": 0}}', "sampling.s"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "calibration": {"n_qubits": 8}}', "calibration.n_qubits"),
            ('{"representation": 1, "subsystem_counts": [3], "output_dir": "x"}', "subsystem_counts"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "bond_length": -1}', "bond_length"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "bond_length": NaN}', "bond_length"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "bond_length": Infinity}', "bond_length"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "typo": 1}', "typo"),
            ('{"representation": "4", "subsystem_counts": [1], "output_dir": "x"}', "representation"),
            ('{"representation": true, "subsystem_counts": [1], "output_dir": "x"}', "representation"),
            ('{"representation": 1, "subsystem_counts": 2, "output_dir": "x"}', "subsystem_counts"),
            ('{"representation": 1, "subsystem_counts": [2.0], "output_dir": "x"}', "subsystem_counts"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "shots": 1.5}', "shots"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "master_seed": "1"}', "master_seed"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "sampling": {"k": true}}', "sampling.k"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "sampling": {"mode": "random", "s": 2.5}}', "sampling.s"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "calibration": {"synthetic_seed": "7"}}', "calibration.synthetic_seed"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "calibration": {"n_qubits": 16.0}}', "calibration.n_qubits"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "bond_length": "0.74"}', "bond_length"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "bond_length": false}', "bond_length"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": 5}', "output_dir"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "calibration": {"file": 7}}', "calibration.file"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "sampling": {"kk": 0}}', "sampling.kk"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "sampling": {"mode": "random", "s": 4, "k": 2, "seed": 1}}', "sampling.seed"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "calibration": {"seed": 3}}', "calibration.seed"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "calibration": {"file": "c.json", "n_qubit": 16}}', "calibration.n_qubit"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "sampling": []}', "sampling"),
            ('{"representation": 1, "subsystem_counts": [2, 2, 4], "output_dir": "x"}', "subsystem_counts"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "sampling": {"mode": "random", "s": 4, "k": 2}}', "sampling.k"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "sampling": {"s": 4}}', "sampling.s"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "sampling": {"mode": "selective", "k": 2, "s": 4}}', "sampling.s"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "calibration": {"file": "c.json", "synthetic_seed": 7}}', "calibration.synthetic_seed"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "calibration": {"file": "c.json", "n_qubits": 156}}', "calibration.n_qubits"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "master_seed": -1}', "master_seed"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "calibration": {"synthetic_seed": -1}}', "calibration.synthetic_seed"),
        ],
    )
    def test_invalid_configs_name_field(self, payload, field):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_json(payload)
        assert err.value.field_name == field

    def test_random_mode_allows_non_divisible(self):
        config = ExperimentConfig.from_json(
            '{"representation": 1, "subsystem_counts": [3, 5], "output_dir": "x",'
            ' "sampling": {"mode": "random", "s": 4}}'
        )
        assert config.s_repetitions == 4

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            ExperimentConfig.from_json("{")

    def test_derive_seed_stable(self):
        assert derive_seed(7, [(1, 2, 3)]) == derive_seed(7, [(1, 2, 3)])
        assert derive_seed(7, [(1, 2, 3)]) != derive_seed(7, [(1, 2, 4)])
        assert derive_seed(8, [(1, 2, 3)]) != derive_seed(7, [(1, 2, 3)])

    @pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**70, 2**130])
    @pytest.mark.parametrize("length", [1, 2, 4, 6])
    def test_derive_seed_equals_seed_sequence(self, master_seed, length):
        rng = np.random.default_rng([master_seed % 997, length])
        keys = rng.integers(0, 2**32, size=(200, length)).tolist()
        keys[:3] = [[0] * length, [2**32 - 1] * length, list(range(length))]
        expected = [
            int(np.random.SeedSequence(master_seed, spawn_key=key).generate_state(1, np.uint64)[0])
            for key in keys
        ]
        assert derive_seed(master_seed, keys) == expected
        assert derive_seed(master_seed, keys[5:6]) == expected[5:6]  # a batch of one

    def test_derive_seed_refuses_a_key_part_past_one_word(self):
        with pytest.raises(OverflowError):
            derive_seed(1, [(1, 2**32)])
        with pytest.raises(OverflowError):
            derive_seed(1, [(-1, 2)])


class TestRunExperiment:
    def test_outputs_exist_and_are_deterministic(self, tmp_path):
        out1 = run_experiment(tiny_config(tmp_path, output_dir=str(tmp_path / "a")))
        out2 = run_experiment(tiny_config(tmp_path, output_dir=str(tmp_path / "b")))
        for name in ("samples.csv", "populations.csv", "manifest.json", "calibration.json"):
            assert (out1 / name).exists()
            a = (out1 / name).read_text()
            b = (out2 / name).read_text()
            if name == "manifest.json":
                # manifests differ only in the echoed output_dir
                a = a.replace(str(tmp_path / "a"), "OUT")
                b = b.replace(str(tmp_path / "b"), "OUT")
            assert a == b

    def test_row_counts(self, tmp_path):
        out = run_experiment(tiny_config(tmp_path))
        with open(out / "samples.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # selective k=1: N=2 -> 8 samples x 2 subsystems, N=4 -> 4 x 4
        assert len(rows) == 8 * 2 + 4 * 4

    def test_one_sample_call_per_n_and_group(self, tmp_path, monkeypatch):
        # every item of one (N, group) is drawn in one call, straight into
        # per-block counts, and tomography reads each N's stacks at once
        calls, reads = [], []
        sample = TrajectoryEngine.sample

        def counting_sample(engine, device, maps, shots, seeds, block_width):
            counts = sample(engine, device, maps, shots, seeds, block_width)
            calls.append(counts.shape)
            return counts

        def counting_reader(reader):
            def counted(*args):
                reads.append(reader.__name__)
                return reader(*args)
            return counted

        readers = ("estimate_energies", "shot_noise_stderr", "extract_populations")
        monkeypatch.setattr(TrajectoryEngine, "sample", counting_sample)
        for name in readers:
            monkeypatch.setattr(experiment, name, counting_reader(getattr(experiment, name)))
        run_experiment(tiny_config(tmp_path, representation=2, subsystem_counts=(1, 4)))
        # rep-2 has 2 groups; selective k=1: N=1 -> 8 samples, N=4 -> 2
        assert calls == [(8, 1, 4)] * 2 + [(2, 4, 4)] * 2
        assert sorted(reads) == sorted(readers * 2)  # once per N each

    def test_manifest_records_seeds_and_hash(self, tmp_path):
        out = run_experiment(tiny_config(tmp_path))
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["seeds"]) == (8 + 4) * 2  # entries x groups
        digest = hashlib.sha256((out / "calibration.json").read_bytes()).hexdigest()
        assert manifest["calibration_sha256"] == digest
        digest = hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest()
        assert manifest["samples_sha256"] == digest

    def test_zero_noise_energies_near_fci(self, tmp_path):
        cal = tmp_path / "noiseless.json"
        cal.write_text(DeviceModel.noiseless(16).to_json())
        config = tiny_config(
            tmp_path,
            calibration_file=str(cal),
            shots=20_000,
            subsystem_counts=(2, 8),
        )
        out = run_experiment(config)
        bundle = build_hamiltonians(config.bond_length)
        e_fci = bundle.levels.fci_energy
        by_n: dict[int, list[tuple[float, float]]] = {}
        with open(out / "samples.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                energy = float(row["energy_hartree"])
                stderr = float(row["energy_shot_stderr_hartree"])
                assert abs(energy - e_fci) < 5 * stderr
                by_n.setdefault(int(row["n_subsystems"]), []).append((energy, stderr))
        for n, rows in by_n.items():
            energies = np.array([e for e, _ in rows])
            stderr_of_mean = np.sqrt(np.sum([s**2 for _, s in rows])) / len(rows)
            assert abs(energies.mean() - e_fci) < 4 * stderr_of_mean, n

    def test_rep4_samples_bytes_are_pinned(self, tmp_path):
        # recorded before the trajectory sampler was split into independent
        # qubit segments; a change to the sampled bytes must be deliberate
        config = ExperimentConfig(
            representation=4,
            subsystem_counts=(1, 2, 4),
            output_dir=str(tmp_path / "run"),
            shots=300,
            sampling_mode="selective",
            k_sets=3,
            calibration_seed=7,
            calibration_qubits=156,
            master_seed=1,
        )
        out = run_experiment(config)
        digest = hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest()
        assert digest == "de079601b27a5c55822071a1555c173dfb938f55efb8754f484be46271c81275"

    def test_rep1_many_shot_samples_bytes_are_pinned(self, tmp_path):
        # recorded before the sampler drew quiet and fired shots apart; at
        # 20k shots and N=16 every segment mixes both kinds of row
        config = ExperimentConfig(
            representation=1,
            subsystem_counts=(2, 16),
            output_dir=str(tmp_path / "run"),
            shots=20_000,
            sampling_mode="selective",
            k_sets=2,
            calibration_seed=7,
            calibration_qubits=156,
            master_seed=1,
        )
        out = run_experiment(config)
        digest = hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest()
        assert digest == "a7bd904988deaf7f4dac53fab0b0b2d97c30968a8a7c75e6ba0cde02d87d52b8"

    def test_rep1_random_samples_bytes_are_pinned(self, tmp_path):
        # recorded while every work item was sampled by its own call; random
        # mode over a calibration file, as the many-small-items benchmark runs
        calibration = tmp_path / "calibration.json"
        calibration.write_text(synthetic_calibration(n_qubits=156, seed=7).to_json())
        config = ExperimentConfig(
            representation=1,
            subsystem_counts=(1, 3, 6),
            output_dir=str(tmp_path / "run"),
            shots=500,
            sampling_mode="random",
            s_repetitions=20,
            calibration_file=str(calibration),
            master_seed=2,
        )
        out = run_experiment(config)
        digest = hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest()
        assert digest == "69c0f7db98c4fdeef720ca1731a03f671ee20c847c5d71a92a63a210ce69821a"

    def test_missing_calibration_file(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^calibration\.file: no such file"):
            run_experiment(tiny_config(tmp_path, calibration_file=str(tmp_path / "nope.json")))


def _bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


class TestRunTables:
    """``samples.csv`` and ``populations.csv`` are written as joined lines,
    each distinct value formatted once, and the other tables by
    ``csv_text``; their text must be what ``repr`` and the csv module make
    of the same rows."""

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(
                np.concatenate([[0.0, -0.0, 0.0], _bits(
                    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                    0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF, 0x7FF8000000000000,
                ), [-0.0]]),
                id="signed-zeros-and-nan-payloads",
            ),
            pytest.param(
                [np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
                 2.2250738585072014e-308, np.inf, 5e-324],
                id="infinities-and-subnormals",
            ),
            pytest.param(
                [np.nextafter(x, d) for x in (0.1, 1.0, 1e16, -0.3) for d in (-np.inf, np.inf)]
                + [0.1, 1.0, 1e16, -0.3],
                id="neighbours-one-ulp-apart",
            ),
            pytest.param(
                [1e-05, 1e16, -1e-05, 1.5e-05, 0.0001, 9999999999999998.0, 1e22,
                 1.7976931348623157e308, 1e-05, 123456789012345680.0],
                id="exponent-form",
            ),
            pytest.param(np.full(50, 0.123), id="every-value-repeats"),
            pytest.param(
                np.round(np.random.default_rng(3).normal(size=(40, 6)), 2), id="items-by-subsystems"
            ),
        ],
    )
    def test_format_floats_is_repr(self, values):
        values = np.asarray(values, dtype=np.float64)
        assert format_floats(values) == list(map(repr, values.ravel().tolist()))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(representation=1, subsystem_counts=(2, 4), sampling_mode="selective", k_sets=2),
            dict(representation=1, subsystem_counts=(3, 5), sampling_mode="random", s_repetitions=4),
            dict(representation=2, subsystem_counts=(1, 3), sampling_mode="random", s_repetitions=5),
            dict(representation=2, subsystem_counts=(2,), sampling_mode="selective", k_sets=1),
            dict(representation=4, subsystem_counts=(1, 2, 4), sampling_mode="selective", k_sets=1,
                 master_seed=10**400),
            dict(representation=4, subsystem_counts=(3,), sampling_mode="random", s_repetitions=3,
                 master_seed=10**400),
        ],
        ids=["rep1-selective", "rep1-random", "rep2-random", "rep2-selective",
             "rep4-selective-seed-10**400", "rep4-random-seed-10**400"],
    )
    def test_tables_equal_csv_module_text(self, tmp_path, overrides):
        config = tiny_config(tmp_path, shots=40, **overrides)
        out = run_experiment(config)
        samples = (out / "samples.csv").read_bytes().decode()
        rows = list(csv.reader(io.StringIO(samples, newline="")))[1:]
        # the rows as the tables were once built: the run id, five ints and
        # the repr of each value, written by the csv module
        rows = [[cells[0], *map(int, cells[1:6]), *(repr(float(c)) for c in cells[6:])] for cells in rows]
        assert {row[0] for row in rows} == {config.run_id}
        assert samples == reference_csv_text(SAMPLES_HEADER, rows)
        keep = [SAMPLES_HEADER.index(name) for name in POPULATIONS_HEADER]
        assert (out / "populations.csv").read_bytes().decode() == reference_csv_text(
            POPULATIONS_HEADER, [[row[i] for i in keep] for row in rows]
        )

    def test_table_text_refuses_an_empty_table(self):
        with pytest.raises(ValueError, match="refusing to write an empty table"):
            table_text(SAMPLES_HEADER, [])
        with pytest.raises(ValueError, match="refusing to write an empty table"):
            csv_text([])

    def test_every_table_equals_csv_module_text(self, tmp_path, monkeypatch, capsys):
        # each table csv_text writes (summary, the figures, the reference
        # curves and a calibration ranking) must be what csv.writer makes of
        # the same rows: ints, float reprs, bools, "" and fixed labels
        tables = []
        real = rundir.csv_text

        def recorded(rows):
            text = real(rows)
            assert text == reference_csv_text(list(rows[0]), [list(row.values()) for row in rows])
            tables.append(text)
            return text

        monkeypatch.setattr(report, "csv_text", recorded)
        monkeypatch.setattr(cli, "csv_text", recorded)
        names = ("summary", "fig1", "fig2a", "fig2b", "fig3")
        # two sizes fill every summary column; one leaves its fit cells ""
        for counts in ((2, 4), (2,)):
            out = analyze(run_experiment(tiny_config(tmp_path / str(counts), subsystem_counts=counts)))
            assert tables[-5:] == [(out / f"{name}.csv").read_text() for name in names]
        # a bool cell (horizon_unbounded), and blank ones
        assert tables[0].endswith(("True\n", "False\n")) and ",,," in tables[5]
        cal = tmp_path / "cal.json"
        cal.write_text(synthetic_calibration(n_qubits=16, seed=4).to_json())
        for args in (["reference", "--n-max", "3"], ["calibration", "rank", str(cal)]):
            assert cli_main(args) == 0
            assert capsys.readouterr().out == tables[-1]
        assert len(tables) == 12


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("analyzed")
    config = ExperimentConfig(
        representation=1,
        subsystem_counts=(2, 4, 8),
        output_dir=str(tmp / "run"),
        shots=4000,
        sampling_mode="selective",
        k_sets=2,
        calibration_seed=9,
        calibration_qubits=16,
        master_seed=1,
    )
    out = run_experiment(config)
    analyze(out)
    return out


class TestAnalyze:
    def test_each_command_writes_its_files_in_one_call(self, tmp_path, monkeypatch):
        # run removes any earlier report, then writes its four files with
        # the manifest last; analyze writes exactly the report files
        calls = []

        def recorded(directory, files, remove=()):
            calls.append((list(files), tuple(remove)))
            real(directory, files, remove)

        real = rundir.write_files
        monkeypatch.setattr(rundir, "write_files", recorded)
        monkeypatch.setattr(report, "write_files", recorded)
        out = analyze(run_experiment(tiny_config(tmp_path, shots=200)))
        written = ["samples.csv", "populations.csv", "calibration.json", "manifest.json"]
        assert calls == [(written, REPORT_FILES), (list(REPORT_FILES), ())]
        assert sorted(p.name for p in out.iterdir()) == sorted([*RUN_FILES, *REPORT_FILES])

    def test_run_removes_an_earlier_report(self, tmp_path):
        # a report describes the samples beside it: a run into an analysed
        # directory removes it, overwrites its own four files and leaves
        # every other file
        out = analyze(run_experiment(tiny_config(tmp_path, subsystem_counts=(1, 2), shots=200)))
        (out / "notes.txt").write_text("kept\n")
        assert run_experiment(tiny_config(tmp_path, subsystem_counts=(2,), shots=200)) == out
        assert sorted(p.name for p in out.iterdir()) == sorted([*RUN_FILES, "notes.txt"])
        assert (out / "notes.txt").read_text() == "kept\n"
        analyze(out)
        with open(out / "summary.csv", newline="") as fh:
            [row] = csv.DictReader(fh)
        assert row["n_points"] == "1"

    def test_summary_fields(self, run_dir):
        with open(run_dir / "summary.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["representation"] == "1"
        assert np.isfinite(float(row["delta_kcal_per_qubit"]))
        assert int(row["horizon_n_qubit"]) >= 0
        assert row["horizon_unbounded"] == "False"

    def test_figure_files(self, run_dir):
        for name in ("fig1", "fig2a", "fig2b", "fig3"):
            assert (run_dir / f"{name}.csv").exists()
            svg = (run_dir / f"{name}.svg").read_text()
            assert svg.startswith("<svg")

    def test_fig1_contains_fit_and_samples(self, run_dir):
        with open(run_dir / "fig1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        kinds = {row["kind"] for row in rows}
        assert kinds == {"sample", "fit"}

    def test_fig2a_cisd_crosses_fci_only_at_n1(self, run_dir):
        with open(run_dir / "fig2a.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        gaps = {
            int(r["n_subsystems"]): float(r["fci_double"]) - float(r["cisd_double"])
            for r in rows
        }
        assert gaps[1] == pytest.approx(0.0, abs=1e-10)
        for n, gap in gaps.items():
            if n > 1:
                assert gap > 0

    def test_single_size_leaves_slope_undetermined(self, tmp_path):
        out = run_experiment(tiny_config(tmp_path, subsystem_counts=(2,), shots=500))
        analyze(out)
        with open(out / "summary.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["n_points"] == "1"
        for name in ("delta_kcal_per_qubit", "slope_stderr_kcal_per_qubit",
                     "horizon_n_qubit", "horizon_n_h2", "horizon_unbounded"):
            assert row[name] == "", name
        assert np.isfinite(float(row["intercept_kcal"]))
        with open(out / "fig1.csv", newline="") as fh:
            assert {r["kind"] for r in csv.DictReader(fh)} == {"sample"}

    def test_truncated_samples_rejected(self, tmp_path):
        out = run_experiment(tiny_config(tmp_path, shots=500))
        lines = (out / "samples.csv").read_text().splitlines(keepends=True)
        (out / "samples.csv").write_text("".join(lines[:-1]))
        with pytest.raises(ValueError, match=DIGEST):
            analyze(out)
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            (dict(representation=1, subsystem_counts=(1, 2, 4)), {
                "summary.csv": "346f338d277afec2325b0ea8c988095fbe1b3e5234c90c99cf3f220e96fa7423",
                "fig1.csv": "6de6dbb994959b61ada7f6e14f58e957397083ad4c3fa2ec8f04dc6d3b8b62d1",
                "fig2a.csv": "3179f5b32fe3a12a4b74ea5ada7cd44b55121f6506244e452329ba15fc7834fe",
                "fig2b.csv": "4d5ad299deda3c69dcfd2d2eb0efad9951fccc937dc44ffcca1bb96b39fc0089",
                "fig3.csv": "39234dfe7c63c0c06385fb0717d7f35d62bc6c0602a559c287042241b596d5cf",
                "fig1.svg": "2d113d32e85268fe65f989a36a784665c2d1b462a28d28cb8f71045d6c5debea",
                "fig2a.svg": "0abc00d67f79dd39d99f4a3689b2ba3b004742d9f20457b99d09d7787dbf52f7",
                "fig2b.svg": "157cb70253803ceef78cb44e4186f193477b78fc8d7373d0d8248036a37c9413",
                "fig3.svg": "4673d6c74a2b05fab67365081c6fed8470e1ede11859f18bc9cc65b516ce8f81",
            }),
            (dict(representation=2, subsystem_counts=(2,)), {
                "summary.csv": "c5d029c0aba0f8a62ad0a8838c06616fd29d1bf7e45fd588dac1e2243d9cc3f5",
                "fig1.csv": "4ab6553a09dc1cab3c0fb039e6a349b667c5cf68335d1a9b6bac2df0657d8c71",
                "fig2a.csv": "54fc871a687f50d6c5e4edc4f561155ed20fd500f92da910698fa36faba1b73b",
                "fig2b.csv": "39305870ba5bd22c26b2b299060a82c5f4207186b832e1f03562aff85d63ea01",
                "fig3.csv": "807087c9ce4c31c9bf4d814066f04f31c54cc1d083bbfa70e91306ea403620d6",
                "fig1.svg": "c9ccf58f60a0d262a74037d5f5dfbc7b8935f562748da39d5605c7efcf5178c5",
                "fig2a.svg": "4143c57d76cf491be856ba8dd83d96016a7eb6766020a97845d7a94bfb36c596",
                "fig2b.svg": "9f3c074004787e9a3f5799cb74b1eb3e9d5736b01bea7140812f309ec3583818",
                "fig3.svg": "5a89557fadd926cf2bc40cf3f925f87c4ac4a8ce79a65c0dc30a4e709815418c",
            }),
            # at 8 or more values numpy's pairwise sum changes its order, so
            # this pins how analyze sums each sample's subsystem rows
            (dict(representation=1, subsystem_counts=(2, 8, 16), sampling_mode="random",
                  s_repetitions=6), {
                "summary.csv": "ba078a6af9b0666d2d18a086f5b7edbf887c79b356fd049c61ed94f769243763",
                "fig1.csv": "aaaa7c5c79e6c4b864c4e5948e08855311c22197056a4b3a41d32b474cc57b1d",
                "fig2a.csv": "6d7457d135fd796d798128d1821457472334cdf3d0804d0b021ceba3e5686560",
                "fig2b.csv": "ac8723877d5e9e806dc3bc9c09e2cde831f0e621837821b8b778f1bf3aa32e6d",
                "fig3.csv": "4c435c66e516c61dd5ced61d0f638c1462d84c4b6b60db642c4ba9c8edef14e4",
                "fig1.svg": "2b468016e6987234795dfe058543fd6a2a0d8e4e6281427b18baad6076d52542",
                "fig2a.svg": "b4ff43ff12f0d7dbad1af34cece8a32efe94da72b3efdc216c97b33589bf7e79",
                "fig2b.svg": "a6e8e7fc1f4ca85508f7c629de239044fc272db14fbf76f7974c5c5d92f42501",
                "fig3.svg": "74364a84181115576468044d753a90c9d70af06705b9ffd806f74c6f0d48f1d3",
            }),
            # the per-item workload's shape: fig1 holds 240 crosses on six
            # repeated x values
            (dict(representation=1, subsystem_counts=(1, 2, 3, 4, 5, 6), sampling_mode="random",
                  s_repetitions=40, shots=200), {
                "summary.csv": "c3a7eb2ec70865723abfa62f73ed63ddfa5d7efd0fa4154ac67a0aa0e014c2bc",
                "fig1.csv": "5eacc2275219f5d2b1a6bdd50540a01cd8de7924553b303c9a524d280e8a65c6",
                "fig2a.csv": "438ae1eaa888c59b120558b4de9b9bb9c8ab7e23bc8e58f08408bd01bd0eba43",
                "fig2b.csv": "fa2cfc969f34dd07a4f226e826367a20acf19fd83a5043f0b482befb70dfc252",
                "fig3.csv": "cb106df87386965719782f5aa19596856240cf2de59f210a0332128a1aa8dca6",
                "fig1.svg": "ab73f6013b137cece3021af26269efe261c9585649177731dcbacd33ebb58c40",
                "fig2a.svg": "ecd0792335109dfca048da7f00411cde891f50849c1b5c96a31913d7561c04ce",
                "fig2b.svg": "1ea2f59624b36633406c4e168d6da0856ce12f4f0734684bd76f3eb71a5748d9",
                "fig3.svg": "47d6c5909443b6e72b78f4d66057f42d28ce5eb4ebec6a267358ee713fe1db93",
            }),
        ],
        ids=["multi-n", "single-n", "random-n-2-8-16", "random-n-1-6-s40"],
    )
    def test_report_bytes_are_pinned(self, tmp_path, overrides, expected):
        # recorded when each figure still built its CSV rows and its SVG
        # series separately, (random-n-2-8-16) while analyze still averaged
        # each sample's rows one sample at a time, and (random-n-1-6-s40)
        # while analyze still read samples.csv with the csv module and drew
        # each cross point by point; fig2a re-recorded when the CISD and FCI
        # populations became one 2x2 closed form (the last bits moved); a
        # change to the report bytes must be deliberate
        out = analyze(run_experiment(tiny_config(tmp_path, **{"shots": 500, **overrides})))
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected
        }
        assert digests == expected

    def test_shuffled_samples_are_refused(self, tmp_path):
        # the rows are read in the order run writes them, which the digest
        # fixes
        config = tiny_config(tmp_path, subsystem_counts=(2, 8, 16), sampling_mode="random",
                             s_repetitions=4, shots=300)
        out = run_experiment(config)
        header, *rows = (out / "samples.csv").read_text().splitlines(keepends=True)
        np.random.default_rng(0).shuffle(rows)
        (out / "samples.csv").write_text(header + "".join(rows))
        with pytest.raises(ValueError) as err:
            analyze(out)
        assert str(err.value) == f"{out}/{DIGEST}"
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize(
        "overrides, shuffle",
        [
            (dict(representation=1, subsystem_counts=(2, 4)), False),
            (dict(representation=1, subsystem_counts=(1, 2, 3), sampling_mode="random",
                  s_repetitions=5), False),
            (dict(representation=2, subsystem_counts=(1, 2)), False),
            (dict(representation=2, subsystem_counts=(2, 3), sampling_mode="random",
                  s_repetitions=3, master_seed=10**400), False),
            (dict(representation=4, subsystem_counts=(1, 2)), False),
            (dict(representation=4, subsystem_counts=(1, 2), sampling_mode="random",
                  s_repetitions=3), False),
            (dict(representation=1, subsystem_counts=(2, 8, 16), sampling_mode="random",
                  s_repetitions=4), True),
        ],
        ids=["rep1-selective", "rep1-random", "rep2-selective", "rep2-random-long-run-id",
             "rep4-selective", "rep4-random", "rep1-random-shuffled"],
    )
    def test_load_samples_equals_reference(self, tmp_path, overrides, shuffle):
        out = run_experiment(tiny_config(tmp_path, shots=200, **overrides))
        if shuffle:  # a shuffled file is refused
            header, *rows = (out / "samples.csv").read_text().splitlines(keepends=True)
            np.random.default_rng(1).shuffle(rows)
            (out / "samples.csv").write_text(header + "".join(rows))
            with pytest.raises(ValueError) as err:
                load(out)
            assert str(err.value) == f"{out}/{DIGEST}"
        else:
            assert_same_samples(load(out), reference_load_samples(out, sample_keys(out)))

    # N=2, selective k=1: 16 rows, every set_index 0. The csv-module reader
    # accepted twelve of these edits and named the cell of the others; the
    # digest now refuses every edit as a whole.
    @pytest.mark.parametrize(
        "row, column, cell",
        [
            (1, "energy_hartree", " -1.1 "),
            (2, "set_index", " 0 "),
            (3, "p_single", '"0.5"'),
            (4, "set_index", '"0"'),
            (5, "p_double", "0_0"),
            (6, "set_index", "0_0"),
            (7, "set_index", "+0"),
            (8, "p_single", "+0"),
            (9, "set_index", '"0\n"'),
            (None, None, None),  # CRLF line ends
            (0, "p_hf", "p_double"),  # a name the header repeats
            (10, "energy_hartree", ""),
            (11, "sample_index", ""),
            (12, "p_double", "0x0p0"),
            (13, "set_index", "0.0"),
            (14, "set_index", "0x0"),
            (15, "energy_shot_stderr_hartree", "1e400"),
            (16, "p_single", "Infinity"),
            (3, "energy_hartree", '"1,5"'),
            (5, "set_index", "#0"),
            (6, "set_index", "\u0660"),
            (7, "p_single", "0\x00"),
            (8, "set_index", "\x1c0"),
            (9, "energy_hartree", "-1.1\x1f"),
        ],
        ids=["spaced-float", "spaced-int", "quoted-float", "quoted-int", "underscore-float",
             "underscore-int", "plus-zero-int", "plus-zero-float", "quoted-line-break", "crlf",
             "repeated-header-name",
             "empty-float", "empty-int", "hex-float", "float-in-int-column", "hex-int",
             "overflowing-float", "infinity", "quoted-comma", "hash-int", "arabic-indic-zero",
             "nul-float", "separator-int", "separator-float"],
    )
    def test_hand_edited_cell_verdicts_are_pinned(self, tmp_path, row, column, cell):
        out = run_experiment(tiny_config(tmp_path, subsystem_counts=(2,), shots=200))
        text = (out / "samples.csv").read_text()
        if row is None:  # CRLF line ends
            (out / "samples.csv").write_bytes(text.replace("\n", "\r\n").encode())
        else:
            (out / "samples.csv").write_text(set_cell(text, row, column, cell))
        with pytest.raises(ValueError) as err:
            load(out)
        assert str(err.value) == f"{out}/{DIGEST}"

    def test_analyze_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not a run directory"):
            analyze(tmp_path / "nothing")


class TestReferenceTable:
    def test_rows_and_monotonic_cisd(self):
        rows = reference_table(0.7414, 6)
        assert [int(r["n_subsystems"]) for r in rows] == [1, 2, 3, 4, 5, 6]
        fci = float(rows[0]["fci_energy_per_h2"])
        cisd = [float(r["cisd_energy_per_h2"]) for r in rows]
        assert cisd[0] == pytest.approx(fci, abs=1e-10)
        assert all(a < b for a, b in zip(cisd, cisd[1:]))  # per-H2 energy rises

    def test_invalid_n_max(self):
        with pytest.raises(ValueError, match="n_max"):
            reference_table(0.7414, 0)


class TestCli:
    def test_full_cycle(self, tmp_path, capsys):
        cal_path = tmp_path / "cal.json"
        assert cli_main(["calibration", "generate", "--seed", "4", "--n-qubits", "16",
                         "--output", str(cal_path)]) == 0
        assert cal_path.exists()

        assert cli_main(["calibration", "rank", str(cal_path)]) == 0
        ranked = capsys.readouterr().out
        assert ranked.splitlines()[0] == "rank,qubit,score"

        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "representation": 1,
                    "subsystem_counts": [2],
                    "shots": 500,
                    "sampling": {"mode": "selective", "k": 1},
                    "calibration": {"file": str(cal_path)},
                    "output_dir": str(tmp_path / "cli-run"),
                    "master_seed": 0,
                }
            )
        )
        assert cli_main(["run", str(config_path)]) == 0
        assert cli_main(["analyze", str(tmp_path / "cli-run")]) == 0
        assert (tmp_path / "cli-run" / "summary.csv").exists()

    def test_reference_to_stdout(self, capsys):
        assert cli_main(["reference", "--n-max", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("n_subsystems,")
        assert len(out.strip().splitlines()) == 4

    def test_config_error_is_categorized(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"representation": 9, "subsystem_counts": [1], "output_dir": "x"}')
        assert cli_main(["run", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:")

    @pytest.mark.parametrize(
        "override",
        [
            {"shots": 1.5},
            {"calibration": {"synthetic_seed": 7, "n_qubits": 16.0}},
            {"representation": "4"},
        ],
    )
    def test_mistyped_config_is_categorized(self, tmp_path, capsys, override):
        bad = tmp_path / "bad.json"
        config = {"representation": 1, "subsystem_counts": [2], "output_dir": "x"}
        bad.write_text(json.dumps({**config, **override}))
        assert cli_main(["run", str(bad)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: config:")

    def test_malformed_calibration_is_categorized(self, tmp_path, capsys):
        cal = tmp_path / "cal.json"
        cal.write_text('{"qubits": [{"readout_p10": 0.01}]}')
        assert cli_main(["calibration", "rank", str(cal)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: value: calibration: qubits[0].readout_p01 is missing"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "representation": 1, "subsystem_counts": [2], "shots": 10,
            "calibration": {"file": str(cal)}, "output_dir": str(tmp_path / "run"),
        }))
        assert cli_main(["run", str(config)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: value: calibration: qubits[0].readout_p01 is missing"]

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"sampling": {"k": 0}}, "sampling.k: must be >= 1, got 0"),
            ({"sampling": {"mode": "random", "s": 0}}, "sampling.s: must be >= 1, got 0"),
            ({"sampling": {"k": 2**32}}, "sampling.k: must be <= 4294967295, got 4294967296"),
            ({"sampling": {"mode": "random", "s": 2**32}},
             "sampling.s: must be <= 4294967295, got 4294967296"),
            ({"sampling": {"mode": "best"}}, "sampling.mode: unknown mode 'best'"),
            ({"calibration": {"n_qubits": 8}}, "calibration.n_qubits: must be >= 16, got 8"),
            ({"calibration": {"file": "absent.json"}}, "calibration.file: no such file: absent.json"),
            ({"subsystem_counts": [2, 2, 4]}, "subsystem_counts: lists an N more than once: [2, 2, 4]"),
            ({"sampling": {"mode": "random", "s": 4, "k": 2}},
             "sampling.k: is not used with sampling mode 'random'"),
            ({"sampling": {"s": 4}}, "sampling.s: is not used with sampling mode 'selective'"),
            ({"calibration": {"file": "c.json", "synthetic_seed": 7}},
             "calibration.synthetic_seed: is not used with calibration.file"),
            ({"calibration": {"file": "c.json", "n_qubits": 156}},
             "calibration.n_qubits: is not used with calibration.file"),
            ({"master_seed": -1}, "master_seed: must be >= 0, got -1"),
            ({"calibration": {"synthetic_seed": -2}}, "calibration.synthetic_seed: must be >= 0, got -2"),
            ({"output_dir": ""}, "output_dir: must not be empty"),
            # past the float range, where math.isfinite raises OverflowError
            ({"bond_length": 10**400}, f"bond_length: must be positive and finite, got {10**400}"),
            # shots past int64 and at 2**40, each times 48 rows past the
            # config.MAX_SHOT_ROWS budget, and a device past config.MAX_QUBITS
            ({"shots": 2**63}, "shots: plans 442721857769029238784 shot-rows (9223372036854775808 "
                               "shots on each of 48 samples.csv rows), over the 1073741824 shot-row budget"),
            ({"calibration": {"n_qubits": 1025}}, "calibration.n_qubits: must be <= 1024, got 1025"),
            ({"shots": 2**40}, "shots: plans 52776558133248 shot-rows (1099511627776 shots on each of "
                               "48 samples.csv rows), over the 1073741824 shot-row budget"),
        ],
    )
    def test_config_error_names_json_path(self, tmp_path, capsys, monkeypatch, override, message):
        monkeypatch.chdir(tmp_path)
        config = {"representation": 1, "subsystem_counts": [2], "output_dir": "run"}
        (tmp_path / "config.json").write_text(json.dumps({**config, **override}))
        assert cli_main(["run", "config.json"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: config: {message}"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "calibration, message",
        [
            ({"qubits": [{"readout_p10": 1.5, "readout_p01": 0, "single_qubit_error": 0}]},
             "qubits[0].readout_p10 = 1.5 outside [0, 1]"),
            ({"qubits": [{"readout_p10": 0, "readout_p01": 0, "single_qubit_error": 0}] * 2,
              "two_qubit_error": [{"pair": [0, 1], "error": 1.5}]},
             "two_qubit_error[0].error = 1.5 outside [0, 1]"),
            ({"qubits": [{"readout_p10": 0, "readout_p01": 0, "single_qubit_error": 0}] * 2,
              "two_qubit_error": [{"pair": [0, 1], "error": 0.1}, {"pair": [1, 1], "error": 0.1}]},
             "two_qubit_error[1].pair [1, 1] repeats a qubit or leaves the device"),
            ({"qubits": [{"readout_p10": 0, "readout_p01": 0, "single_qubit_error": 0}] * 2,
              "two_qubit_error": [{"pair": [0, 2], "error": 0.1}]},
             "two_qubit_error[0].pair [0, 2] repeats a qubit or leaves the device"),
        ],
    )
    def test_calibration_range_error_names_entry(self, tmp_path, capsys, calibration, message):
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(calibration))
        assert cli_main(["calibration", "rank", str(cal)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: value: calibration: {message}"]

    def test_unknown_section_key_is_categorized(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "representation": 1, "subsystem_counts": [2], "output_dir": "x",
            "sampling": {"kk": 0},
        }))
        assert cli_main(["run", str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: config: sampling.kk: unknown field"]

    def test_calibration_rank_scores_equal_qubit_score(self, tmp_path, capsys):
        device = synthetic_calibration(n_qubits=156, seed=7)
        cal = tmp_path / "cal.json"
        cal.write_text(device.to_json())
        assert cli_main(["calibration", "rank", str(cal)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank,qubit,score"
        expected = sorted((scanned_score(device, q), q) for q in range(156))
        assert lines[1:] == [
            f"{rank},{q},{score!r}" for rank, (score, q) in enumerate(expected)
        ]

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_bond_length_run_is_one_line(self, tmp_path, value):
        config = tmp_path / "config.json"
        config.write_text(
            '{"representation": 1, "subsystem_counts": [2], "output_dir": "%s", '
            '"bond_length": %s}' % (tmp_path / "run", value)
        )
        result = run_cli("run", str(config))
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            f"error: config: bond_length: must be positive and finite, got {float(value)}"
        ]
        assert not (tmp_path / "run").exists()

    def test_calibration_file_not_json_is_one_line(self, tmp_path):
        cal = tmp_path / "cal.json"
        cal.write_text("qubits: 16\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "representation": 1, "subsystem_counts": [2], "calibration": {"file": str(cal)},
            "output_dir": str(tmp_path / "run"),
        }))
        result = run_cli("run", str(config))
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            f"error: config: calibration.file: {cal} is not valid JSON: "
            "Expecting value: line 1 column 1 (char 0)"
        ]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("broken", ["config", "calibration"])
    def test_file_not_utf8_is_one_line(self, tmp_path, broken):
        cal = tmp_path / "cal.json"
        cal.write_text(synthetic_calibration(n_qubits=16, seed=7).to_json())
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "representation": 1, "subsystem_counts": [2], "calibration": {"file": str(cal)},
            "output_dir": str(tmp_path / "run"),
        }))
        path, field = {"config": (config, "document"), "calibration": (cal, "calibration.file")}[broken]
        path.write_bytes(b"\xff" + path.read_bytes())
        result = run_cli("run", str(config))
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            f"error: config: {field}: {path} is not valid UTF-8: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte"
        ]
        assert not (tmp_path / "run").exists()

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="json reads integers of any length before Python 3.11")
    @pytest.mark.parametrize("broken", ["config", "calibration"])
    def test_integer_past_digit_limit_is_one_line(self, tmp_path, capsys, broken):
        # json.loads raises a plain ValueError, not a JSONDecodeError, there
        long_int = "9" * (sys.get_int_max_str_digits() + 1)
        cal = tmp_path / "cal.json"
        cal.write_text(synthetic_calibration(n_qubits=16, seed=7).to_json())
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "representation": 1, "subsystem_counts": [2], "calibration": {"file": str(cal)},
            "output_dir": str(tmp_path / "run"),
        }))
        path, key, message = {
            "config": (config, '"representation"', "document: not valid JSON"),
            "calibration": (cal, '"error"', f"calibration.file: {cal} is not valid JSON"),
        }[broken]
        path.write_text(path.read_text().replace(f"{key}: ", f"{key}: {long_int}, {key}: ", 1))
        assert cli_main(["run", str(config)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: config: {message}: Exceeds the limit")
        assert not (tmp_path / "run").exists()

    def test_too_short_bond_length_is_one_line(self, tmp_path):
        # 0.01 angstrom builds; at 0.001 the MO integrals lose so many digits
        # that the Jordan-Wigner image is non-Hermitian past its bound
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "representation": 1, "subsystem_counts": [2], "output_dir": str(tmp_path / "run"),
            "bond_length": 0.001,
        }))
        for result in (run_cli("run", str(config)),
                       run_cli("reference", "--n-max", "2", "--bond-length=0.001")):
            assert result.returncode == 1
            assert result.stdout == ""
            [line] = result.stderr.splitlines()
            assert line.startswith("error: value: non-Hermitian input: imaginary Pauli weight ")
        assert not (tmp_path / "run").exists()

    def test_reference_at_the_bond_bound_runs(self):
        # run at the bound is one of test_cli_contract's VALID_EDGES
        result = run_cli("reference", "--n-max", "2", f"--bond-length={MAX_BOND_LENGTH}")
        assert (result.returncode, result.stderr) == (0, "")
        assert len(result.stdout.splitlines()) == 3

    @pytest.mark.parametrize(
        "value, message",
        [
            (repr(past), f"bond length {past} angstrom is over 6.0, past which round-off mixes "
                         "sigma_g and sigma_u beyond the tapering and synthesis checks")
            for past in (math.nextafter(MAX_BOND_LENGTH, math.inf), 1e308)
        ] + [
            ("1e-300", "overlap matrix at bond length 1e-300 angstrom is singular "
                       "(smallest eigenvalue 0.000e+00)"),
        ],
        ids=["just-past-the-bound", "1e308", "1e-300"],
    )
    def test_extreme_bond_length_is_one_line(self, tmp_path, value, message):
        # each used to print numpy RuntimeWarnings before its error line
        config = tmp_path / "config.json"
        config.write_text(
            '{"representation": 1, "subsystem_counts": [2], "output_dir": "%s", '
            '"bond_length": %s}' % (tmp_path / "run", value)
        )
        result = run_cli("run", str(config))
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"error: value: {message}"]
        assert not (tmp_path / "run").exists()
        result = run_cli("reference", "--n-max", "2", f"--bond-length={value}")
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"error: value: {message}"]
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"qubits: 16\n",
             "config: file: {path} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
            (b"\xff{}", "config: file: {path} is not valid UTF-8: 'utf-8' codec can't decode "
                        "byte 0xff in position 0: invalid start byte"),
            (None, "config: file: no such file: {path}"),
            (b'{"qubits": [], "two_qubit_error": []}', "value: {path} holds no qubits to rank"),
        ],
        ids=["not-json", "not-utf8", "missing", "no-qubits"],
    )
    def test_calibration_rank_file_error_is_one_line(self, tmp_path, text, message):
        cal = tmp_path / "cal.json"
        if text is not None:
            cal.write_bytes(text)
        result = run_cli("calibration", "rank", str(cal))
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"error: {message.format(path=cal)}"]
        assert result.stdout == ""

    @pytest.mark.parametrize("broken", ["config", "calibration-run", "calibration-rank", "manifest"])
    def test_deeply_nested_json_is_one_line(self, tmp_path, capsys, broken):
        # json.loads raises a RecursionError, not a ValueError, on nesting
        # past the recursion limit; each reader reports it as it reports any
        # other text that is not JSON, on the line that names the file
        cal = tmp_path / "cal.json"
        cal.write_text(synthetic_calibration(n_qubits=16, seed=7).to_json())
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "representation": 1, "subsystem_counts": [2], "calibration": {"file": str(cal)},
            "output_dir": str(tmp_path / "run"), "shots": 10,
        }))
        run_dir = tmp_path / "done"
        if broken == "manifest":
            run_experiment(tiny_config(tmp_path, output_dir=str(run_dir), subsystem_counts=(2,), shots=10))
        path, args = {
            "config": (config, ["run", str(config)]),
            "calibration-run": (cal, ["run", str(config)]),
            "calibration-rank": (cal, ["calibration", "rank", str(cal)]),
            "manifest": (run_dir / "manifest.json", ["analyze", str(run_dir)]),
        }[broken]
        lines = []
        for text in ("qubits: 16\n", "[" * 100_000 + "]" * 100_000):
            path.write_text(text)
            assert cli_main(args) == 1
            [line] = capsys.readouterr().err.splitlines()
            lines.append(line)
        decoded = "Expecting value: line 1 column 1 (char 0)"
        nested = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
        assert lines[0].endswith(f"not valid JSON: {decoded}")
        assert lines[1] == lines[0].removesuffix(decoded) + nested
        assert not (tmp_path / "run").exists()
        assert not (run_dir / "summary.csv").exists()

    def test_generated_calibration_file_runs_as_its_synthetic_seed(self, tmp_path):
        # calibration generate writes the device the generator draws, and a
        # run reads it back to the same device: the run directories agree
        cal = tmp_path / "device.json"
        assert cli_main(["calibration", "generate", "--seed", "7", "--n-qubits", "156",
                         "--output", str(cal)]) == 0
        runs = {}
        for name, calibration in (("synthetic", {"synthetic_seed": 7, "n_qubits": 156}),
                                  ("file", {"file": str(cal)})):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({
                "representation": 2, "subsystem_counts": [1, 2, 4], "shots": 300,
                "sampling": {"mode": "random", "s": 3}, "calibration": calibration,
                "output_dir": str(tmp_path / name),
            }))
            assert cli_main(["run", str(config)]) == 0
            runs[name] = tmp_path / name
        assert (runs["file"] / "calibration.json").read_bytes() == cal.read_bytes()
        for table in ("samples.csv", "populations.csv", "calibration.json"):
            assert (runs["file"] / table).read_bytes() == (runs["synthetic"] / table).read_bytes()

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--seed", "-1"), "argument --seed: must be >= 0, got -1"),
            (("--seed", "x"), "argument --seed: invalid int value: 'x'"),
            (("--seed", "1", "--n-qubits", "0"), "argument --n-qubits: must be >= 1, got 0"),
            (("--seed", "1", "--n-qubits", str(MAX_QUBITS + 1)),
             f"argument --n-qubits: must be <= {MAX_QUBITS}, got {MAX_QUBITS + 1}"),
            (("--seed", "1", "--n-qubits", str(10**29)),
             f"argument --n-qubits: must be <= {MAX_QUBITS}, got {10**29}"),
        ],
        ids=["negative-seed", "text-seed", "zero-qubits", "too-many-qubits", "10**29-qubits"],
    )
    def test_calibration_generate_names_bad_option(self, args, message):
        result = run_cli("calibration", "generate", *args)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            f"error: usage: sizecon calibration generate: {message}"
        ]
        assert result.stdout == ""

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_bond_length_reference_is_one_line(self, value):
        result = run_cli("reference", "--n-max", "2", f"--bond-length={value}")
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            f"error: value: bond length must be positive and finite, got {float(value)}"
        ]
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args, message",
        [
            (("reference", "--n-max", "x"), "sizecon reference: argument --n-max: invalid int"),
            # argparse reads -inf as an option, not as the option's value
            (
                ("reference", "--n-max", "2", "--bond-length", "-inf"),
                "sizecon reference: argument --bond-length: expected one argument",
            ),
            (("bogus",), "sizecon: argument command: invalid choice: 'bogus'"),
        ],
    )
    def test_usage_error_is_one_line(self, args, message):
        result = run_cli(*args)
        assert result.returncode == 1
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(f"error: usage: {message}")
        assert result.stdout == ""

    def test_help_still_exits_zero(self):
        result = run_cli("reference", "--help")
        assert result.returncode == 0
        assert result.stdout.startswith("usage: sizecon reference")
        assert result.stderr == ""

    def test_missing_file_is_categorized(self, tmp_path, capsys):
        assert cli_main(["run", str(tmp_path / "absent.json")]) == 1
        assert capsys.readouterr().err.startswith("error: io:")

    def test_analyze_error(self, tmp_path, capsys):
        assert cli_main(["analyze", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: io:")

    @pytest.mark.parametrize(
        "name, damage, message",
        [
            ("manifest.json", lambda text: "{}", "manifest.json has no key config"),
            # the config is read as a config file is, and a fault names its key
            ("manifest.json", lambda text: set_key(text, "config.representation", None),
             "manifest.json key config.representation: must be an integer, got None"),
            ("manifest.json", lambda text: set_key(text, "config.representation", 3),
             "manifest.json key config.representation: must be 1, 2 or 4, got 3"),
            ("manifest.json", lambda text: set_key(text, "config.representation", True),
             "manifest.json key config.representation: must be an integer, got True"),
            ("manifest.json", lambda text: set_key(text, "config.sampling.k", 0),
             "manifest.json key config.sampling.k: must be >= 1, got 0"),
            ("manifest.json", lambda text: set_key(text, "config", [1]),
             "manifest.json key config: top level must be an object"),
            ("manifest.json", lambda text: set_key(text, "reference.coupling", None),
             "manifest.json key reference.coupling must be a finite number, not null"),
            ("manifest.json", lambda text: set_key(text, "reference.e_hf_sub", float("nan")),
             "manifest.json key reference.e_hf_sub must be a finite number, not NaN"),
            ("manifest.json", lambda text: set_key(text, "reference.e_double_sub", False),
             "manifest.json key reference.e_double_sub must be a finite number, not false"),
            # an integer past the float range is not finite
            ("manifest.json", lambda text: set_key(text, "reference.e_hf_sub", 10**400),
             f"manifest.json key reference.e_hf_sub must be a finite number, not {10**400}"),
            ("manifest.json", lambda text: "",
             "manifest.json is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
            # the manifest's config fixes the rows it expects: N=2, selective
            # k=1 is 8 samples of 2 rows, and N=1 or N=4 is 16 rows too
            ("manifest.json", lambda text: set_key(text, "config.sampling.k", 2),
             "samples.csv has 16 subsystem rows; its manifest expects 32"),
            ("manifest.json", lambda text: set_key(text, "config.subsystem_counts", [1]),
             "samples.csv holds subsystem rows [] for N1/set0/sample0; its manifest expects [0]"),
            ("manifest.json", lambda text: set_key(text, "config.subsystem_counts", [4]),
             "samples.csv holds subsystem rows [0, 1] for N2/set0/sample0; its manifest expects none"),
            ("manifest.json", lambda text: json.dumps(
                {k: v for k, v in json.loads(text).items() if k != "samples_sha256"}),
             "manifest.json has no key samples_sha256"),
            ("manifest.json", lambda text: set_key(text, "samples_sha256", "0" * 64), DIGEST),
            ("manifest.json", lambda text: set_key(text, "samples_sha256", None), DIGEST),
            # any edit of samples.csv is refused as a whole
            ("samples.csv", lambda text: text.replace(",p_double,", ",p_doubel,", 1), DIGEST),
            ("samples.csv", lambda text: set_cell(text, 1, "sample_index", "1"), DIGEST),
            ("samples.csv", lambda text: set_cell(text, 2, "subsystem", "0"), DIGEST),
            ("samples.csv", lambda text: set_cell(text, 16, "n_subsystems", "1"), DIGEST),
            ("samples.csv", lambda text: set_cell(text, 3, "energy_hartree", "abc"), DIGEST),
            ("samples.csv", lambda text: set_cell(text, 5, "set_index", "0.5"), DIGEST),
            ("samples.csv", lambda text: set_cell(text, 4, "sample_index", "9" * 20), DIGEST),
            ("samples.csv",
             lambda text: "\n".join(line.rsplit(",", 1)[0] if row == 2 else line
                                    for row, line in enumerate(text.split("\n"))),
             DIGEST),
            ("samples.csv", lambda text: text + "\n", DIGEST),
            ("samples.csv", lambda text: insert_line(text, 3, ""), DIGEST),
            ("samples.csv", lambda text: insert_line(text, 3, "#x"), DIGEST),
            ("samples.csv", lambda text: set_cell(text, 6, "p_double", "inf"), DIGEST),
            ("samples.csv", lambda text: set_cell(text, 7, "energy_hartree", "nan"), DIGEST),
            # a lone surrogate is written as the byte 0xff
            ("samples.csv", lambda text: text[:1136] + "\udcff" + text[1136:], DIGEST),
            ("samples.csv", lambda text: text + "\udcff", DIGEST),
        ],
        ids=["empty-manifest",
             "null-representation", "representation-3", "bool-representation",
             "config-k-0", "config-array",
             "null-coupling", "nan-reference", "bool-reference", "reference-past-float",
             "manifest-not-json",
             "config-k-2", "config-n-1", "config-n-4", "no-samples-digest", "other-samples-digest",
             "null-samples-digest",
             "renamed-column", "moved-row",
             "repeated-subsystem", "unlisted-sample", "not-a-number", "not-an-integer",
             "too-large-an-integer", "short-row", "trailing-blank-line", "blank-line",
             "comment-line", "inf-cell", "nan-cell", "byte-0xff-mid-file", "byte-0xff-at-end"],
    )
    def test_malformed_run_dir_is_categorized(self, tmp_path, capsys, name, damage, message):
        out = run_experiment(tiny_config(tmp_path, subsystem_counts=(2,), shots=200))
        (out / name).write_text(damage((out / name).read_text()), errors="surrogateescape")
        assert cli_main(["analyze", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: value: {out}/{message}"]

    def test_truncated_run_is_categorized(self, tmp_path, capsys):
        # the last sample's rows and its seeds both gone: the rows still
        # fall short of what the manifest's config plans
        out = run_experiment(tiny_config(tmp_path, subsystem_counts=(2,), shots=200))
        text = (out / "samples.csv").read_text()
        (out / "samples.csv").write_text("".join(text.splitlines(keepends=True)[:-2]))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["seeds"] = {k: v for k, v in manifest["seeds"].items() if "/sample7/" not in k}
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert cli_main(["analyze", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: value: {out}/{DIGEST}"]

    def test_reports_do_not_read_seeds(self, tmp_path):
        # a run and its copy without the manifest's seeds give the same bytes
        out = run_experiment(tiny_config(tmp_path, shots=200))
        bare = shutil.copytree(out, tmp_path / "bare")
        manifest = json.loads((bare / "manifest.json").read_text())
        del manifest["seeds"]
        (bare / "manifest.json").write_text(json.dumps(manifest))
        analyze(out)
        analyze(bare)
        names = sorted(p.name for p in out.iterdir())
        assert "summary.csv" in names and "fig1.svg" in names
        for name in names:
            if name != "manifest.json":
                assert (bare / name).read_bytes() == (out / name).read_bytes(), name

    def test_stale_samples_are_categorized(self, tmp_path, capsys):
        out = run_experiment(tiny_config(tmp_path, subsystem_counts=(2,), shots=200))
        text = (out / "samples.csv").read_text()
        (out / "samples.csv").write_text(text + text.split("\n", 1)[1])
        assert cli_main(["analyze", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: value: {out}/{DIGEST}"]
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: set_cell(text, 7, "p_single", "0\x00"),
            lambda text: set_cell(text, 8, "set_index", "\x1c0"),
            lambda text: set_cell(text, 9, "energy_hartree", "-1.1\x1f"),
            # numpy 2.4.6's C reader crashed on this integer cell
            lambda text: set_cell(text, 6, "set_index", "\U0010fffd0"),
            lambda text: set_cell(text, 4, "set_index", '"0"'),
            lambda text: text.replace("\n", "\r\n"),
        ],
        ids=["nul", "x1c", "x1f", "u10fffd", "quoted-cell", "crlf"],
    )
    def test_forged_digest_text_is_refused_without_a_crash(self, tmp_path, edit):
        # a manifest whose digest was rewritten to match is outside input
        # still: the whole-file check keeps such text from numpy's reader
        out = run_experiment(tiny_config(tmp_path, subsystem_counts=(2,), shots=200))
        forge(out, edit((out / "samples.csv").read_text()))
        result = run_cli("analyze", str(out))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.splitlines() == [f"error: value: {out}/{NOT_RUN_TEXT}"]
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text.replace(",p_double,", ",p_doubel,", 1),
             "header is not " + ",".join(SAMPLES_HEADER)),
            (lambda text: text + "\n", NOT_RUN_TEXT.removeprefix("samples.csv ")),
            (lambda text: "\n".join(" " if row == 3 else line for row, line in enumerate(text.split("\n"))),
             "does not parse: invalid column index 2 at line 4 with 1 columns"),
            (lambda text: "\n".join(",".join(line.split(",")[:10]) if row == 16 else line
                                    for row, line in enumerate(text.split("\n"))),
             "does not parse: invalid column index 10 at line 17 with 10 columns"),
            (lambda text: set_cell(text, 3, "energy_hartree", "abc"),
             "does not parse: could not convert string 'abc' to float64 at line 4, column 7."),
            (lambda text: set_cell(text, 1, "n_subsystems", "two"),
             "does not parse: could not convert string 'two' to int64 at line 2, column 3."),
            (lambda text: set_cell(text, 5, "p_single", "0 at row 9"),
             "does not parse: could not convert string '0 at row 9' to float64 at line 6, column 11."),
            (lambda text: set_cell(text, 4, "sample_index", "9" * 20),
             f"does not parse: could not convert string '{'9' * 20}' to int64 at line 5, column 5."),
            (lambda text: set_cell(text, 6, "p_double", "inf"),
             "column p_double holds a value that is not a finite number"),
            (lambda text: set_cell(text, 15, "energy_shot_stderr_hartree", "1e400"),
             "column energy_shot_stderr_hartree holds a value that is not a finite number"),
            (lambda text: set_cell(text, 1, "sample_index", "1"),
             "holds subsystem rows [1] for N2/set0/sample0; its manifest expects [0, 1]"),
            (lambda text: set_cell(text, 2, "subsystem", "0"),
             "holds subsystem rows [0, 0] for N2/set0/sample0; its manifest expects [0, 1]"),
            (lambda text: edit_row(text, 16, lambda line: line.rsplit(",", 1)[0]),
             "line 17 has 12 cells, not 13"),
            (lambda text: edit_row(text, 16, lambda line: line + ",9"),
             "line 17 has 14 cells, not 13"),
            (lambda text: edit_row(text, 2, lambda line: line.rsplit(",", 1)[0]),
             "line 3 has 12 cells, not 13"),
        ],
        ids=["renamed-column", "trailing-blank-line", "all-space-row", "short-last-row", "not-a-number",
             "not-a-number-first-row", "cell-text-naming-a-row", "too-large-an-integer", "inf-cell",
             "overflowing-float", "moved-row", "repeated-subsystem", "last-row-lost-its-unread-cell",
             "last-row-gained-a-cell", "second-row-lost-its-unread-cell"],
    )
    def test_forged_digest_rows_are_checked(self, tmp_path, capsys, edit, message):
        # past the whole-file check, numpy's reader names what it rejects;
        # a short row and a cell it cannot convert are both named by their
        # line in the file, the header being line 1, though numpy counts
        # the first from 1 and the second from 0 among the data rows
        out = run_experiment(tiny_config(tmp_path, subsystem_counts=(2,), shots=200))
        forge(out, edit((out / "samples.csv").read_text()))
        assert cli_main(["analyze", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: value: {out}/samples.csv {message}"]
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize("k", [MAX_ROWS // 16, MAX_ROWS // 16 + 1, 262144, 2**32 - 1])
    def test_oversized_manifest_config_is_refused_in_little_memory(self, tmp_path, capsys, k):
        # the row count is checked before any key array is built: the keys
        # of k = 262144 alone took 125 MB, and of 2**32 - 1 about 480 GB.
        # Past the row budget the manifest's config is refused first.
        out = run_experiment(tiny_config(tmp_path, subsystem_counts=(2,), shots=200))
        manifest = (out / "manifest.json").read_text()
        (out / "manifest.json").write_text(set_key(manifest, "config.sampling.k", k))
        tracemalloc.start()
        try:
            code = cli_main(["analyze", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        message = (f"samples.csv has 16 subsystem rows; its manifest expects {16 * k}"
                   if 16 * k <= MAX_ROWS else
                   f"manifest.json key config.sampling.k: plans {16 * k} samples.csv rows, "
                   f"over the {MAX_ROWS}-row budget")
        assert capsys.readouterr().err.splitlines() == [f"error: value: {out}/{message}"]
        assert peak < 1_000_000

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-the-budget", "one-shot-more"])
    def test_manifest_shots_at_the_shot_row_budget(self, tmp_path, capsys, extra):
        # analyze reads the manifest's config as run reads a config file: 16
        # rows at the most shots the shot-row budget admits are analysed (no
        # value analyze computes reads the shots), and one shot more is
        # refused by the budget in the manifest's line
        out = run_experiment(tiny_config(tmp_path, subsystem_counts=(2,), shots=200))
        shots = MAX_SHOT_ROWS // 16 + extra
        manifest = (out / "manifest.json").read_text()
        (out / "manifest.json").write_text(set_key(manifest, "config.shots", shots))
        code = cli_main(["analyze", str(out)])
        if extra:
            assert code == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: value: {out}/manifest.json key config.shots: plans {16 * shots} shot-rows "
                f"({shots} shots on each of 16 samples.csv rows), over the {MAX_SHOT_ROWS} shot-row budget"
            ]
            assert not (out / "summary.csv").exists()
        else:
            assert (code, capsys.readouterr()) == (0, (f"analysis written to: {out}\n", ""))

    @staticmethod
    def forge_values(out, values):
        """Forge ``out``'s samples.csv with the cells ``values[n][column]``
        set in every row of N = n."""
        lines = (out / "samples.csv").read_text().split("\n")
        header = lines[0].split(",")
        for row, line in enumerate(lines[1:-1], 1):
            cells = line.split(",")
            for column, value in values.get(int(cells[header.index("n_subsystems")]), {}).items():
                cells[header.index(column)] = value
            lines[row] = ",".join(cells)
        forge(out, "\n".join(lines))

    def test_forged_slope_past_the_horizons_float_range_is_unbounded(self, tmp_path):
        # a fit of N = 1 at 0.0 and N = 2 at the least subnormal, with no
        # shot noise, has a slope of about 3e-321, whose 1 / |slope|
        # overflows: the horizon is the unbounded sentinel, as at slope 0
        out = run_experiment(tiny_config(tmp_path, subsystem_counts=(1, 2), shots=100))
        self.forge_values(out, {
            1: {"energy_hartree": "0.0", "energy_shot_stderr_hartree": "0.0"},
            2: {"energy_hartree": "5e-324", "energy_shot_stderr_hartree": "0.0"},
        })
        result = run_cli("analyze", str(out))
        assert (result.returncode, result.stdout, result.stderr) == (0, f"analysis written to: {out}\n", "")
        with open(out / "summary.csv", newline="") as fh:
            [row] = csv.DictReader(fh)
        assert 0 < float(row["delta_kcal_per_qubit"]) < 1e-320
        assert (row["horizon_n_qubit"], row["horizon_n_h2"], row["horizon_unbounded"]) == ("0", "0", "True")

    @pytest.mark.parametrize(
        "counts, values",
        [((1, 2), {2: {"energy_hartree": "1e308"}}),
         ((1, 2), {2: {"energy_shot_stderr_hartree": "1e300"}}),
         ((1, 2), {2: {"p_double": "1e308"}}),
         ((1,), {1: {"p_double": "1e308"}})],
        ids=["energy", "shot-stderr", "population", "population-after-the-fit"],
    )
    def test_forged_values_that_overflow_are_one_line(self, tmp_path, counts, values):
        # finite cells whose statistics overflow end in one line naming
        # samples.csv, and no numpy warning. The first three overflow as
        # N = 2's rows are summed; p_double at a single N only in fig2a's
        # squares, after the summary and fig1 are built
        out = run_experiment(tiny_config(tmp_path, subsystem_counts=counts, shots=100))
        self.forge_values(out, values)
        result = run_cli("analyze", str(out))
        assert (result.returncode, result.stdout) == (1, "")
        [line] = result.stderr.splitlines()
        assert line.startswith(f"error: value: {out}/samples.csv holds values whose statistics are not finite: ")
        assert "encountered in" in line
        # every report file is built before any is written
        assert sorted(p.name for p in out.iterdir()) == RUN_FILES

    @pytest.mark.parametrize("key, value", [("e_hf_sub", 1e308), ("e_double_sub", -1e308),
                                            ("coupling", 1e308)])
    def test_forged_reference_that_overflows_is_one_line(self, tmp_path, key, value):
        # a finite reference level whose reference curves are not finite ends
        # in one line on the manifest, not on samples.csv, before any output
        out = run_experiment(tiny_config(tmp_path, subsystem_counts=(1, 2), shots=100))
        manifest = (out / "manifest.json").read_text()
        (out / "manifest.json").write_text(set_key(manifest, f"reference.{key}", value))
        result = run_cli("analyze", str(out))
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.splitlines() == [
            f"error: value: {out}/manifest.json key reference: its levels give reference values "
            "that are not finite"
        ]
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize("energy", ["1e20", "1e300"])
    def test_forged_equal_large_values_are_plotted(self, tmp_path, energy):
        # one N whose samples all hold one energy so large that widening
        # fig1's empty y range by 0.5 is lost in rounding: the range is
        # widened by ulps instead, where the scale divided by zero
        out = run_experiment(tiny_config(tmp_path, subsystem_counts=(1,), shots=100))
        self.forge_values(out, {1: {"energy_hartree": energy}})
        result = run_cli("analyze", str(out))
        assert (result.returncode, result.stdout, result.stderr) == (0, f"analysis written to: {out}\n", "")
        assert (out / "fig1.svg").read_text().count("<path") == 17  # the axes and 16 crosses
