import csv
import hashlib
import json

import numpy as np
import pytest

from sizecon.cli import main as cli_main
from sizecon.experiment import (
    ConfigError,
    ExperimentConfig,
    analyze,
    build_hamiltonians,
    derive_seed,
    reference_table,
    run_experiment,
)
from sizecon.simulator import DeviceModel


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
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "sampling": {"mode": "best"}}', "sampling_mode"),
            ('{"representation": 1, "subsystem_counts": [3], "output_dir": "x"}', "subsystem_counts"),
            ('{"representation": 1, "subsystem_counts": [2], "output_dir": "x", "bond_length": -1}', "bond_length"),
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
        assert derive_seed(7, 1, 2, 3) == derive_seed(7, 1, 2, 3)
        assert derive_seed(7, 1, 2, 3) != derive_seed(7, 1, 2, 4)
        assert derive_seed(8, 1, 2, 3) != derive_seed(7, 1, 2, 3)


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

    def test_manifest_records_seeds_and_hash(self, tmp_path):
        out = run_experiment(tiny_config(tmp_path))
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["seeds"]) == (8 + 4) * 2  # entries x groups
        digest = hashlib.sha256((out / "calibration.json").read_bytes()).hexdigest()
        assert manifest["calibration_sha256"] == digest

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

    def test_missing_calibration_file(self, tmp_path):
        with pytest.raises(ConfigError, match="calibration_file"):
            run_experiment(tiny_config(tmp_path, calibration_file=str(tmp_path / "nope.json")))


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

    def test_missing_file_is_categorized(self, tmp_path, capsys):
        assert cli_main(["run", str(tmp_path / "absent.json")]) == 1
        assert capsys.readouterr().err.startswith("error: io:")

    def test_analyze_error(self, tmp_path, capsys):
        assert cli_main(["analyze", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: io:")
