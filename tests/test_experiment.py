import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sizecon import experiment
from sizecon.cli import main as cli_main
from sizecon.config import MAX_QUBITS, ConfigError, ExperimentConfig
from sizecon.experiment import build_hamiltonians, derive_seed, run_experiment
from sizecon.report import analyze, reference_table
from sizecon.sampling import synthetic_calibration
from sizecon.simulator import DeviceModel, TrajectoryEngine

from test_sampling import scanned_score

ROOT = Path(__file__).resolve().parent.parent


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
        # selective k=1: N=2 -> 8 samples x 2 subsystems, N=4 -> 4 x 4
        with pytest.raises(ValueError, match="has 31 subsystem rows; its manifest expects 32"):
            analyze(out)
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            (dict(representation=1, subsystem_counts=(1, 2, 4)), {
                "summary.csv": "346f338d277afec2325b0ea8c988095fbe1b3e5234c90c99cf3f220e96fa7423",
                "fig1.csv": "6de6dbb994959b61ada7f6e14f58e957397083ad4c3fa2ec8f04dc6d3b8b62d1",
                "fig2a.csv": "2b604d60fad5c5e767ca8c863620ab4aca035f9857ce87f0fdfb8544bfe2dc12",
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
                "fig2a.csv": "c60bdada3620a5df0ae78d67302764188956e1929d8568c6fe0ea904d86e4acf",
                "fig2b.csv": "39305870ba5bd22c26b2b299060a82c5f4207186b832e1f03562aff85d63ea01",
                "fig3.csv": "807087c9ce4c31c9bf4d814066f04f31c54cc1d083bbfa70e91306ea403620d6",
                "fig1.svg": "c9ccf58f60a0d262a74037d5f5dfbc7b8935f562748da39d5605c7efcf5178c5",
                "fig2a.svg": "0dbb0831035154d0df04aef6f0d752923dd0f0cbf5833101daa55a002dc5f62c",
                "fig2b.svg": "9f3c074004787e9a3f5799cb74b1eb3e9d5736b01bea7140812f309ec3583818",
                "fig3.svg": "5a89557fadd926cf2bc40cf3f925f87c4ac4a8ce79a65c0dc30a4e709815418c",
            }),
            # at 8 or more values numpy's pairwise sum changes its order, so
            # this pins how analyze sums each sample's subsystem rows
            (dict(representation=1, subsystem_counts=(2, 8, 16), sampling_mode="random",
                  s_repetitions=6), {
                "summary.csv": "ba078a6af9b0666d2d18a086f5b7edbf887c79b356fd049c61ed94f769243763",
                "fig1.csv": "aaaa7c5c79e6c4b864c4e5948e08855311c22197056a4b3a41d32b474cc57b1d",
                "fig2a.csv": "c39d6ace9f7119a5892b35caff97d2f46d32ed0f10839db22275eb6a4f7595c9",
                "fig2b.csv": "ac8723877d5e9e806dc3bc9c09e2cde831f0e621837821b8b778f1bf3aa32e6d",
                "fig3.csv": "4c435c66e516c61dd5ced61d0f638c1462d84c4b6b60db642c4ba9c8edef14e4",
                "fig1.svg": "2b468016e6987234795dfe058543fd6a2a0d8e4e6281427b18baad6076d52542",
                "fig2a.svg": "03c409df5c6f428756db778585640570f2e0ab2d98bb392e8eb4d93fceba35a1",
                "fig2b.svg": "a6e8e7fc1f4ca85508f7c629de239044fc272db14fbf76f7974c5c5d92f42501",
                "fig3.svg": "74364a84181115576468044d753a90c9d70af06705b9ffd806f74c6f0d48f1d3",
            }),
        ],
        ids=["multi-n", "single-n", "random-n-2-8-16"],
    )
    def test_report_bytes_are_pinned(self, tmp_path, overrides, expected):
        # recorded when each figure still built its CSV rows and its SVG
        # series separately, and (random-n-2-8-16) while analyze still
        # averaged each sample's rows one sample at a time; a change to the
        # report bytes must be deliberate
        out = analyze(run_experiment(tiny_config(tmp_path, shots=500, **overrides)))
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected
        }
        assert digests == expected

    def test_row_order_does_not_matter(self, tmp_path):
        # at N=16 a sample's mean over its rows in file order moves in the
        # last bits when those rows are shuffled
        config = tiny_config(tmp_path, subsystem_counts=(2, 8, 16), sampling_mode="random",
                             s_repetitions=4, shots=300)
        out = analyze(run_experiment(config))
        names = ["summary.csv"] + [f"fig{f}.{ext}" for f in ("1", "2a", "2b", "3")
                                   for ext in ("csv", "svg")]
        before = {name: (out / name).read_bytes() for name in names}
        header, *rows = (out / "samples.csv").read_text().splitlines(keepends=True)
        np.random.default_rng(0).shuffle(rows)
        (out / "samples.csv").write_text(header + "".join(rows))
        for name in names:
            (out / name).unlink()
        analyze(out)
        assert {name: (out / name).read_bytes() for name in names} == before

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
            # a count past int64, and a device past config.MAX_QUBITS
            ({"shots": 2**63}, "shots: must be <= 9223372036854775807, got 9223372036854775808"),
            ({"calibration": {"n_qubits": 1025}}, "calibration.n_qubits: must be <= 1024, got 1025"),
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

    @pytest.mark.parametrize(
        "value, message",
        [
            ("1e308", "bond length 1e+308 angstrom overflows when squared in bohr"),
            ("1e-300", "overlap matrix at bond length 1e-300 angstrom is singular "
                       "(smallest eigenvalue 0.000e+00)"),
        ],
        ids=["1e308", "1e-300"],
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
            (b"qubits: 16\n", "{path} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
            (b"\xff{}", "{path} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                        "in position 0: invalid start byte"),
            (None, "no such file: {path}"),
        ],
        ids=["not-json", "not-utf8", "missing"],
    )
    def test_calibration_rank_file_error_is_one_line(self, tmp_path, text, message):
        cal = tmp_path / "cal.json"
        if text is not None:
            cal.write_bytes(text)
        result = run_cli("calibration", "rank", str(cal))
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"error: config: file: {message.format(path=cal)}"]
        assert result.stdout == ""

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
            ("manifest.json", lambda text: "{}", "manifest.json has no key config.representation"),
            ("manifest.json",
             lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "seeds"}),
             "manifest.json has no key seeds"),
            ("manifest.json", lambda text: set_key(text, "seeds", [1, 2]),
             "manifest.json key seeds must be an object, not an array"),
            ("manifest.json", lambda text: set_key(text, "seeds", 5),
             "manifest.json key seeds must be an object, not 5"),
            ("manifest.json", lambda text: set_key(text, "config.representation", None),
             "manifest.json key config.representation must be 1, 2 or 4, not null"),
            ("manifest.json", lambda text: set_key(text, "config.representation", 3),
             "manifest.json key config.representation must be 1, 2 or 4, not 3"),
            ("manifest.json", lambda text: set_key(text, "config.representation", True),
             "manifest.json key config.representation must be 1, 2 or 4, not true"),
            ("manifest.json", lambda text: set_key(text, "reference.coupling", None),
             "manifest.json key reference.coupling must be a finite number, not null"),
            ("manifest.json", lambda text: set_key(text, "reference.e_hf_sub", float("nan")),
             "manifest.json key reference.e_hf_sub must be a finite number, not NaN"),
            ("manifest.json", lambda text: set_key(text, "reference.e_double_sub", False),
             "manifest.json key reference.e_double_sub must be a finite number, not false"),
            ("manifest.json", lambda text: "",
             "manifest.json is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
            ("manifest.json",
             lambda text: set_key(text, "seeds.N99999999999999999999999/set0/sample0/group0", 1),
             "manifest.json key seeds names N99999999999999999999999/set0/sample0, "
             "an index past a 64-bit integer"),
            ("samples.csv", lambda text: text.replace(",p_double,", ",p_doubel,", 1),
             "samples.csv has no column p_double"),
            # N=2, selective k=1: samples 0..7 of set 0, subsystems 0 and 1
            ("samples.csv", lambda text: set_cell(text, 1, "sample_index", "1"),
             "samples.csv holds subsystem rows [1] for N2/set0/sample0; "
             "its manifest expects [0, 1]"),
            ("samples.csv", lambda text: set_cell(text, 2, "subsystem", "0"),
             "samples.csv holds subsystem rows [0, 0] for N2/set0/sample0; "
             "its manifest expects [0, 1]"),
            ("samples.csv", lambda text: set_cell(text, 16, "n_subsystems", "1"),
             "samples.csv holds subsystem rows [1] for N1/set0/sample7; its manifest expects none"),
            ("samples.csv", lambda text: set_cell(text, 3, "energy_hartree", "abc"),
             "samples.csv row 3, column energy_hartree: 'abc' is not a number"),
            ("samples.csv", lambda text: set_cell(text, 5, "set_index", "0.5"),
             "samples.csv row 5, column set_index: '0.5' is not a 64-bit integer"),
            ("samples.csv", lambda text: set_cell(text, 4, "sample_index", "9" * 20),
             f"samples.csv row 4, column sample_index: '{'9' * 20}' is not a 64-bit integer"),
            ("samples.csv",
             lambda text: "\n".join(line.rsplit(",", 1)[0] if row == 2 else line
                                    for row, line in enumerate(text.split("\n"))),
             "samples.csv row 2 has 12 cells, not 13"),
            ("samples.csv", lambda text: set_cell(text, 6, "p_double", "inf"),
             "samples.csv row 6, column p_double: 'inf' is not a finite number"),
            ("samples.csv", lambda text: set_cell(text, 7, "energy_hartree", "nan"),
             "samples.csv row 7, column energy_hartree: 'nan' is not a finite number"),
        ],
        ids=["empty-manifest", "manifest-without-seeds", "seeds-array", "seeds-number",
             "null-representation", "representation-3", "bool-representation",
             "null-coupling", "nan-reference", "bool-reference", "manifest-not-json",
             "seed-key-past-int64",
             "renamed-column", "moved-row",
             "repeated-subsystem", "unlisted-sample", "not-a-number", "not-an-integer",
             "too-large-an-integer", "short-row", "inf-cell", "nan-cell"],
    )
    def test_malformed_run_dir_is_categorized(self, tmp_path, capsys, name, damage, message):
        out = run_experiment(tiny_config(tmp_path, subsystem_counts=(2,), shots=200))
        (out / name).write_text(damage((out / name).read_text()))
        assert cli_main(["analyze", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: value: {out}/{message}"]

    def test_stale_samples_are_categorized(self, tmp_path, capsys):
        out = run_experiment(tiny_config(tmp_path, subsystem_counts=(2,), shots=200))
        text = (out / "samples.csv").read_text()
        (out / "samples.csv").write_text(text + text.split("\n", 1)[1])
        assert cli_main(["analyze", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: value: {out}/samples.csv has 32 subsystem rows; its manifest expects 16"
        ]
