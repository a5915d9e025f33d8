"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import outputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

from sizecon import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
COMPARED = ("samples.csv", "populations.csv", "summary.csv", "fig1.csv", "fig2a.csv", "fig3.csv")


def _run_and_analyze(tmp: Path, tag: str) -> Path:
    out = tmp / f"out-{tag}"
    config = {
        "representation": 1, "subsystem_counts": [1, 2], "shots": 300,
        "sampling": {"mode": "selective", "k": 1},
        "calibration": {"synthetic_seed": 7, "n_qubits": 156},
        "output_dir": str(out), "master_seed": 3,
    }
    path = tmp / f"config-{tag}.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", str(path)]) == 0
        assert cli.main(["analyze", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    plain = _run_and_analyze(tmp, "plain")
    recorder = spans.Recorder()
    restore, missing = spans.install(recorder)
    try:
        wrapped = _run_and_analyze(tmp, "wrapped")
    finally:
        restore()
    return plain, wrapped, recorder, missing


def test_wrapped_run_is_byte_identical(traced):
    plain, wrapped, _, _ = traced
    for name in COMPARED:
        assert (plain / name).read_bytes() == (wrapped / name).read_bytes(), name


def test_span_tree_is_well_formed(traced):
    _, _, recorder, missing = traced
    assert missing == []
    assert spans.check_tree(recorder.spans) == []
    by_id = {s.id: s for s in recorder.spans}
    roots = [s.name for s in recorder.spans if s.parent is None]
    assert roots == ["experiment.run", "experiment.analyze"]
    for s in recorder.spans:
        if s.name == "simulator.sample":
            assert by_id[s.parent].name == "experiment.run"
            assert s.attrs == {"width": s.attrs["width"], "shots": 300}


def test_install_follows_aliases_and_restores():
    import sizecon
    from sizecon import experiment

    original = experiment.run_experiment
    restore, _ = spans.install(spans.Recorder())
    try:
        wrapped = experiment.run_experiment
        assert wrapped is not original
        assert sizecon.run_experiment is wrapped and cli.run_experiment is wrapped
    finally:
        restore()
    assert experiment.run_experiment is original and cli.run_experiment is original


def test_check_tree_flags_malformed_spans():
    clock = iter([0.0, 1.0, 0.5, 3.0, 2.5, 4.0]).__next__
    recorder = spans.Recorder(clock)
    root = recorder.open("root")
    recorder.close(root)                      # root covers [0, 1]
    child = recorder.open("late")             # opened after root closed
    child.parent = root.id
    recorder.close(child)                     # [0.5, 3.0] escapes root
    sibling = recorder.open("sibling")        # [2.5, 4.0] overlaps "late"
    sibling.parent = root.id
    recorder.close(sibling)
    problems = spans.check_tree(recorder.spans)
    assert any("escapes" in p for p in problems)
    assert any("overlaps" in p for p in problems)


def test_vanished_function_is_missing_not_zero():
    gone = spans.Target("ghost.haunt", "no_such_function", "ghost")
    restore, missing = spans.install(spans.Recorder(), targets=(gone,))
    restore()
    assert missing == ["no_such_function"]
    metrics = spans.layer_metrics(spans.Recorder(), missing, targets=(gone,))
    assert metrics["ghost.haunt_s"] is None and metrics["ghost.haunt_calls"] is None


def test_metric_names_and_workloads_match_the_runner(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    _, _, recorder, missing = traced
    produced = set(spans.layer_metrics(recorder, missing))
    produced |= {"experiment.bytes_written", "sizecon.import_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_first_difference_names_row_and_column(traced, tmp_path):
    _, wrapped, _, _ = traced
    record = outputs.make_record(wrapped)
    changed = tmp_path / "changed"
    shutil.copytree(wrapped, changed)
    lines = (changed / "samples.csv").read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[2].rstrip("\n").split(",")
    cells[header.index("p_hf")] += "1"
    lines[2] = ",".join(cells) + "\n"
    (changed / "samples.csv").write_text("".join(lines))
    message = outputs.first_difference(changed, record, "samples.csv")
    assert message.startswith("first differing row 2") and "['p_hf']" in message
    summary = (changed / "summary.csv").read_text().splitlines(keepends=True)
    summary[1] = summary[1].replace("1,2,", "1,7,", 1)   # representation 1, n_points 2
    (changed / "summary.csv").write_text("".join(summary))
    message = outputs.first_difference(changed, record, "summary.csv")
    assert message == "row 1 column 'n_points': '7' != recorded '2'"


def test_fast_quartile_takes_the_fast_end():
    times = [float(v) for v in range(1, 10)]
    assert run.fast_quartile(times) == pytest.approx(3.0)
    assert run.fast_quartile(times, higher_is_faster=True) == pytest.approx(7.0)
    assert run.fast_quartile([4.0]) == 4.0
    assert run.fast_quartile([]) is None


def test_recorded_seeds_cover_every_workload():
    for name, workload in run.WORKLOADS.items():
        masters = run.load_records(name, run.CALIBRATION_SEED)
        for seed in range(11):
            assert all(str(m) in masters for m in workload.master_seeds(seed)), (name, seed)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rep4-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
