"""One measured process: ``setup`` or ``pipeline`` for one config file.

Run by ``run.py`` as a fresh interpreter per repetition, with ``src`` on
``PYTHONPATH`` and numpy thread pools pinned to one thread. Prints one JSON
object on its last stdout line.

    python3 perfbench/child.py setup <config.json>
    python3 perfbench/child.py pipeline <config.json> [--trace] [--analyze-min-s S]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _setup(config_path: str) -> dict:
    """Fixed cost paid before the first shot, through the public functions."""
    t0 = time.perf_counter()
    import sizecon
    from sizecon.experiment import ExperimentConfig, build_hamiltonians, load_device

    config = ExperimentConfig.from_json(Path(config_path).read_text())
    device = load_device(config)
    sizecon.rank_qubits(device)
    bundle = build_hamiltonians(config.bond_length)
    target = sizecon.fci_ground(bundle.subsystem_hamiltonian(config.representation))
    sizecon.synthesize(target)
    return {"setup_s": time.perf_counter() - t0}


def _cli(argv: list[str]) -> float:
    from sizecon import cli

    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"sizecon {argv[0]} exited with {code}")
    return elapsed


def _pipeline(config_path: str, trace: bool, analyze_min_s: float) -> dict:
    t0 = time.perf_counter()
    import sizecon.cli  # noqa: F401  (the import is what is timed)

    result: dict = {"import_s": time.perf_counter() - t0}
    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        _, missing = spans.install(recorder)
    out = json.loads(Path(config_path).read_text())["output_dir"]
    result["run_s"] = _cli(["run", config_path])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    from_run = set(Path(out).iterdir())
    times = [_cli(["analyze", out])]
    if analyze_min_s > 0:
        # analyze takes milliseconds on small runs, so time a loop of calls and
        # keep the fastest, timeit-style; each call starts from the directory
        # as `run` left it, so it creates its files rather than truncating them
        while sum(times) < analyze_min_s or len(times) < 3:
            for path in set(Path(out).iterdir()) - from_run:
                path.unlink()
            times.append(_cli(["analyze", out]))
    result["analyze_s"] = min(times)
    if recorder is not None:
        problems = spans.check_tree(recorder.spans)
        if problems:
            raise SystemExit(f"malformed span tree: {problems[:3]}")
        result["layers"] = spans.layer_metrics(recorder, missing)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pipeline"))
    parser.add_argument("config")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--analyze-min-s", type=float, default=0.0,
                        help="time analyze over at least 3 calls and this long; 0 calls it once")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = _setup(args.config)
    else:
        result = _pipeline(args.config, args.trace, args.analyze_min_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
