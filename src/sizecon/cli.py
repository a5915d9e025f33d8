"""Command-line interface.

Subcommands:

* ``run <config>`` — execute an experiment from a JSON config file.
* ``analyze <dir>`` — summarize a finished run directory into CSV + SVG.
* ``reference --n-max N`` — classical FCI/CISD/HF reference curves.
* ``calibration generate --seed S`` — emit a synthetic calibration file.
* ``calibration rank <file>`` — rank a calibration's qubits by quality.

Exit code 0 on success; any failure prints one categorized
``error: <category>: <message>`` line on stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import DEFAULT_BOND_LENGTH, DEFAULT_QUBITS, MAX_QUBITS, ConfigError, ExperimentConfig
from .device import qubit_scores, rank_qubits, read_calibration, synthetic_calibration
from .experiment import run_experiment
from .report import REFERENCE_N_MAX, analyze, reference_table
from .rundir import csv_text


class _UsageError(Exception):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise instead of printing a
    usage block and exiting 2, so ``main`` reports them like any other
    failure. Subcommand parsers inherit the class."""

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def _int_in(low: int, high: int | None = None):
    """An argparse type: an integer from ``low`` up to ``high``, if given.
    argparse names the option in the usage error it makes of a failure."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


def _output(text: str) -> str:
    """An argparse type: an output path or ``-``. The empty path is neither;
    ``Path("")`` would name the current directory."""
    if not text:
        raise argparse.ArgumentTypeError("must be a path or -, got ''")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sizecon",
        description="Size-consistency benchmark for noisy quantum simulation of H2 replicas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("config", help="path to the experiment config file")

    analyze_p = sub.add_parser("analyze", help="summarize a finished run directory")
    analyze_p.add_argument("directory", help="run directory written by `run`")

    ref_p = sub.add_parser("reference", help="classical FCI/CISD/HF reference curves")
    ref_p.add_argument(
        "--n-max", type=_int_in(1, REFERENCE_N_MAX), required=True,
        help=f"largest subsystem count, at most {REFERENCE_N_MAX}",
    )
    ref_p.add_argument(
        "--bond-length", type=float, default=DEFAULT_BOND_LENGTH,
        help=f"H-H distance in angstrom (default {DEFAULT_BOND_LENGTH})",
    )
    ref_p.add_argument("--output", type=_output, default="-", help="output CSV path, or - for stdout")

    cal_p = sub.add_parser("calibration", help="device calibration utilities")
    cal_sub = cal_p.add_subparsers(dest="calibration_command", required=True)
    gen_p = cal_sub.add_parser("generate", help="emit a synthetic calibration file")
    gen_p.add_argument("--seed", type=_int_in(0), required=True)
    gen_p.add_argument("--n-qubits", type=_int_in(1, MAX_QUBITS), default=DEFAULT_QUBITS)
    gen_p.add_argument("--output", type=_output, default="-", help="output path, or - for stdout")
    rank_p = cal_sub.add_parser("rank", help="rank qubits of a calibration file")
    rank_p.add_argument("file", help="calibration JSON file")
    return parser


def _emit(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.config)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    if not (args.config and path.is_file()):  # Path("") is the current directory
        raise OSError(f"config file {args.config!r} is not a file")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError("document", f"{path} is not valid UTF-8: {exc}") from exc
    config = ExperimentConfig.from_json(text)
    out = run_experiment(config)
    print(f"run complete: {out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    out = analyze(args.directory)
    print(f"analysis written to: {out}")
    return 0


def _cmd_reference(args: argparse.Namespace) -> int:
    rows = reference_table(args.bond_length, args.n_max)
    _emit(csv_text(rows), args.output)
    return 0


def _cmd_calibration(args: argparse.Namespace) -> int:
    if args.calibration_command == "generate":
        device = synthetic_calibration(n_qubits=args.n_qubits, seed=args.seed)
        _emit(device.to_json(), args.output)
        return 0
    device = read_calibration(args.file, "file")
    if not device.n_qubits:
        raise ValueError(f"{args.file} holds no qubits to rank")
    scores = qubit_scores(device).tolist()
    rows = [
        {"rank": i, "qubit": q, "score": repr(scores[q])}
        for i, q in enumerate(rank_qubits(device))
    ]
    _emit(csv_text(rows), "-")
    return 0


_HANDLERS = {
    "run": _cmd_run,
    "analyze": _cmd_analyze,
    "reference": _cmd_reference,
    "calibration": _cmd_calibration,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
    except FileNotFoundError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
    except (ValueError, RuntimeError) as exc:
        print(f"error: value: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
