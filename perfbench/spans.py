"""Spans around the public functions of every ``sizecon`` module.

The benchmark measures layers from the outside: :func:`install` finds each
target function, then replaces every attribute of every ``sizecon.*``
module (and the owning class, for methods) that *is* that function object
with a wrapper that records a span. Matching by identity rather than by
import path means a function that moves to another module keeps its span,
and a call through any alias (``sizecon.run_experiment``,
``experiment.write_svg``) is seen. A target that no longer exists is
reported as missing, never as zero.

Spans stay in memory; :func:`layer_metrics` reduces them to the per-layer
metrics the benchmark prints.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from dataclasses import dataclass
from typing import Callable


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, id: int, parent: int | None, name: str, start: float, attrs: dict | None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span stack for one single-threaded process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock(), attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")


@dataclass(frozen=True)
class Target:
    """One function to wrap; ``name`` is the span name, ``layer.function``."""

    name: str
    qualname: str                 # e.g. "TrajectoryEngine.sample"
    home: str                     # defining module today; breaks qualname ties
    attrs: Callable[[dict], dict] | None = None


def _sample_attrs(arguments: dict) -> dict:
    return {"width": arguments["self"].circuit.width, "shots": arguments["shots"]}


TARGETS = (
    Target("experiment.run", "run_experiment", "experiment"),
    Target("experiment.analyze", "analyze", "experiment"),
    Target("experiment.derive_seed", "derive_seed", "experiment"),
    Target("simulator.engine_init", "TrajectoryEngine.__init__", "simulator"),
    Target("simulator.sample", "TrajectoryEngine.sample", "simulator", _sample_attrs),
    Target("simulator.device_from_json", "DeviceModel.from_json", "simulator"),
    Target("tomography.build_plan", "build_plan", "tomography"),
    Target("tomography.estimate_energies", "estimate_energies", "tomography"),
    Target("tomography.shot_noise_stderr", "shot_noise_stderr", "tomography"),
    Target("tomography.extract_populations", "extract_populations", "tomography"),
    Target("analysis.wls_fit", "wls_fit", "analysis"),
    Target("analysis.cisd_reference", "cisd_reference", "analysis"),
    Target("analysis.error_stats", "error_stats", "analysis"),
    Target("svgplot.write", "write", "svgplot"),
    Target("sampling.synthetic_calibration", "synthetic_calibration", "sampling"),
    Target("sampling.rank_qubits", "rank_qubits", "sampling"),
    Target("sampling.plan", "selective_plan", "sampling"),
    Target("sampling.plan", "random_plan", "sampling"),
    Target("molecule.build_integrals", "build_integrals", "molecule"),
    Target("molecule.solve_rhf", "solve_rhf", "molecule"),
    Target("hamiltonians.jordan_wigner", "jordan_wigner", "hamiltonians"),
    Target("hamiltonians.taper", "taper", "hamiltonians"),
    Target("stateprep.fci_ground", "fci_ground", "stateprep"),
    Target("stateprep.synthesize", "synthesize", "stateprep"),
    Target("stateprep.compose", "compose", "stateprep"),
)


PACKAGE = "sizecon"


def sizecon_modules() -> list:
    """The package and every submodule, imported."""
    root = importlib.import_module(PACKAGE)
    for info in pkgutil.walk_packages(root.__path__, prefix=f"{PACKAGE}."):
        importlib.import_module(info.name)
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(f"{PACKAGE}."))
    ]


def _owner_and_attr(qualname: str) -> tuple[str | None, str]:
    owner, _, attr = qualname.rpartition(".")
    return owner or None, attr


def _find(target: Target, modules: list):
    """(owner class or None, raw attribute value) for the target, or None."""
    owner_name, attr = _owner_and_attr(target.qualname)
    found: dict[int, tuple] = {}
    for module in modules:
        for value in vars(module).values():
            if owner_name is None:
                if (inspect.isfunction(value) and value.__qualname__ == target.qualname
                        and value.__module__.startswith(PACKAGE)):
                    found[id(value)] = (None, value)
            elif (inspect.isclass(value) and value.__qualname__ == owner_name
                    and value.__module__.startswith(PACKAGE) and attr in vars(value)):
                raw = vars(value)[attr]
                found[id(raw)] = (value, raw)
    if len(found) > 1:
        home = f"{PACKAGE}.{target.home}"
        preferred = [f for f in found.values() if _function_of(f[1]).__module__ == home]
        if len(preferred) != 1:
            raise LookupError(f"{target.qualname} is ambiguous across {PACKAGE} modules")
        return preferred[0]
    return next(iter(found.values()), None)


def _function_of(raw):
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


def _wrap(fn: Callable, target: Target, recorder: Recorder) -> Callable:
    signature = inspect.signature(fn) if target.attrs else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = target.attrs(signature.bind(*args, **kwargs).arguments) if signature else None
        span = recorder.open(target.name, attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)

    return wrapper


def install(recorder: Recorder, targets=TARGETS) -> tuple[Callable[[], None], list[str]]:
    """Wrap every target; returns (undo, qualnames of missing targets)."""
    modules = sizecon_modules()
    undo: list[tuple[object, str, object]] = []
    missing = []
    for target in targets:
        hit = _find(target, modules)
        if hit is None:
            missing.append(target.qualname)
            continue
        owner, raw = hit
        fn = _function_of(raw)
        wrapped = _wrap(fn, target, recorder)
        if owner is not None:
            replacement = type(raw)(wrapped) if raw is not fn else wrapped
            undo.append((owner, _owner_and_attr(target.qualname)[1], raw))
            setattr(owner, undo[-1][1], replacement)
            continue
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def restore() -> None:
        for holder, attr, value in reversed(undo):
            setattr(holder, attr, value)

    return restore, missing


# Register widths the workloads use; each is reported, as 0 when a run has none.
SAMPLE_WIDTHS = (1, 2, 3, 4, 5, 6, 8, 16)
_SELF_TIMED = {"experiment.run": "experiment.run_self_s", "experiment.analyze": "experiment.analyze_self_s"}


def layer_metrics(recorder: Recorder, missing_qualnames=(), targets=TARGETS) -> dict:
    """Per-layer totals: ``<span>_s`` busy time, ``<span>_calls`` counts,
    sample shots and busy time by register width, and the self time of the
    run and analyze spans. A metric whose functions all vanished is None.
    """
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time: dict[int, float] = {}
    shots = 0
    by_width = {w: 0.0 for w in SAMPLE_WIDTHS}
    for span in recorder.spans:
        d = span.duration
        totals[span.name] = totals.get(span.name, 0.0) + d
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + d
        if span.name == "simulator.sample":
            shots += span.attrs["shots"]
            width = span.attrs["width"]
            by_width[width] = by_width.get(width, 0.0) + d

    metrics: dict[str, float | int | None] = {}
    names = {t.name for t in targets}
    gone = {
        name for name in names
        if all(t.qualname in missing_qualnames for t in targets if t.name == name)
    }
    for name in names:
        metrics[f"{name}_s"] = None if name in gone else totals.get(name, 0.0)
        metrics[f"{name}_calls"] = None if name in gone else calls.get(name, 0)
    for name, metric in _SELF_TIMED.items():
        metrics[metric] = None if name in gone else sum(
            s.duration - child_time.get(s.id, 0.0) for s in recorder.spans if s.name == name
        )
    sampled = "simulator.sample" not in gone
    metrics["simulator.shots"] = shots if sampled else None
    for width, busy in by_width.items():
        metrics[f"simulator.sample_s.w{width}"] = busy if sampled else None
    return metrics


def check_tree(spans: list[Span]) -> list[str]:
    """Problems with the span tree: unknown parents, children outside their
    parent's interval, overlapping siblings, unclosed spans."""
    problems = []
    by_id = {s.id: s for s in spans}
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    last_end: dict[int | None, float] = {}
    for s in sorted(spans, key=lambda s: (s.start, s.id)):
        if s.end is None or s.end < s.start:
            problems.append(f"span {s.id} {s.name} not closed or negative")
            continue
        if s.parent is not None:
            parent = by_id.get(s.parent)
            if parent is None:
                problems.append(f"span {s.id} {s.name} has unknown parent {s.parent}")
            elif parent.end is None or not (parent.start <= s.start and s.end <= parent.end):
                problems.append(f"span {s.id} {s.name} escapes its parent {parent.name}")
        if s.start < last_end.get(s.parent, float("-inf")):
            problems.append(f"span {s.id} {s.name} overlaps a sibling")
        last_end[s.parent] = s.end
    return problems
