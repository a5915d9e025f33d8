"""Size-consistency regression, accuracy horizon, and classical references.

The regression works on heteroscedastic (x, y, stddev) points with
precision weights 1/stddev^2; its slope against total qubit count, in
kcal/mol per qubit, is the size-consistency error. The horizon converts
that slope into how many qubits (and subsystems) fit inside chemical
accuracy. Classical reference curves come from the exact two-level
subsystem parameters. For N identical non-interacting subsystems the
singles-plus-doubles truncation couples the reference only to the
symmetric sum of the N single-subsystem doubles, so it is one 2x2 problem
in closed form whose correlation grows as sqrt(N), not N: the correlation
per subsystem fades as N grows. Full CI is that problem's N = 1 case, and
is N-independent per subsystem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .units import CHEMICAL_ACCURACY_KCAL, HARTREE_TO_KCAL_PER_MOL


@dataclass(frozen=True)
class RegressionResult:
    slope: float          # kcal/mol per qubit
    intercept: float      # kcal/mol
    slope_stderr: float   # kcal/mol per qubit


def wls_fit(points: Sequence[tuple[float, float, float]]) -> RegressionResult:
    """Weighted least-squares line through (x, y, sample_stddev) points.

    Weights are 1/stddev^2; slope and intercept minimize the weighted
    squared residuals via the closed-form normal equations. The slope
    standard error uses the weighted residual variance with n-2 degrees of
    freedom (0 for an exactly interpolating two-point fit).
    """
    if len(points) < 2:
        raise ValueError(f"need at least 2 points, got {len(points)}")
    x, y, stddev = np.array(points, dtype=float).T
    if np.any(stddev <= 0):
        raise ValueError("every point needs a positive stddev")
    if np.ptp(x) == 0:
        raise ValueError("all x values identical; slope undefined")
    w = 1.0 / stddev**2
    x_bar = float(np.sum(w * x) / np.sum(w))
    y_bar = float(np.sum(w * y) / np.sum(w))
    sxx = float(np.sum(w * (x - x_bar) ** 2))
    sxy = float(np.sum(w * (x - x_bar) * (y - y_bar)))
    slope = sxy / sxx
    intercept = y_bar - slope * x_bar
    residuals = y - intercept - slope * x
    dof = len(points) - 2
    if dof > 0:
        sigma2 = float(np.sum(w * residuals**2)) / dof
        stderr = math.sqrt(sigma2 / sxx)
    else:
        stderr = 0.0
    return RegressionResult(
        slope=slope,
        intercept=intercept,
        slope_stderr=stderr,
    )


@dataclass(frozen=True)
class Horizon:
    """How far chemical accuracy stretches for a given slope."""

    n_qubit: int
    n_h2: int
    unbounded: bool = False

    def __post_init__(self) -> None:
        if self.n_qubit < 0 or self.n_h2 < 0:
            raise ValueError("horizon counts must be non-negative")


def horizon(delta: float, qubits_per_h2: int) -> Horizon:
    """Largest qubit and subsystem counts within 1 kcal/mol at slope delta.

    ``n_qubit = floor(1 / |delta|)`` and ``n_h2 = floor(n_qubit / width)``.
    A zero slope reports the unbounded sentinel, and so does a nonzero one
    so small that ``1 / |delta|`` overflows a float.
    """
    if not math.isfinite(delta):
        raise ValueError(f"slope must be finite, got {delta}")
    if qubits_per_h2 < 1:
        raise ValueError("qubits_per_h2 must be >= 1")
    bound = CHEMICAL_ACCURACY_KCAL / abs(delta) if delta != 0.0 else math.inf
    if math.isinf(bound):
        return Horizon(n_qubit=0, n_h2=0, unbounded=True)
    n_qubit = math.floor(bound)
    return Horizon(n_qubit=n_qubit, n_h2=n_qubit // qubits_per_h2)


@dataclass(frozen=True)
class SubsystemLevels:
    """Exact two-determinant parameters of one subsystem (hartree)."""

    e_hf: float       # <reference|H|reference>
    e_double: float   # <double|H|double>
    coupling: float   # <reference|H|double>

    @classmethod
    def from_single_qubit_terms(cls, g0: float, g1: float, g2: float) -> "SubsystemLevels":
        """From the I/Z/X coefficients of the single-qubit representation."""
        return cls(e_hf=g0 + g1, e_double=g0 - g1, coupling=g2)

    @property
    def fci_energy(self) -> float:
        return _lowest(self, 1)[0]

    @property
    def fci_double_population(self) -> float:
        """|double amplitude|^2 of the subsystem ground state; N-independent."""
        return _lowest(self, 1)[1]


def _lowest(levels: SubsystemLevels, n: int) -> tuple[float, float]:
    """Lowest eigenvalue of [[n e_hf, sqrt(n) c], [sqrt(n) c, (n-1) e_hf +
    e_double]] and its eigenvector's weight on the second state.

    The eigenvector is (radius - gap, -coupling) up to scale, so the weight
    takes no difference of near-equal terms while the reference lies lower
    (gap <= 0). Uncoupled, all weight is on the lower state, and on the
    reference when the two are degenerate.
    """
    mean = 0.5 * (n * levels.e_hf + ((n - 1) * levels.e_hf + levels.e_double))
    gap = 0.5 * (levels.e_hf - levels.e_double)  # the diagonal's half difference, any n
    coupling = math.sqrt(n) * levels.coupling
    radius = math.hypot(gap, coupling)
    if coupling == 0.0:
        return mean - radius, float(gap > 0)
    return mean - radius, (coupling / math.hypot(radius - gap, coupling)) ** 2


@dataclass(frozen=True)
class CisdReference:
    """Singles-plus-doubles truncation of N non-interacting subsystems."""

    n_subsystems: int
    energy: float                    # hartree, total
    correlation_per_h2: float        # hartree
    double_population_per_h2: float


def cisd_reference(levels: SubsystemLevels, n_subsystems: int) -> CisdReference:
    """Exact ground state of the truncated configuration space at size N.

    The space is the reference plus one double excitation per subsystem.
    The reference couples to each double by c, so only their normalized
    sum, at coupling sqrt(N) c, mixes with it: the ground state is that of
    a 2x2 matrix, with energy N e_hf + [D - sqrt(D^2 + 4 N c^2)] / 2 for
    D = e_double - e_hf, and its double weight is shared by the N
    subsystems. Higher simultaneous excitations are exactly what the
    truncation omits, so the correlation recovered per subsystem decays
    with N.
    """
    if n_subsystems < 1:
        raise ValueError("need at least one subsystem")
    n = n_subsystems
    energy, weight = _lowest(levels, n)
    return CisdReference(
        n_subsystems=n,
        energy=energy,
        correlation_per_h2=(energy - n * levels.e_hf) / n,
        double_population_per_h2=weight / n,
    )


def mean_sd(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof 1; 0 for a single value)."""
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1)) if len(values) > 1 else 0.0


def error_stats(
    energies: Mapping[int, Sequence[float]], e_fci: float, e_hf: float
) -> tuple[dict[int, tuple[float, float]], float]:
    """Per-N ``mean_sd`` of (energy-per-subsystem - FCI), in kcal/mol.

    ``energies`` maps each N to its samples' energies per H2, in hartree;
    the first return value maps each N, ascending, to the (mean, stddev) of
    its errors, and the second is the mean-field reference line
    (e_hf - e_fci) in kcal/mol.
    """
    if not energies:
        raise ValueError("no samples provided")
    stats = {
        n: mean_sd((np.asarray(energies[n], dtype=float) - e_fci) * HARTREE_TO_KCAL_PER_MOL)
        for n in sorted(energies)
    }
    return stats, (e_hf - e_fci) * HARTREE_TO_KCAL_PER_MOL
