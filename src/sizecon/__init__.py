"""sizecon: does a noisy quantum device keep energies size-consistent?

A simulation library and benchmark for preparing N non-interacting H2
ground states with shallow circuits under a calibrated per-qubit noise
model, and measuring how energy per subsystem and excitation populations
scale with N.
"""

__version__ = "0.1.0"

from .analysis import (
    CisdReference,
    Horizon,
    RegressionResult,
    SubsystemLevels,
    cisd_reference,
    error_stats,
    horizon,
    wls_fit,
)
from .config import ExperimentConfig
from .device import DeviceModel, rank_qubits, synthetic_calibration
from .experiment import run_experiment
from .hamiltonians import (
    FermionHamiltonian,
    build_hamiltonians,
    h1q_parameters,
    jordan_wigner,
    taper,
    to_fermion,
)
from .molecule import MolecularSystem, RhfSolution, build_integrals, solve_rhf
from .pauli import (
    PauliString,
    PauliSum,
    multiply,
    qubitwise_commutes,
    qubitwise_groups,
)
from .report import analyze, reference_table
from .sampling import random_plan, selective_plan
from .simulator import apply_gate, run_shots, statevector
from .stateprep import Circuit, Gate, PreparedState, compose, fci_ground, synthesize
from .tomography import (
    MeasurementPlan,
    PopulationBreakdown,
    build_plan,
    estimate_energies,
    extract_populations,
)
