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
from .experiment import build_hamiltonians, run_experiment
from .hamiltonians import (
    FermionHamiltonian,
    h1q_parameters,
    jordan_wigner,
    parse_fcidump,
    taper,
    to_fermion,
    write_fcidump,
)
from .molecule import MolecularSystem, RhfSolution, build_integrals, solve_rhf
from .pauli import (
    PauliString,
    PauliSum,
    commutes,
    embed,
    multiply,
    qubitwise_commutes,
    qubitwise_groups,
)
from .report import analyze, reference_table
from .sampling import (
    SamplingPlan,
    random_plan,
    rank_qubits,
    selective_plan,
    synthetic_calibration,
)
from .simulator import (
    DeviceModel,
    QubitCalibration,
    apply_gate,
    run_shots,
    statevector,
)
from .stateprep import Circuit, Gate, PreparedState, compose, fci_ground, synthesize
from .tomography import (
    MeasurementPlan,
    PopulationBreakdown,
    build_plan,
    estimate_energies,
    extract_populations,
)
