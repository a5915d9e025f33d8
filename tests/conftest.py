import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sizecon.hamiltonians import build_hamiltonians
from sizecon.molecule import build_integrals, solve_rhf

from oracles import CiOracle

EQUILIBRIUM = 0.7414  # angstrom


@pytest.fixture(scope="session")
def system():
    return build_integrals(EQUILIBRIUM)


@pytest.fixture(scope="session")
def rhf(system):
    return solve_rhf(system)


@pytest.fixture(scope="session")
def ci_oracle(system, rhf):
    return CiOracle(system, rhf)


@pytest.fixture(scope="session")
def bundle():
    """Full Hamiltonian chain (4-, 2-, 1-qubit) at the equilibrium geometry."""
    return build_hamiltonians(EQUILIBRIUM)
