import numpy as np
import pytest

from sizecon.hamiltonians import (
    BLOCK_DETERMINANTS,
    FermionHamiltonian,
    TaperingError,
    build_hamiltonians,
    excitation_level,
    h1q_parameters,
    jordan_wigner,
    matrix_to_pauli_sum,
    spin_orbital_hamiltonian,
    taper,
    to_fermion,
)
from sizecon.molecule import MAX_BOND_LENGTH, build_integrals, mo_integrals, solve_rhf
from sizecon.pauli import PauliString, PauliSum
from sizecon.stateprep import fci_ground, synthesize
from sizecon.tomography import build_plan

from oracles import CLASSIFICATION, CiOracle, determinant_expectation, pauli_decompose

LEVEL_CLASSES = {0: "hf", 1: "single", 2: "double", None: "number_violating"}


@pytest.fixture(scope="module")
def fermion(system, rhf):
    return to_fermion(system, rhf)


@pytest.fixture(scope="module")
def h4(fermion):
    return jordan_wigner(fermion)


class TestToFermion:
    def test_hf_expectation_equals_scf_energy(self, fermion, rhf):
        assert determinant_expectation(fermion, (0, 1)) == pytest.approx(
            rhf.e_hf, abs=1e-10
        )

    def test_constant_is_nuclear_repulsion(self, fermion, system):
        assert fermion.constant == system.nuclear_repulsion

    def test_spin_violating_one_body_terms_absent(self, fermion):
        for (p, q), coeff in fermion.one_body.items():
            if p % 2 != q % 2:
                assert coeff == 0.0

    def test_one_body_hermitian(self, fermion):
        for (p, q), coeff in fermion.one_body.items():
            assert fermion.one_body.get((q, p), 0.0) == pytest.approx(coeff, abs=1e-14)

    def test_two_body_count_matches_spin_expansion(self, system, rhf, fermion):
        # independent combinatorial count: every nonzero spatial (pq|rs)
        # spawns spin-orbital keys (p sig, r tau, s tau, q sig); merged sums
        # below threshold drop out
        _, eri = mo_integrals(system, rhf)
        expected: dict[tuple[int, int, int, int], float] = {}
        for p in range(2):
            for q in range(2):
                for r in range(2):
                    for s in range(2):
                        if abs(eri[p, q, r, s]) < 1e-14:
                            continue
                        for sig in (0, 1):
                            for tau in (0, 1):
                                key = (2 * p + sig, 2 * r + tau, 2 * s + tau, 2 * q + sig)
                                expected[key] = expected.get(key, 0.0) + 0.5 * eri[p, q, r, s]
        expected = {k: v for k, v in expected.items() if abs(v) > 1e-14}
        assert set(fermion.two_body) == set(expected)
        for key, value in expected.items():
            assert fermion.two_body[key] == pytest.approx(value, abs=1e-14)

    def test_spatial_expansion_consistency(self):
        # hand-built one-orbital system: H = h11 n + (11|11)/2 * 2 n_up n_dn
        h1 = np.array([[-1.0]])
        eri = np.full((1, 1, 1, 1), 0.6)
        h = spin_orbital_hamiltonian(0.2, h1, eri)
        assert determinant_expectation(h, (0,)) == pytest.approx(0.2 - 1.0)
        assert determinant_expectation(h, (0, 1)) == pytest.approx(0.2 - 2.0 + 0.6)

    def test_index_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            FermionHamiltonian(0.0, {(0, 4): 1.0}, {}, n_spin_orbitals=4)

    def test_two_body_index_validation(self):
        with pytest.raises(ValueError, match="two-body index"):
            FermionHamiltonian(0.0, {}, {(0, 1, 1, -1): 1.0}, n_spin_orbitals=4)


class TestJordanWigner:
    def test_number_operator_identity(self):
        h = FermionHamiltonian(0.0, {(0, 0): 1.0}, {}, n_spin_orbitals=2)
        out = jordan_wigner(h)
        assert out.coefficient(PauliString("II")) == pytest.approx(0.5)
        assert out.coefficient(PauliString("ZI")) == pytest.approx(-0.5)
        assert len(out.sorted_strings()) == 1

    def test_hopping_term(self):
        # a+_0 a_1 + a+_1 a_0 -> (XX + YY)/2
        h = FermionHamiltonian(0.0, {(0, 1): 1.0, (1, 0): 1.0}, {}, n_spin_orbitals=2)
        out = jordan_wigner(h)
        assert out.coefficient(PauliString("XX")) == pytest.approx(0.5)
        assert out.coefficient(PauliString("YY")) == pytest.approx(0.5)

    def test_ground_state_matches_ci_oracle(self, h4, ci_oracle):
        ground = np.linalg.eigvalsh(h4.to_matrix())[0]
        assert ground == pytest.approx(ci_oracle.e_fci, abs=1e-10)

    def test_term_count_against_dense_expansion(self, h4):
        # independent expansion oracle: project the dense matrix on all strings
        coeffs = pauli_decompose(h4.to_matrix(), 4)
        nonzero = {s for s, c in coeffs.items() if abs(c) > 1e-12 and s != "IIII"}
        assert nonzero == {s.letters for s in h4.sorted_strings()}
        assert len(nonzero) <= 15

    def test_hf_basis_state_expectation(self, h4, rhf):
        mat = h4.to_matrix()
        assert mat[0b1100, 0b1100].real == pytest.approx(rhf.e_hf, abs=1e-10)

    def test_hermitian_matrix(self, h4):
        mat = h4.to_matrix()
        assert np.allclose(mat, mat.conj().T, atol=1e-14)

    def test_all_coefficients_real(self, h4):
        for _, coeff in h4:
            assert isinstance(coeff, float)

    def test_rejects_non_hermitian_input(self):
        # a+_0 a_1 without its adjoint maps to complex Pauli weights
        h = FermionHamiltonian(0.0, {(0, 1): 1.0}, {}, n_spin_orbitals=2)
        with pytest.raises(ValueError, match="non-Hermitian"):
            jordan_wigner(h)

    @pytest.mark.parametrize(
        "constant, weight", [(0.0, 1e-8), (0.0, 1e6), (1e6, 1.0)],
        ids=["tiny", "huge", "huge-constant"],
    )
    def test_rejects_non_hermitian_input_at_any_scale(self, constant, weight):
        # the bound is relative to the largest coefficient, so neither small
        # integrals nor a large constant let a one-way hopping term through
        h = FermionHamiltonian(constant, {(0, 1): weight}, {}, n_spin_orbitals=2)
        with pytest.raises(ValueError, match="non-Hermitian"):
            jordan_wigner(h)

    def test_short_bond_builds(self):
        # the integrals grow as 1/r, and their rounding residue with them: at
        # 0.01 angstrom it is an 8.5e-12 imaginary weight, over a fixed 1e-12
        bundle = build_hamiltonians(0.01)
        system = build_integrals(0.01)
        e_fci = CiOracle(system, solve_rhf(system)).e_fci
        for h in (bundle.h4, bundle.h2q, bundle.h1q):
            assert np.linalg.eigvalsh(h.to_matrix())[0] == pytest.approx(e_fci, abs=1e-10)


class TestBlockDeterminants:
    @pytest.mark.parametrize("determinant", range(16))
    def test_excitation_level_of_every_determinant(self, determinant):
        expected = CLASSIFICATION[4].get(determinant, "number_violating")
        assert LEVEL_CLASSES[excitation_level(determinant)] == expected

    @pytest.mark.parametrize("width", sorted(CLASSIFICATION))
    def test_every_code_classed_by_its_determinant(self, width):
        determinants = BLOCK_DETERMINANTS[width]
        assert len(determinants) == 2**width
        classes = [LEVEL_CLASSES[excitation_level(d)] for d in determinants]
        expected = [CLASSIFICATION[width].get(code, "number_violating") for code in range(2**width)]
        assert classes == expected


class TestTaper:
    def test_spectral_agreement(self, bundle):
        g4 = np.linalg.eigvalsh(bundle.h4.to_matrix())[0]
        g2 = np.linalg.eigvalsh(bundle.h2q.to_matrix())[0]
        g1 = np.linalg.eigvalsh(bundle.h1q.to_matrix())[0]
        assert g2 == pytest.approx(g4, abs=1e-10)
        assert g1 == pytest.approx(g4, abs=1e-10)

    def test_variational_chain(self, bundle, rhf):
        ground = np.linalg.eigvalsh(bundle.h4.to_matrix())[0]
        assert rhf.e_hf >= ground

    def test_h1q_matches_ci_matrix_elements(self, bundle, ci_oracle):
        g0, g1, g2 = h1q_parameters(bundle.h1q)
        assert g0 + g1 == pytest.approx(ci_oracle.e_hf, abs=1e-10)
        assert g0 - g1 == pytest.approx(ci_oracle.e_double, abs=1e-10)
        assert g2 == pytest.approx(ci_oracle.hf_double_coupling, abs=1e-10)

    def test_rejects_wrong_width(self, bundle):
        with pytest.raises(TaperingError, match="width"):
            taper(bundle.h1q)

    def test_one_orbital_system_rejected(self):
        # one spatial orbital gives a 2-qubit operator, not the 4-qubit H2 form
        h = spin_orbital_hamiltonian(0.3, np.array([[-1.0]]), np.full((1, 1, 1, 1), 0.5))
        with pytest.raises(TaperingError, match="width 2"):
            taper(jordan_wigner(h))

    def test_rejects_sector_breaking_hamiltonian(self, bundle):
        broken = PauliSum({**dict(bundle.h4), PauliString("XIII"): 0.1})
        with pytest.raises(TaperingError, match="not closed"):
            taper(broken)

    def test_matrix_to_pauli_round_trip(self, bundle):
        mat = bundle.h2q.to_matrix()
        back = matrix_to_pauli_sum(mat.real, 2)
        for s, c in bundle.h2q:
            assert back.coefficient(s) == pytest.approx(c, abs=1e-12)


class TestMatrixToPauliSum:
    def test_random_hermitian_matches_oracle(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        mat = a + a.conj().T
        out = matrix_to_pauli_sum(mat, 3)
        for letters, coeff in pauli_decompose(mat, 3).items():
            assert out.coefficient(PauliString(letters)) == pytest.approx(
                coeff.real, abs=1e-12
            )
        assert np.allclose(out.to_matrix(), mat, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match width"):
            matrix_to_pauli_sum(np.eye(4), 1)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="non-Hermitian"):
            matrix_to_pauli_sum(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


class TestH1qParameters:
    def test_reads_identity_z_and_x(self):
        h = PauliSum(
            {PauliString("I"): -0.3, PauliString("Z"): -0.8, PauliString("X"): 0.18}
        )
        assert h1q_parameters(h) == (-0.3, -0.8, 0.18)

    def test_rejects_wider_operator(self, bundle):
        with pytest.raises(ValueError, match="expected width 1"):
            h1q_parameters(bundle.h2q)

    def test_rejects_y_component(self):
        h = PauliSum({PauliString("Z"): 1.0, PauliString("Y"): 0.1})
        with pytest.raises(ValueError, match="unexpected Y"):
            h1q_parameters(h)



class TestBuildHamiltonians:
    def test_every_representation_builds_up_to_the_bond_bound(self):
        # what run builds from a bond length, at every 0.05 angstrom from the
        # shortest valid edge to MAX_BOND_LENGTH; each step checks its own
        # contract (Hermitian image, closed sectors, synthesis fidelity)
        for bond_length in [*np.arange(0.01, MAX_BOND_LENGTH, 0.05).tolist(), MAX_BOND_LENGTH]:
            bundle = build_hamiltonians(bond_length)
            for width in BLOCK_DETERMINANTS:
                h_sub = bundle.subsystem_hamiltonian(width)
                synthesize(fci_ground(h_sub))
                build_plan(h_sub)
