import math
import re

import numpy as np
import pytest

from sizecon.molecule import MAX_BOND_LENGTH, build_integrals, mo_integrals, solve_rhf
from sizecon.units import BOHR_PER_ANGSTROM

from oracles import integrals_3d, rhf_scf_loop

# bond lengths that other tests, pinned outputs and edge cases run at
PINNED_BOND_LENGTHS = (0.01, 0.05, 0.3, 0.5, 0.7414, 1.5, 3.0, 5.7)


class TestIntegrals:
    def test_equal_to_the_three_vector_form(self):
        # on-axis scalars against the 3-vector form, byte for byte
        for bond_length in [*np.geomspace(0.05, MAX_BOND_LENGTH, 60).tolist(), 0.3, 0.7414, 1.5, 3.0]:
            system = build_integrals(bond_length)
            for name, expected in integrals_3d(bond_length).items():
                assert getattr(system, name).tobytes() == expected.tobytes(), (bond_length, name)

    def test_unit_overlap_diagonal(self, system):
        assert np.allclose(np.diag(system.overlap), 1.0, atol=1e-12)

    def test_overlap_positive_definite(self, system):
        assert np.all(np.linalg.eigvalsh(system.overlap) > 0)

    def test_nuclear_repulsion_is_inverse_distance(self, system):
        assert system.nuclear_repulsion == pytest.approx(
            1.0 / (0.7414 * BOHR_PER_ANGSTROM), abs=1e-14
        )

    def test_asymptotic_separation(self):
        # at the longest accepted bond the two 1s functions barely touch
        far = build_integrals(MAX_BOND_LENGTH)
        r_bohr = MAX_BOND_LENGTH * BOHR_PER_ANGSTROM
        assert abs(far.overlap[0, 1]) < 1e-5
        # inter-center Coulomb decays to the point-charge 1/R limit
        assert far.two_electron[0, 0, 1, 1] == pytest.approx(1.0 / r_bohr, rel=1e-9)
        # coupling integrals with a charge distribution spanning both centers vanish
        assert abs(far.two_electron[0, 1, 0, 0]) < 1e-6
        assert abs(far.two_electron[0, 1, 0, 1]) < 1e-11

    def test_eight_fold_symmetry(self, system):
        eri = system.two_electron
        for p in range(2):
            for q in range(2):
                for r in range(2):
                    for s in range(2):
                        v = eri[p, q, r, s]
                        assert eri[q, p, r, s] == pytest.approx(v, abs=1e-14)
                        assert eri[p, q, s, r] == pytest.approx(v, abs=1e-14)
                        assert eri[r, s, p, q] == pytest.approx(v, abs=1e-14)

    def test_homonuclear_swap_invariance(self, system):
        # exchanging the two atoms reverses every index
        assert np.allclose(system.overlap, system.overlap[::-1, ::-1], atol=1e-12)
        assert np.allclose(system.kinetic, system.kinetic[::-1, ::-1], atol=1e-12)
        assert np.allclose(
            system.nuclear_attraction,
            system.nuclear_attraction[::-1, ::-1],
            atol=1e-12,
        )
        assert np.allclose(
            system.two_electron,
            system.two_electron[::-1, ::-1, ::-1, ::-1],
            atol=1e-12,
        )

    def test_nonpositive_bond_length_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            build_integrals(0.0)
        with pytest.raises(ValueError, match="positive"):
            build_integrals(-1.0)
        for bond_length in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                build_integrals(bond_length)

    @pytest.mark.parametrize(
        "bond_length", [math.nextafter(MAX_BOND_LENGTH, math.inf), 6.007, 50.0, 1e154, 1e308]
    )
    def test_bond_length_past_the_bound_rejected(self, bond_length):
        message = re.escape(f"bond length {bond_length} angstrom is over {MAX_BOND_LENGTH}, past which")
        with pytest.raises(ValueError, match=message):
            build_integrals(bond_length)


class TestRhf:
    @pytest.mark.parametrize("bond_length", [1e-4, 1e-9, 1e-300])
    def test_singular_overlap_rejected(self, bond_length):
        # the two 1s functions coincide to within round-off
        system = build_integrals(bond_length)
        with pytest.raises(ValueError, match=r"overlap matrix .* is singular"):
            solve_rhf(system)

    def test_mo_orthonormality(self, system, rhf):
        c = rhf.mo_coefficients
        assert np.allclose(c.T @ system.overlap @ c, np.eye(2), atol=1e-10)

    def test_symmetry_adapted_orbitals(self, rhf):
        c = rhf.mo_coefficients
        # gerade: equal coefficients; ungerade: opposite
        assert c[0, 0] == pytest.approx(c[1, 0], abs=1e-10)
        assert c[0, 1] == pytest.approx(-c[1, 1], abs=1e-10)

    def test_hf_above_fci(self, rhf, ci_oracle):
        assert rhf.e_hf > ci_oracle.e_fci

    def test_hf_matches_ci_oracle_diagonal(self, rhf, ci_oracle):
        assert rhf.e_hf == pytest.approx(ci_oracle.e_hf, abs=1e-10)

    def test_orbital_energy_ordering(self, rhf):
        assert rhf.orbital_energies[0] < rhf.orbital_energies[1]

    @pytest.mark.parametrize("bond_length", [*np.geomspace(0.0063, 5.59, 400), *PINNED_BOND_LENGTHS])
    def test_equals_the_scf_loop_bit_for_bit(self, bond_length):
        # wherever the loop converges above 0.0063 angstrom it stops after
        # the same two Fock builds, so every output keeps its bits
        system = build_integrals(float(bond_length))
        coeffs, energies, e_hf, _ = rhf_scf_loop(system)
        rhf = solve_rhf(system)
        assert rhf.mo_coefficients.tobytes() == coeffs.tobytes()
        assert rhf.orbital_energies.tobytes() == energies.tobytes()
        assert rhf.e_hf == e_hf

    @pytest.mark.parametrize("bond_length", [5.595, 5.732, MAX_BOND_LENGTH])
    def test_gerade_orbital_is_occupied_where_the_loop_fails(self, bond_length):
        # the loop occupies the lower orbital, and past about 5.6 angstrom
        # sigma_g and sigma_u swap places at each iteration; round-off mixes
        # them by about 1e-10 at the bound
        system = build_integrals(bond_length)
        assert rhf_scf_loop(system) is None
        c = solve_rhf(system).mo_coefficients
        assert c[0, 0] == pytest.approx(c[1, 0], abs=1e-9)
        assert c[0, 1] == pytest.approx(-c[1, 1], abs=1e-9)
        assert np.allclose(c.T @ system.overlap @ c, np.eye(2), atol=1e-10)


class TestMoIntegrals:
    def test_gerade_ungerade_blocks_vanish(self, system, rhf):
        h_mo, eri_mo = mo_integrals(system, rhf)
        # one-electron coupling between g and u is symmetry-forbidden
        assert abs(h_mo[0, 1]) < 1e-12
        # integrals with an odd number of ungerade indices vanish
        assert abs(eri_mo[0, 0, 0, 1]) < 1e-12
        assert abs(eri_mo[0, 1, 1, 1]) < 1e-12

    def test_mo_core_diagonal_orders(self, system, rhf):
        h_mo, _ = mo_integrals(system, rhf)
        assert h_mo[0, 0] < h_mo[1, 1]
