import math
import re

import numpy as np
import pytest

from sizecon.molecule import (
    ScfConvergenceError,
    build_integrals,
    mo_integrals,
    solve_rhf,
)
from sizecon.units import BOHR_PER_ANGSTROM

from oracles import integrals_3d


class TestIntegrals:
    def test_equal_to_the_three_vector_form(self):
        # on-axis scalars against the 3-vector form, byte for byte
        for bond_length in [*np.geomspace(0.05, 10.0, 60).tolist(), 0.3, 0.7414, 1.5, 3.0]:
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
        far = build_integrals(50.0)
        r_bohr = 50.0 * BOHR_PER_ANGSTROM
        assert abs(far.overlap[0, 1]) < 1e-12
        # inter-center Coulomb decays to the point-charge 1/R limit
        assert far.two_electron[0, 0, 1, 1] == pytest.approx(1.0 / r_bohr, rel=1e-9)
        # coupling integrals with a charge distribution spanning both centers vanish
        assert abs(far.two_electron[0, 1, 0, 0]) < 1e-12
        assert abs(far.two_electron[0, 1, 0, 1]) < 1e-12

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

    @pytest.mark.parametrize("bond_length", [1e154, 1e308])
    def test_overflowing_bohr_distance_rejected(self, bond_length):
        # finite in angstrom, but its squared distance in bohr is not
        message = re.escape(f"bond length {bond_length} angstrom overflows")
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

    def test_initial_guess_does_not_matter(self, system, rhf):
        rng = np.random.default_rng(3)
        for _ in range(3):
            raw = rng.normal(size=(2, 2))
            guess = raw + raw.T
            other = solve_rhf(system, initial_density=guess)
            assert other.e_hf == pytest.approx(rhf.e_hf, abs=1e-9)
            assert np.allclose(other.mo_coefficients, rhf.mo_coefficients, atol=1e-7)

    def test_hf_above_fci(self, rhf, ci_oracle):
        assert rhf.e_hf > ci_oracle.e_fci

    def test_hf_matches_ci_oracle_diagonal(self, rhf, ci_oracle):
        assert rhf.e_hf == pytest.approx(ci_oracle.e_hf, abs=1e-10)

    def test_orbital_energy_ordering(self, rhf):
        assert rhf.orbital_energies[0] < rhf.orbital_energies[1]

    def test_reports_iterations(self, rhf):
        assert 1 <= rhf.iterations < 200

    def test_non_convergence_reports_iteration_count(self, system, monkeypatch):
        import sizecon.molecule as molecule

        monkeypatch.setattr(molecule, "SCF_MAX_ITER", 1)
        with pytest.raises(ScfConvergenceError, match="1 iterations") as err:
            solve_rhf(system)
        assert err.value.iterations == 1


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
