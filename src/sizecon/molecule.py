"""Analytic STO-3G integrals and restricted Hartree-Fock for H2.

The two contracted 1s functions are built from the published STO-3G
hydrogen primitives (three s-type Gaussians, Slater exponent 1.24 already
folded in). All integrals use the closed forms for s-type Gaussians with
the zeroth Boys function F0(x) = (1/2) sqrt(pi/x) erf(sqrt(x)), so no
external quantum-chemistry package is involved.

Everything downstream works in atomic units; bond lengths enter in
angstrom and are converted once, and ``build_integrals`` takes them up to
``MAX_BOND_LENGTH``.

In this minimal basis symmetry alone fixes the two MOs of homonuclear H2:
sigma_g, (1, 1) / sqrt(2 (1 + S)), and sigma_u, (1, -1) / sqrt(2 (1 - S))
(Szabo & Ostlund, *Modern Quantum Chemistry*, section 3.5). So
``solve_rhf`` takes a fixed two Fock builds, not a loop to a tolerance, and
orders the MOs gerade first by their coefficients' signs, not by energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import BOHR_PER_ANGSTROM

# STO-3G hydrogen 1s contraction: (exponent, coefficient) per primitive.
STO3G_H = (
    (3.425250914, 0.1543289673),
    (0.6239137298, 0.5353281423),
    (0.1688554040, 0.4446345422),
)

# Longest bond length (angstrom) build_integrals accepts. The first Fock
# matrix of solve_rhf is the core Hamiltonian, whose two levels close in as
# H2 dissociates (1e-5 hartree apart at 6.0); round-off over that gap mixes
# sigma_g and sigma_u (by about 1e-10 at 6.0) and leaves symmetry-forbidden
# couplings in the Hamiltonian. Past 6.0 they fail the tapering closure
# check or the synthesis fidelity contract (first at 6.007 on a 0.001
# grid), while every 0.001 step from 0.01 to 6.0 builds all three
# representations.
MAX_BOND_LENGTH = 6.0
# Smallest overlap eigenvalue symmetric orthogonalization accepts; below it
# the two 1s functions are numerically one (bond lengths under ~1e-4 A).
OVERLAP_MIN_EIGENVALUE = 1e-8


@dataclass(frozen=True)
class MolecularSystem:
    """H2 geometry plus all AO integrals in atomic units."""

    bond_length: float            # angstrom
    nuclear_repulsion: float      # hartree
    overlap: np.ndarray           # (2, 2)
    kinetic: np.ndarray           # (2, 2)
    nuclear_attraction: np.ndarray  # (2, 2)
    two_electron: np.ndarray      # (2, 2, 2, 2), chemist convention (pq|rs)

    @property
    def core_hamiltonian(self) -> np.ndarray:
        return self.kinetic + self.nuclear_attraction


@dataclass(frozen=True)
class RhfSolution:
    """Closed-shell RHF result for a 2-orbital system."""

    mo_coefficients: np.ndarray   # (2, 2), AO -> MO, column per MO
    orbital_energies: np.ndarray  # (2,)
    e_hf: float                   # hartree, includes nuclear repulsion


def boys_f0(x: float) -> float:
    """Zeroth-order Boys function, stable near x = 0."""
    if x < 1e-12:
        return 1.0 - x / 3.0
    sx = math.sqrt(x)
    return 0.5 * math.sqrt(math.pi / x) * math.erf(sx)


def _primitive_norm(alpha: float) -> float:
    return (2.0 * alpha / math.pi) ** 0.75


def _overlap_ss(a: float, b: float, r2: float) -> float:
    p = a + b
    return (math.pi / p) ** 1.5 * math.exp(-a * b / p * r2)


def _kinetic_ss(a: float, b: float, r2: float) -> float:
    p = a + b
    mu = a * b / p
    return mu * (3.0 - 2.0 * mu * r2) * (math.pi / p) ** 1.5 * math.exp(-mu * r2)


def _nuclear_ss(a: float, b: float, za: float, zb: float, zc: float) -> float:
    p = a + b
    zp = (a * za + b * zb) / p
    return (
        -2.0 * math.pi / p * math.exp(-a * b / p * ((za - zb) * (za - zb)))
        * boys_f0(p * ((zp - zc) * (zp - zc)))
    )


_ERI_PREFACTOR = 2.0 * math.pi**2.5


def build_integrals(bond_length: float) -> MolecularSystem:
    """All AO integrals for H2 at the given bond length (angstrom).

    Contracted functions are renormalized to unit self-overlap, so the
    overlap matrix has an exactly unit diagonal.

    Both centres lie on the z axis, at 0 and at the bond length in bohr, so
    every squared distance is one squared coordinate difference, the value
    ``np.dot`` gives for the two 3-vectors. Each Gaussian product's
    exponent, centre and ``a * b / p * r2`` term is formed once per centre
    pair and primitive pair, and the ERI quartets are summed as ``math``
    scalars, in the primitive order and with the operation order of the
    3-vector form, so every integral keeps its bits.
    """
    if not (math.isfinite(bond_length) and bond_length > 0):
        raise ValueError(f"bond length must be positive and finite, got {bond_length}")
    if bond_length > MAX_BOND_LENGTH:
        raise ValueError(
            f"bond length {bond_length} angstrom is over {MAX_BOND_LENGTH}, past which"
            " round-off mixes sigma_g and sigma_u beyond the tapering and synthesis checks"
        )
    r_bohr = bond_length * BOHR_PER_ANGSTROM
    centers = (0.0, r_bohr)  # z coordinates

    # (alpha, total coefficient incl. primitive norm) per primitive per center
    prims = [(alpha, coeff * _primitive_norm(alpha)) for alpha, coeff in STO3G_H]

    def contracted(kernel) -> float:
        return sum(
            ca * cb * kernel(aa, ab)
            for aa, ca in prims
            for ab, cb in prims
        )

    # Self-overlap of the raw contraction, used to renormalize.
    self_ovl = contracted(lambda a, b: _overlap_ss(a, b, 0.0))
    norm = 1.0 / math.sqrt(self_ovl)

    n = 2
    overlap = np.empty((n, n))
    kinetic = np.empty((n, n))
    nuclear = np.empty((n, n))
    # per centre pair, per primitive pair in (a, b) order: both
    # coefficients, p = a + b, the product centre and a * b / p * r2
    products = {}
    for i in range(n):
        for j in range(n):
            zi, zj = centers[i], centers[j]
            r2 = (zi - zj) * (zi - zj)
            overlap[i, j] = norm**2 * contracted(lambda a, b: _overlap_ss(a, b, r2))
            kinetic[i, j] = norm**2 * contracted(lambda a, b: _kinetic_ss(a, b, r2))
            nuclear[i, j] = norm**2 * sum(
                ca * cb * _nuclear_ss(aa, ab, zi, zj, zc)
                for aa, ca in prims
                for ab, cb in prims
                for zc in centers
            )
            products[i, j] = [
                (ca, cb, aa + ab, (aa * zi + ab * zj) / (aa + ab), aa * ab / (aa + ab) * r2)
                for aa, ca in prims
                for ab, cb in prims
            ]

    eri = np.empty((n, n, n, n))
    for i, j, k, l in np.ndindex(n, n, n, n):
        terms = []
        for c1, c2, p, zp, e_ab in products[i, j]:
            c12 = c1 * c2
            for c3, c4, q, zq, e_cd in products[k, l]:
                pref = _ERI_PREFACTOR / (p * q * math.sqrt(p + q))
                expo = math.exp(-e_ab - e_cd)
                boys = boys_f0(p * q / (p + q) * ((zp - zq) * (zp - zq)))
                terms.append(c12 * c3 * c4 * (pref * expo * boys))
        eri[i, j, k, l] = norm**4 * sum(terms)

    return MolecularSystem(
        bond_length=bond_length,
        nuclear_repulsion=1.0 / r_bohr,
        overlap=overlap,
        kinetic=kinetic,
        nuclear_attraction=nuclear,
        two_electron=eri,
    )


def _coulomb_exchange(density: np.ndarray, eri: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Coulomb matrix J and half the exchange matrix K of a closed-shell
    density."""
    return np.einsum("ls,mnls->mn", density, eri), 0.5 * np.einsum("ls,mlsn->mn", density, eri)


def _occupy_gerade(fock: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbital energies and AO coefficients of ``fock`` in the orthogonal
    basis ``x``, the gerade orbital (two coefficients of one sign) first, and
    the density with that orbital doubly occupied."""
    energies, c_prime = np.linalg.eigh(x.T @ fock @ x)
    coeffs = x @ c_prime
    order = [0, 1] if coeffs[0, 0] * coeffs[1, 0] > 0 else [1, 0]
    coeffs = coeffs[:, order]
    return energies[order], coeffs, 2.0 * np.outer(coeffs[:, 0], coeffs[:, 0])


def solve_rhf(system: MolecularSystem) -> RhfSolution:
    """Closed-shell RHF of H2, with sigma_g doubly occupied.

    Symmetry fixes both MOs, so there is no SCF loop: the Fock matrix of a
    zero density, the core Hamiltonian, already has the gerade and ungerade
    eigenvectors, and one Fock build from the gerade density gives their
    final coefficients and orbital energies. Each step occupies the gerade
    orbital, not the lower one, since past about 5.6 angstrom sigma_u may
    lie lower. Signs are fixed so the coefficients on the first atom are
    non-negative.
    """
    s = system.overlap
    h = system.core_hamiltonian
    eri = system.two_electron

    # Symmetric orthogonalization, which needs linearly independent orbitals.
    s_vals, s_vecs = np.linalg.eigh(s)
    if s_vals[0] < OVERLAP_MIN_EIGENVALUE:
        raise ValueError(
            f"overlap matrix at bond length {system.bond_length} angstrom is singular"
            f" (smallest eigenvalue {s_vals[0]:.3e})"
        )
    x = s_vecs @ np.diag(s_vals**-0.5) @ s_vecs.T

    *_, density = _occupy_gerade(h, x)
    j, k = _coulomb_exchange(density, eri)
    energies, coeffs, density = _occupy_gerade(h + (j - k), x)
    coeffs[:, coeffs[0] < 0] *= -1

    # the energy's Fock matrix sums (h + J) - K/2, the one above h + (J - K/2):
    # the last bits of e_hf and of the MOs depend on each order
    j, k = _coulomb_exchange(density, eri)
    fock = h + j - k
    e_elec = 0.5 * float(np.sum(density * (h + fock)))
    return RhfSolution(
        mo_coefficients=coeffs,
        orbital_energies=energies,
        e_hf=e_elec + system.nuclear_repulsion,
    )


def mo_integrals(system: MolecularSystem, rhf: RhfSolution) -> tuple[np.ndarray, np.ndarray]:
    """One- and two-electron integrals in the MO basis (chemist (pq|rs))."""
    c = rhf.mo_coefficients
    h_mo = c.T @ system.core_hamiltonian @ c
    eri_mo = np.einsum(
        "ap,bq,cr,ds,abcd->pqrs", c, c, c, c, system.two_electron, optimize=True
    )
    return h_mo, eri_mo
