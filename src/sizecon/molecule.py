"""Analytic STO-3G integrals and restricted Hartree-Fock for H2.

The two contracted 1s functions are built from the published STO-3G
hydrogen primitives (three s-type Gaussians, Slater exponent 1.24 already
folded in). All integrals use the closed forms for s-type Gaussians with
the zeroth Boys function F0(x) = (1/2) sqrt(pi/x) erf(sqrt(x)), so no
external quantum-chemistry package is involved.

Everything downstream works in atomic units; bond lengths enter in
angstrom and are converted once.
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

SCF_DENSITY_TOL = 1e-10
SCF_MAX_ITER = 200
# Smallest overlap eigenvalue symmetric orthogonalization accepts; below it
# the two 1s functions are numerically one (bond lengths under ~1e-4 A).
OVERLAP_MIN_EIGENVALUE = 1e-8


class ScfConvergenceError(RuntimeError):
    """SCF failed to reach the density-change tolerance."""

    def __init__(self, iterations: int, delta: float):
        super().__init__(
            f"SCF not converged after {iterations} iterations (density change {delta:.3e})"
        )
        self.iterations = iterations
        self.delta = delta


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
    """Converged closed-shell SCF result for a 2-orbital system."""

    mo_coefficients: np.ndarray   # (2, 2), AO -> MO, column per MO
    orbital_energies: np.ndarray  # (2,)
    e_hf: float                   # hartree, includes nuclear repulsion
    iterations: int


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


def _nuclear_ss(a: float, b: float, ra, rb, rc) -> float:
    p = a + b
    rab2 = float(np.dot(ra - rb, ra - rb))
    rp = (a * ra + b * rb) / p
    rpc2 = float(np.dot(rp - rc, rp - rc))
    return -2.0 * math.pi / p * math.exp(-a * b / p * rab2) * boys_f0(p * rpc2)


def _eri_ssss(a: float, b: float, c: float, d: float, ra, rb, rc, rd) -> float:
    p = a + b
    q = c + d
    rab2 = float(np.dot(ra - rb, ra - rb))
    rcd2 = float(np.dot(rc - rd, rc - rd))
    rp = (a * ra + b * rb) / p
    rq = (c * rc + d * rd) / q
    rpq2 = float(np.dot(rp - rq, rp - rq))
    pref = 2.0 * math.pi**2.5 / (p * q * math.sqrt(p + q))
    expo = math.exp(-a * b / p * rab2 - c * d / q * rcd2)
    return pref * expo * boys_f0(p * q / (p + q) * rpq2)


def build_integrals(bond_length: float) -> MolecularSystem:
    """All AO integrals for H2 at the given bond length (angstrom).

    Contracted functions are renormalized to unit self-overlap, so the
    overlap matrix has an exactly unit diagonal.
    """
    if not (math.isfinite(bond_length) and bond_length > 0):
        raise ValueError(f"bond length must be positive and finite, got {bond_length}")
    r_bohr = bond_length * BOHR_PER_ANGSTROM
    if not math.isfinite(r_bohr * r_bohr):
        raise ValueError(f"bond length {bond_length} angstrom overflows when squared in bohr")
    centers = [np.zeros(3), np.array([0.0, 0.0, r_bohr])]

    # (alpha, total coefficient incl. primitive norm) per primitive per center
    prims = [(alpha, coeff * _primitive_norm(alpha)) for alpha, coeff in STO3G_H]

    def contracted(fa, fb, kernel) -> float:
        return sum(
            ca * cb * kernel(aa, ab)
            for aa, ca in prims
            for ab, cb in prims
        )

    # Self-overlap of the raw contraction, used to renormalize.
    self_ovl = contracted(0, 0, lambda a, b: _overlap_ss(a, b, 0.0))
    norm = 1.0 / math.sqrt(self_ovl)

    n = 2
    overlap = np.empty((n, n))
    kinetic = np.empty((n, n))
    nuclear = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            r2 = float(np.dot(centers[i] - centers[j], centers[i] - centers[j]))
            overlap[i, j] = norm**2 * contracted(i, j, lambda a, b: _overlap_ss(a, b, r2))
            kinetic[i, j] = norm**2 * contracted(i, j, lambda a, b: _kinetic_ss(a, b, r2))
            nuclear[i, j] = norm**2 * sum(
                ca * cb * _nuclear_ss(aa, ab, centers[i], centers[j], rc)
                for aa, ca in prims
                for ab, cb in prims
                for rc in centers
            )

    eri = np.empty((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    eri[i, j, k, l] = norm**4 * sum(
                        c1 * c2 * c3 * c4
                        * _eri_ssss(a1, a2, a3, a4, centers[i], centers[j], centers[k], centers[l])
                        for a1, c1 in prims
                        for a2, c2 in prims
                        for a3, c3 in prims
                        for a4, c4 in prims
                    )

    return MolecularSystem(
        bond_length=bond_length,
        nuclear_repulsion=1.0 / r_bohr,
        overlap=overlap,
        kinetic=kinetic,
        nuclear_attraction=nuclear,
        two_electron=eri,
    )


def solve_rhf(system: MolecularSystem, initial_density: np.ndarray | None = None) -> RhfSolution:
    """Closed-shell Roothaan SCF, converged on max density change < 1e-10.

    For homonuclear H2 the converged MOs are the symmetry-adapted gerade /
    ungerade combinations whatever the starting density; sign conventions
    are fixed so the coefficients on the first atom are non-negative.
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

    density = np.zeros_like(s) if initial_density is None else np.asarray(initial_density, dtype=float)
    energies = None
    coeffs = None
    delta = math.inf
    for iteration in range(1, SCF_MAX_ITER + 1):
        g = np.einsum("ls,mnls->mn", density, eri) - 0.5 * np.einsum(
            "ls,mlsn->mn", density, eri
        )
        fock = h + g
        f_prime = x.T @ fock @ x
        energies, c_prime = np.linalg.eigh(f_prime)
        coeffs = x @ c_prime
        new_density = 2.0 * np.outer(coeffs[:, 0], coeffs[:, 0])
        delta = float(np.max(np.abs(new_density - density)))
        density = new_density
        if delta < SCF_DENSITY_TOL:
            break
    else:
        raise ScfConvergenceError(SCF_MAX_ITER, delta)

    # Deterministic MO signs: first-atom coefficient non-negative.
    for col in range(coeffs.shape[1]):
        if coeffs[0, col] < 0:
            coeffs[:, col] = -coeffs[:, col]

    fock = h + np.einsum("ls,mnls->mn", density, eri) - 0.5 * np.einsum(
        "ls,mlsn->mn", density, eri
    )
    e_elec = 0.5 * float(np.sum(density * (h + fock)))
    return RhfSolution(
        mo_coefficients=coeffs,
        orbital_energies=energies,
        e_hf=e_elec + system.nuclear_repulsion,
        iterations=iteration,
    )


def mo_integrals(system: MolecularSystem, rhf: RhfSolution) -> tuple[np.ndarray, np.ndarray]:
    """One- and two-electron integrals in the MO basis (chemist (pq|rs))."""
    c = rhf.mo_coefficients
    h_mo = c.T @ system.core_hamiltonian @ c
    eri_mo = np.einsum(
        "ap,bq,cr,ds,abcd->pqrs", c, c, c, c, system.two_electron, optimize=True
    )
    return h_mo, eri_mo
