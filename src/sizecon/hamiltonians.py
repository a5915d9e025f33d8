"""Second-quantized Hamiltonians, qubit mappings, and symmetry reduction.

Spin-orbital convention (fixed for the whole package): spatial orbital ``p``
with spin ``s`` (0 = up, 1 = down) is spin orbital ``2*p + s``. For H2 the
order is therefore (sigma_g up, sigma_g down, sigma_u up, sigma_u down) and
the mean-field reference occupies spin orbitals 0 and 1, i.e. the qubit
basis state ``|1100>`` after the Jordan-Wigner mapping (qubit p hosts spin
orbital p; bitstrings read qubit 0 leftmost).

``two_body[(p, q, r, s)]`` is the coefficient of ``a+_p a+_q a_r a_s`` with
the conventional 1/2 from the Coulomb operator already folded in.

``build_hamiltonians`` runs the whole chain from a bond length: integrals,
RHF, the Jordan-Wigner operator, its two tapered forms and the two-level
spectrum of one H2. The run pipeline and the reference curves both start
from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .analysis import SubsystemLevels
from .molecule import MolecularSystem, RhfSolution, build_integrals, mo_integrals, solve_rhf
from .pauli import LETTERS, PauliString, PauliSum, identity_string, multiply

# The code book of one H2 block: per representation (qubits per H2), the
# 4-qubit determinant (qubit 0 = most significant bit) that each block code
# stands for, in code order. Widths 1 and 2 are the symmetry sectors
# ``taper`` projects onto; width 4 is the Jordan-Wigner register itself.
BLOCK_DETERMINANTS = {
    1: (0b1100, 0b0011),                   # HF, double
    2: (0b1100, 0b1001, 0b0110, 0b0011),   # HF, two singles, double
    4: tuple(range(16)),
}


def excitation_level(determinant: int) -> int | None:
    """Electrons a 4-qubit determinant holds in sigma_u (spin orbitals 2 and
    3, the two low bits): 0 for the mean-field reference, 1 for a single, 2
    for the double; None if it does not hold two electrons."""
    if determinant.bit_count() != 2:
        return None
    return (determinant & 0b11).bit_count()


TAPER_TOL = 1e-10


class TaperingError(RuntimeError):
    """Symmetry-sector projection failed its closure or spectrum check."""


@dataclass
class FermionHamiltonian:
    """Number-conserving second-quantized Hamiltonian over spin orbitals."""

    constant: float
    one_body: dict[tuple[int, int], float]
    two_body: dict[tuple[int, int, int, int], float]
    n_spin_orbitals: int

    def __post_init__(self) -> None:
        for p, q in self.one_body:
            if not (0 <= p < self.n_spin_orbitals and 0 <= q < self.n_spin_orbitals):
                raise ValueError(f"one-body index ({p},{q}) out of range")
        for idx in self.two_body:
            if any(not 0 <= i < self.n_spin_orbitals for i in idx):
                raise ValueError(f"two-body index {idx} out of range")


def spin_orbital_hamiltonian(
    constant: float, h1: np.ndarray, eri: np.ndarray
) -> FermionHamiltonian:
    """Expand spatial-orbital integrals (chemist (pq|rs)) to spin orbitals."""
    norb = h1.shape[0]
    one_body: dict[tuple[int, int], float] = {}
    two_body: dict[tuple[int, int, int, int], float] = {}
    for p in range(norb):
        for q in range(norb):
            if abs(h1[p, q]) < 1e-14:
                continue
            for s in range(2):
                one_body[(2 * p + s, 2 * q + s)] = float(h1[p, q])
    for p in range(norb):
        for q in range(norb):
            for r in range(norb):
                for s in range(norb):
                    val = eri[p, q, r, s]
                    if abs(val) < 1e-14:
                        continue
                    for sig in range(2):
                        for tau in range(2):
                            key = (2 * p + sig, 2 * r + tau, 2 * s + tau, 2 * q + sig)
                            two_body[key] = two_body.get(key, 0.0) + 0.5 * float(val)
    two_body = {k: v for k, v in two_body.items() if abs(v) > 1e-14}
    return FermionHamiltonian(
        constant=float(constant),
        one_body=one_body,
        two_body=two_body,
        n_spin_orbitals=2 * norb,
    )


def to_fermion(system: MolecularSystem, rhf: RhfSolution) -> FermionHamiltonian:
    """MO-basis second-quantized Hamiltonian; constant = nuclear repulsion."""
    h_mo, eri_mo = mo_integrals(system, rhf)
    return spin_orbital_hamiltonian(system.nuclear_repulsion, h_mo, eri_mo)


def _ladder(p: int, n: int, creation: bool) -> dict[PauliString, complex]:
    """Jordan-Wigner image of a_p / a+_p as a two-term Pauli expansion."""
    z_head = "Z" * p
    tail = "I" * (n - p - 1)
    x_part = PauliString(z_head + "X" + tail)
    y_part = PauliString(z_head + "Y" + tail)
    y_coeff = -0.5j if creation else 0.5j
    return {x_part: 0.5, y_part: y_coeff}


def _op_product(
    factors: list[dict[PauliString, complex]]
) -> dict[PauliString, complex]:
    result = factors[0]
    for factor in factors[1:]:
        acc: dict[PauliString, complex] = {}
        for sa, ca in result.items():
            for sb, cb in factor.items():
                phase, prod = multiply(sa, sb)
                acc[prod] = acc.get(prod, 0.0) + ca * cb * phase
        result = acc
    return result


def jordan_wigner(h: FermionHamiltonian) -> PauliSum:
    """Map to qubits, one per spin orbital; output has real coefficients.

    Imaginary residue above 1e-12 of the largest coefficient signals a
    non-Hermitian input and raises; the bound is relative because the
    integrals grow as 1/r at short bonds.
    """
    n = h.n_spin_orbitals
    total: dict[PauliString, complex] = {identity_string(n): complex(h.constant)}

    def accumulate(ops: dict[PauliString, complex], coeff: float) -> None:
        for s, c in ops.items():
            total[s] = total.get(s, 0.0) + coeff * c

    for (p, q), coeff in h.one_body.items():
        accumulate(_op_product([_ladder(p, n, True), _ladder(q, n, False)]), coeff)
    for (p, q, r, s), coeff in h.two_body.items():
        accumulate(
            _op_product(
                [
                    _ladder(p, n, True),
                    _ladder(q, n, True),
                    _ladder(r, n, False),
                    _ladder(s, n, False),
                ]
            ),
            coeff,
        )

    worst_imag = max(abs(c.imag) for c in total.values())
    if worst_imag > 1e-12 * max(abs(c) for c in total.values()):
        raise ValueError(f"non-Hermitian input: imaginary Pauli weight {worst_imag:.3e}")
    return PauliSum({s: c.real for s, c in total.items()}, width=n)


def matrix_to_pauli_sum(mat: np.ndarray, width: int) -> PauliSum:
    """Expand a Hermitian 2^w x 2^w matrix over the Pauli basis."""
    dim = 2**width
    if mat.shape != (dim, dim):
        raise ValueError(f"matrix shape {mat.shape} does not match width {width}")
    terms: dict[PauliString, float] = {}
    for letters in _all_strings(width):
        s = PauliString(letters)
        coeff = np.trace(s.to_matrix() @ mat) / dim
        if abs(coeff.imag) > 1e-12:
            raise ValueError(f"non-Hermitian matrix: complex weight on {letters}")
        terms[s] = coeff.real
    return PauliSum(terms, width=width)


def _all_strings(width: int) -> Iterable[str]:
    if width == 0:
        yield ""
        return
    for head in LETTERS:
        for tail in _all_strings(width - 1):
            yield head + tail


def _project(mat: np.ndarray, states: tuple[int, ...]) -> np.ndarray:
    idx = np.asarray(states)
    keep = np.zeros(mat.shape[0], dtype=bool)
    keep[idx] = True
    coupling = np.abs(mat[np.ix_(keep, ~keep)]).max() if (~keep).any() else 0.0
    if coupling > TAPER_TOL:
        raise TaperingError(
            f"sector {states} not closed under the Hamiltonian "
            f"(coupling {coupling:.3e}); wrong input Hamiltonian?"
        )
    return mat[np.ix_(idx, idx)]


def taper(h4: PauliSum) -> tuple[PauliSum, PauliSum]:
    """Reduce the 4-qubit H2 Hamiltonian to 2- and 1-qubit representations.

    Projection onto the explicitly enumerated symmetry sectors: the 2-qubit
    operator covers {HF, both Sz-conserving singles, double} with code words
    |00>, |01>, |10>, |11> in that order; the 1-qubit operator covers
    {HF, double} as |0>, |1> and has the form g0*I + g1*Z + g2*X. Both
    reproduce the ground eigenvalue of the input exactly.
    """
    if h4.width != 4:
        raise TaperingError(f"expected a 4-qubit Hamiltonian, got width {h4.width}")
    mat = h4.to_matrix()
    if np.abs(mat.imag).max() > 1e-12:
        raise TaperingError("input Hamiltonian has an imaginary matrix part")
    mat = mat.real

    h2q = matrix_to_pauli_sum(_project(mat, BLOCK_DETERMINANTS[2]), 2)
    h1q = matrix_to_pauli_sum(_project(mat, BLOCK_DETERMINANTS[1]), 1)

    ground4 = np.linalg.eigvalsh(mat)[0]
    for reduced in (h2q, h1q):
        ground_r = np.linalg.eigvalsh(reduced.to_matrix())[0]
        if abs(ground_r - ground4) > TAPER_TOL:
            raise TaperingError(
                f"tapered ground {ground_r:.12f} != full ground {ground4:.12f}"
            )
    return h2q, h1q


def h1q_parameters(h1q: PauliSum) -> tuple[float, float, float]:
    """(g0, g1, g2) of a single-qubit operator g0*I + g1*Z + g2*X."""
    if h1q.width != 1:
        raise ValueError(f"expected width 1, got {h1q.width}")
    y = h1q.coefficient(PauliString("Y"))
    if abs(y) > 1e-12:
        raise ValueError(f"unexpected Y component {y:.3e}")
    return (
        h1q.coefficient(PauliString("I")),
        h1q.coefficient(PauliString("Z")),
        h1q.coefficient(PauliString("X")),
    )


@dataclass(frozen=True)
class HamiltonianBundle:
    """Everything the pipeline derives from one bond length."""

    h4: PauliSum
    h2q: PauliSum
    h1q: PauliSum
    levels: SubsystemLevels

    def subsystem_hamiltonian(self, representation: int) -> PauliSum:
        return {1: self.h1q, 2: self.h2q, 4: self.h4}[representation]


def build_hamiltonians(bond_length: float) -> HamiltonianBundle:
    """Integrals, RHF, the Jordan-Wigner operator, its tapered forms and the
    two-level spectrum of H2 at ``bond_length`` angstrom."""
    system = build_integrals(bond_length)
    rhf = solve_rhf(system)
    h4 = jordan_wigner(to_fermion(system, rhf))
    h2q, h1q = taper(h4)
    levels = SubsystemLevels.from_single_qubit_terms(*h1q_parameters(h1q))
    return HamiltonianBundle(h4=h4, h2q=h2q, h1q=h1q, levels=levels)
