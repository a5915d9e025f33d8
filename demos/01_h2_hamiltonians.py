"""From analytic integrals to a single-qubit H2 Hamiltonian.

Walks the full reduction chain at the equilibrium geometry: STO-3G
integrals -> restricted Hartree-Fock -> 4-qubit Jordan-Wigner operator ->
2-qubit and 1-qubit symmetry-reduced forms, checking at each step that the
ground eigenvalue never moves.

Run:  python demos/01_h2_hamiltonians.py
"""

import numpy as np

from sizecon import (
    build_integrals,
    h1q_parameters,
    jordan_wigner,
    solve_rhf,
    taper,
    to_fermion,
)
from sizecon.units import HARTREE_TO_KCAL_PER_MOL

BOND_LENGTH = 0.7414  # angstrom


def banner(title):
    print()
    print(f"--- {title} " + "-" * max(0, 60 - len(title)))


def main():
    banner("STO-3G integrals")
    system = build_integrals(BOND_LENGTH)
    print(f"bond length        : {BOND_LENGTH} A")
    print(f"nuclear repulsion  : {system.nuclear_repulsion:.10f} hartree")
    print(f"overlap            :\n{system.overlap}")
    print(f"(11|11), (11|22), (12|12): "
          f"{system.two_electron[0,0,0,0]:.6f}, "
          f"{system.two_electron[0,0,1,1]:.6f}, "
          f"{system.two_electron[0,1,0,1]:.6f}")

    banner("Restricted Hartree-Fock")
    rhf = solve_rhf(system)
    print(f"E_HF               : {rhf.e_hf:.10f} hartree "
          f"({rhf.e_hf * HARTREE_TO_KCAL_PER_MOL:.2f} kcal/mol)")
    print(f"orbital energies   : {rhf.orbital_energies}")
    print("MO coefficients (columns = gerade, ungerade):")
    print(rhf.mo_coefficients)

    banner("Jordan-Wigner operator on 4 qubits")
    h4 = jordan_wigner(to_fermion(system, rhf))
    print(f"{len(h4.sorted_strings())} non-identity terms "
          f"(+ identity), for example:")
    for s in h4.sorted_strings()[:6]:
        print(f"  {s}  {h4.coefficient(s):+.8f}")
    e4 = np.linalg.eigvalsh(h4.to_matrix())[0]
    print(f"ground eigenvalue  : {e4:.10f} hartree")
    print(f"<1100|H|1100>      : {h4.to_matrix()[0b1100, 0b1100].real:.10f} "
          "(the mean-field reference)")

    banner("Symmetry reduction to 2 and 1 qubits")
    h2q, h1q = taper(h4)
    print("2-qubit terms      :",
          {str(s): round(c, 6) for s, c in sorted(h2q, key=lambda t: t[0])})
    g0, g1, g2 = h1q_parameters(h1q)
    print(f"1-qubit form       : {g0:+.6f} I {g1:+.6f} Z {g2:+.6f} X")
    for label, h in (("2-qubit", h2q), ("1-qubit", h1q)):
        e = np.linalg.eigvalsh(h.to_matrix())[0]
        print(f"{label} ground     : {e:.10f} hartree (shift {abs(e - e4):.2e})")

    banner("Correlation energy")
    print(f"E_FCI - E_HF       : {(e4 - rhf.e_hf) * HARTREE_TO_KCAL_PER_MOL:+.3f} kcal/mol")


if __name__ == "__main__":
    main()
