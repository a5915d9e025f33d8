"""Independent reference implementations used only by the tests.

Each oracle deliberately takes a different computational route from the
library it checks:

* the configuration-interaction oracle applies ladder operators directly to
  occupation tuples (no Pauli algebra anywhere),
* the determinant expectation sums the diagonal Slater-Condon terms of a
  spin-orbital Hamiltonian's integrals (no qubit mapping),
* the dense Pauli/unitary helpers build matrices from scratch with kron and
  explicit basis-state rules (no reuse of the library's gate application),
* the density-matrix simulator evolves the full mixed state through exact
  depolarizing channels and readout confusion matrices,
* the per-pattern evolution takes one lone statevector per noise-insertion
  pattern, where the sampler evolves a stack of patterns at once; it keeps
  the sampler's element-wise arithmetic, so the two agree byte for byte,
* the chain-rule step binary-searches a segment's whole table, clamps to
  its last outcome and rescales every draw, where the sampler compares a
  one-qubit segment's draws with its middle bound, searches only the inner
  bounds and rescales only when a segment follows; the two agree byte for
  byte,
* the 3-vector integrals place both H2 centres in space and take every
  distance with ``np.dot``, where the library works on the bond axis; the
  two agree byte for byte,
* the SCF reference iterates Roothaan's fixed point from a zero density
  until the density stops changing, occupying the lowest orbital, where the
  library takes two Fock builds and occupies the gerade orbital,
* the regression oracle solves the weighted normal equations through a
  design-matrix factorization,
* the truncated-CI references diagonalize the full (N+1)-dimensional
  configuration matrix of N subsystems with ``np.linalg.eigh``, and
  evaluate the 2x2 closed form in 60-digit ``decimal`` arithmetic, where
  the library evaluates that closed form in float64,
* the block-code classes are written out by hand, code by code, where the
  library derives them from one determinant table and an excitation-level
  rule,
* the calibration references hold a device as Python lists and a pair dict,
  walk a document one entry at a time and average each qubit's pair errors
  per qubit, where the library holds numpy columns, checks them vectorised
  and scores every qubit at once; the two agree byte for byte,
* the random-plan reference maps each drawn index through the pool one at
  a time and slices each block, where the library maps all of a plan's
  draws with one index and reshapes them,
* the plan reference numbers each sample's ``(set, sample)`` key from the
  sample rows it tiles, where the library's ``plan_keys`` computes the keys
  from a config alone,
* the samples reader splits ``samples.csv`` into rows with the csv module,
  transposes them and converts each column of cell strings with
  ``np.array``, where the library parses the columns it reads with numpy's
  C text reader and walks the cells only when that reader rejects one,
* the register basis change writes every block's rotations onto register
  qubits by index arithmetic, where the library builds one block's
  rotations and lays them on each block with ``stateprep.compose``,
* the CSV text goes through ``csv.writer``, which quotes any cell that
  needs it, where the library joins ``str`` cells with commas.
"""

from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np

from sizecon.molecule import STO3G_H, boys_f0
from sizecon.rundir import SAMPLES_CSV, SizeSamples
from sizecon.stateprep import Circuit, Gate
from sizecon.units import BOHR_PER_ANGSTROM

# ---------------------------------------------------------------------------
# Dense Pauli matrices (independent of sizecon.pauli).
# ---------------------------------------------------------------------------

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(letters: str) -> np.ndarray:
    mat = PAULI_1Q[letters[0]]
    for c in letters[1:]:
        mat = np.kron(mat, PAULI_1Q[c])
    return mat


def pauli_decompose(mat: np.ndarray, width: int) -> dict[str, complex]:
    """Expansion coefficients over all 4^width Pauli strings."""
    letters = ["I", "X", "Y", "Z"]
    strings = [""]
    for _ in range(width):
        strings = [s + c for s in strings for c in letters]
    dim = 2**width
    return {s: np.trace(pauli_matrix(s) @ mat) / dim for s in strings}


# ---------------------------------------------------------------------------
# Brute-force configuration interaction over Slater determinants.
# ---------------------------------------------------------------------------


def _annihilate(occ: tuple[int, ...], p: int) -> tuple[int, tuple[int, ...]] | None:
    if p not in occ:
        return None
    sign = (-1) ** occ.index(p)
    return sign, tuple(q for q in occ if q != p)


def _create(occ: tuple[int, ...], p: int) -> tuple[int, tuple[int, ...]] | None:
    if p in occ:
        return None
    before = sum(1 for q in occ if q < p)
    sign = (-1) ** before
    return sign, tuple(sorted(occ + (p,)))


def _apply_term(
    occ: tuple[int, ...], ops: list[tuple[int, bool]]
) -> tuple[int, tuple[int, ...]] | None:
    """Apply ladder operators right-to-left; ops = [(orbital, is_creation), ...]."""
    sign = 1
    state = occ
    for orbital, creation in reversed(ops):
        step = _create(state, orbital) if creation else _annihilate(state, orbital)
        if step is None:
            return None
        s, state = step
        sign *= s
    return sign, state


class CiOracle:
    """Exact CI in the 4-determinant Sz = 0 space of H2, built from integrals.

    Uses its own AO->MO transform (explicit loops) and physicist-notation
    spin-orbital integrals with direct second-quantized operator
    application, fully independent of the Jordan-Wigner route.
    """

    DETERMINANTS = ((0, 1), (0, 3), (1, 2), (2, 3))   # HF, two singles, double

    def __init__(self, system, rhf):
        c = np.asarray(rhf.mo_coefficients)
        n_ao = c.shape[0]
        h_core = system.kinetic + system.nuclear_attraction
        h_mo = np.zeros((n_ao, n_ao))
        for p in range(n_ao):
            for q in range(n_ao):
                for mu in range(n_ao):
                    for nu in range(n_ao):
                        h_mo[p, q] += c[mu, p] * c[nu, q] * h_core[mu, nu]
        eri_mo = np.zeros((n_ao,) * 4)
        for p in range(n_ao):
            for q in range(n_ao):
                for r in range(n_ao):
                    for s in range(n_ao):
                        total = 0.0
                        for mu in range(n_ao):
                            for nu in range(n_ao):
                                for lam in range(n_ao):
                                    for sig in range(n_ao):
                                        total += (
                                            c[mu, p] * c[nu, q] * c[lam, r] * c[sig, s]
                                            * system.two_electron[mu, nu, lam, sig]
                                        )
                        eri_mo[p, q, r, s] = total
        self.h_mo = h_mo
        self.eri_mo = eri_mo
        self.constant = system.nuclear_repulsion
        self.n_spin = 2 * n_ao
        self.matrix = self._build_matrix()

    def _spin_h1(self, p: int, q: int) -> float:
        if p % 2 != q % 2:
            return 0.0
        return self.h_mo[p // 2, q // 2]

    def _spin_v(self, p: int, q: int, r: int, s: int) -> float:
        # physicist <pq|rs>: electron 1 (p, r), electron 2 (q, s)
        if p % 2 != r % 2 or q % 2 != s % 2:
            return 0.0
        return self.eri_mo[p // 2, r // 2, q // 2, s // 2]

    def _apply_h(self, occ: tuple[int, ...]) -> dict[tuple[int, ...], float]:
        out: dict[tuple[int, ...], float] = {occ: self.constant}
        n = self.n_spin
        for p in range(n):
            for q in range(n):
                h = self._spin_h1(p, q)
                if h == 0.0:
                    continue
                step = _apply_term(occ, [(p, True), (q, False)])
                if step is not None:
                    sign, state = step
                    out[state] = out.get(state, 0.0) + sign * h
        for p in range(n):
            for q in range(n):
                for r in range(n):
                    for s in range(n):
                        v = self._spin_v(p, q, r, s)
                        if v == 0.0:
                            continue
                        step = _apply_term(
                            occ, [(p, True), (q, True), (s, False), (r, False)]
                        )
                        if step is not None:
                            sign, state = step
                            out[state] = out.get(state, 0.0) + 0.5 * sign * v
        return out

    def _build_matrix(self) -> np.ndarray:
        dets = self.DETERMINANTS
        index = {d: i for i, d in enumerate(dets)}
        mat = np.zeros((len(dets), len(dets)))
        for j, det in enumerate(dets):
            for state, amp in self._apply_h(det).items():
                if state in index:
                    mat[index[state], j] += amp
        return mat

    @property
    def e_hf(self) -> float:
        return float(self.matrix[0, 0])

    @property
    def e_double(self) -> float:
        return float(self.matrix[3, 3])

    @property
    def hf_double_coupling(self) -> float:
        return float(self.matrix[0, 3])

    @property
    def e_fci(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    @property
    def fci_double_population(self) -> float:
        vals, vecs = np.linalg.eigh(self.matrix)
        return float(vecs[3, 0] ** 2)


def determinant_expectation(h, occupied) -> float:
    """<D|H|D> for the Slater determinant occupying the given spin orbitals
    of a ``FermionHamiltonian``."""
    occ = set(occupied)
    value = h.constant
    for (p, q), c in h.one_body.items():
        if p == q and p in occ:
            value += c
    for (p, q, r, s), c in h.two_body.items():
        if p in occ and q in occ and p != q:
            if (p, q) == (s, r):
                value += c
            if (p, q) == (r, s):
                value -= c
    return value


# ---------------------------------------------------------------------------
# Determinant class of every block code, by representation (qubits per H2);
# a code not listed is number-violating.
# ---------------------------------------------------------------------------

CLASSIFICATION = {
    1: {0b0: "hf", 0b1: "double"},
    2: {0b00: "hf", 0b01: "single", 0b10: "single", 0b11: "double"},
    4: {
        0b1100: "hf",
        0b0011: "double",
        0b1001: "single",
        0b0110: "single",
        0b1010: "single",
        0b0101: "single",
    },
}


# ---------------------------------------------------------------------------
# Exact circuit unitaries and density-matrix noise simulation.
# ---------------------------------------------------------------------------


def gate_unitary(gate, n: int) -> np.ndarray:
    """Full-register unitary built from explicit basis-state rules."""
    dim = 2**n
    if len(gate.targets) == 1:
        q = gate.targets[0]
        if gate.kind == "X":
            small = PAULI_1Q["X"]
        elif gate.kind == "RY":
            half = gate.angle / 2
            small = np.array(
                [[np.cos(half), -np.sin(half)], [np.sin(half), np.cos(half)]],
                dtype=complex,
            )
        elif gate.kind == "RZ":
            small = np.diag(
                [np.exp(-0.5j * gate.angle), np.exp(0.5j * gate.angle)]
            ).astype(complex)
        else:
            raise ValueError(gate.kind)
        mats = [PAULI_1Q["I"]] * n
        mats[q] = small
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        return full
    a, b = gate.targets
    full = np.zeros((dim, dim), dtype=complex)
    for code in range(dim):
        bit_a = (code >> (n - 1 - a)) & 1
        bit_b = (code >> (n - 1 - b)) & 1
        if gate.kind == "CZ":
            full[code, code] = -1.0 if bit_a and bit_b else 1.0
        elif gate.kind == "CNOT":
            out = code ^ ((1 << (n - 1 - b)) if bit_a else 0)
            full[out, code] = 1.0
        else:
            raise ValueError(gate.kind)
    return full


def circuit_unitary(circuit) -> np.ndarray:
    u = np.eye(2**circuit.width, dtype=complex)
    for gate in circuit.gates:
        u = gate_unitary(gate, circuit.width) @ u
    return u


def _pauli_on(letters_by_qubit: dict[int, str], n: int) -> np.ndarray:
    mats = [PAULI_1Q[letters_by_qubit.get(q, "I")] for q in range(n)]
    full = mats[0]
    for m in mats[1:]:
        full = np.kron(full, m)
    return full


def density_matrix_probs(circuit, device, physical_map, basis_change=None) -> np.ndarray:
    """Exact measured-bitstring distribution under the depolarizing + readout model."""
    n = circuit.width
    dim = 2**n
    # rates read by a scan of the device's plain lists, not its key lookup
    p10, p01, single = device.qubits.T.tolist()
    pair_errors = dict(zip(map(frozenset, device.pairs.tolist()), device.pair_errors.tolist()))
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        u = gate_unitary(gate, n)
        rho = u @ rho @ u.conj().T
        if len(gate.targets) == 1:
            p = single[physical_map[gate.targets[0]]]
            if p > 0:
                q = gate.targets[0]
                mixed = sum(
                    _pauli_on({q: c}, n) @ rho @ _pauli_on({q: c}, n) for c in "XYZ"
                )
                rho = (1 - p) * rho + (p / 3.0) * mixed
        else:
            a, b = gate.targets
            p = pair_errors.get(frozenset((physical_map[a], physical_map[b])), 0.0)
            if p > 0:
                mixed = np.zeros_like(rho)
                for ca in "IXYZ":
                    for cb in "IXYZ":
                        if ca == "I" and cb == "I":
                            continue
                        op = _pauli_on({a: ca, b: cb}, n)
                        mixed = mixed + op @ rho @ op
                rho = (1 - p) * rho + (p / 15.0) * mixed
    if basis_change is not None:
        for gate in basis_change.gates:
            u = gate_unitary(gate, n)
            rho = u @ rho @ u.conj().T
    probs = np.diag(rho).real.copy()
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum()

    # Readout confusion, one 2x2 stochastic matrix per qubit.
    tensor = probs.reshape([2] * n)
    for q in range(n):
        r10, r01 = p10[physical_map[q]], p01[physical_map[q]]
        confusion = np.array([[1 - r10, r01], [r10, 1 - r01]])
        tensor = np.moveaxis(
            np.tensordot(confusion, np.moveaxis(tensor, q, 0), axes=([1], [0])), 0, q
        )
    return tensor.reshape(-1)


# ---------------------------------------------------------------------------
# Per-pattern segment evolution: one lone statevector per insertion pattern.
# ---------------------------------------------------------------------------

_PAULI_BY_CODE = (PAULI_1Q["X"], PAULI_1Q["Y"], PAULI_1Q["Z"])


def _lone_1q(state: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    if len(state) == 2:
        a, b = state  # numpy scalars, as the sampler's width-1 rows
        return np.array([mat[0, 0] * a + mat[0, 1] * b, mat[1, 0] * a + mat[1, 1] * b])
    psi = state.reshape(1 << q, 2, -1)
    out = np.empty_like(psi)
    out[:, 0] = mat[0, 0] * psi[:, 0] + mat[0, 1] * psi[:, 1]
    out[:, 1] = mat[1, 0] * psi[:, 0] + mat[1, 1] * psi[:, 1]
    return out.reshape(-1)


def _lone_gate(state: np.ndarray, gate) -> np.ndarray:
    n = len(state).bit_length() - 1
    if gate.kind == "X":
        return _lone_1q(state, PAULI_1Q["X"], gate.targets[0])
    if gate.kind == "RY":
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        return _lone_1q(state, np.array([[c, -s], [s, c]], dtype=complex), gate.targets[0])
    if gate.kind == "RZ":
        phases = [[np.exp(-0.5j * gate.angle), 0], [0, np.exp(0.5j * gate.angle)]]
        return _lone_1q(state, np.array(phases, dtype=complex), gate.targets[0])
    psi = state.reshape([2] * n).copy()
    a, b = gate.targets
    idx: list = [slice(None)] * n
    idx[a] = 1
    if gate.kind == "CZ":
        idx[b] = 1
        psi[tuple(idx)] *= -1
    else:
        psi[tuple(idx)] = np.flip(psi[tuple(idx)], axis=b - (b > a))
    return psi.reshape(-1)


def pattern_distribution(gates, pattern: bytes) -> np.ndarray:
    """Cumulative outcome distribution, with a leading 0, of a segment's
    gates under one insertion pattern: after gate ``g``, code
    ``pattern[g]`` inserts X (1), Y (2) or Z (3) on a one-qubit gate, and
    ``4 * first + second`` of them on a pair gate's targets."""
    n = 1 + max((t for g in gates for t in g.targets), default=0)
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for gate, code in zip(gates, pattern):
        state = _lone_gate(state, gate)
        letters = divmod(code, 4) if len(gate.targets) == 2 else (code,)
        for letter, q in zip(letters, gate.targets):
            if letter:
                state = _lone_1q(state, _PAULI_BY_CODE[letter - 1], q)
    probs = np.abs(state) ** 2
    return np.concatenate(([0.0], np.cumsum(probs / probs.sum())))


def reference_invert(cum: np.ndarray, u_meas: np.ndarray, codes: np.ndarray, n: int) -> tuple:
    """One chain-rule step over a segment's cumulative table ``cum`` (with
    a leading 0): each draw's outcome, the last one whose lower bound is at
    most the draw, appended to its code as ``n`` bits, and the draw
    rescaled into the chosen interval (1 where that interval is empty)."""
    x = np.minimum(np.searchsorted(cum, u_meas, side="right") - 1, 2**n - 1)
    lower = cum[x]
    span = cum[x + 1] - lower
    rescaled = np.divide(u_meas - lower, span, out=np.ones_like(lower), where=span > 0)
    return rescaled, (codes << n) | x


# ---------------------------------------------------------------------------
# H2 STO-3G integrals with both centres as 3-vectors.
# ---------------------------------------------------------------------------


def _overlap_3d(a, b, ra, rb):
    p = a + b
    rab2 = float(np.dot(ra - rb, ra - rb))
    return (math.pi / p) ** 1.5 * math.exp(-a * b / p * rab2)


def _kinetic_3d(a, b, ra, rb):
    p = a + b
    mu = a * b / p
    rab2 = float(np.dot(ra - rb, ra - rb))
    return mu * (3.0 - 2.0 * mu * rab2) * (math.pi / p) ** 1.5 * math.exp(-mu * rab2)


def _nuclear_3d(a, b, ra, rb, rc):
    p = a + b
    rab2 = float(np.dot(ra - rb, ra - rb))
    rp = (a * ra + b * rb) / p
    rpc2 = float(np.dot(rp - rc, rp - rc))
    return -2.0 * math.pi / p * math.exp(-a * b / p * rab2) * boys_f0(p * rpc2)


def _eri_3d(a, b, c, d, ra, rb, rc, rd):
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


def integrals_3d(bond_length: float) -> dict[str, np.ndarray]:
    """Overlap, kinetic, nuclear-attraction and (pq|rs) matrices of H2 at
    ``bond_length`` angstrom, with the centres at the origin and on +z."""
    r_bohr = bond_length * BOHR_PER_ANGSTROM
    centers = [np.zeros(3), np.array([0.0, 0.0, r_bohr])]
    prims = [(alpha, coeff * (2.0 * alpha / math.pi) ** 0.75) for alpha, coeff in STO3G_H]
    norm = 1.0 / math.sqrt(
        sum(ca * cb * _overlap_3d(a, b, centers[0], centers[0]) for a, ca in prims for b, cb in prims)
    )
    out = {name: np.empty((2, 2)) for name in ("overlap", "kinetic", "nuclear_attraction")}
    for i in range(2):
        for j in range(2):
            ri, rj = centers[i], centers[j]
            for name, kernel in (("overlap", _overlap_3d), ("kinetic", _kinetic_3d)):
                out[name][i, j] = norm**2 * sum(
                    ca * cb * kernel(a, b, ri, rj) for a, ca in prims for b, cb in prims
                )
            out["nuclear_attraction"][i, j] = norm**2 * sum(
                ca * cb * _nuclear_3d(a, b, ri, rj, rc)
                for a, ca in prims for b, cb in prims for rc in centers
            )
    eri = np.empty((2, 2, 2, 2))
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        eri[i, j, k, l] = norm**4 * sum(
            c1 * c2 * c3 * c4
            * _eri_3d(a1, a2, a3, a4, centers[i], centers[j], centers[k], centers[l])
            for a1, c1 in prims for a2, c2 in prims for a3, c3 in prims for a4, c4 in prims
        )
    out["two_electron"] = eri
    return out


# ---------------------------------------------------------------------------
# Roothaan SCF iterated to a density-change tolerance.
# ---------------------------------------------------------------------------


def rhf_scf_loop(system, tol: float = 1e-10, max_iter: int = 200):
    """(mo_coefficients, orbital_energies, e_hf, iterations) of closed-shell
    Roothaan SCF from a zero density, iterated until the largest density
    change is under ``tol``, the lowest orbital doubly occupied. Signs are
    fixed so the first atom's coefficients are non-negative. Returns None if
    it does not converge in ``max_iter`` iterations, which happens where the
    two orbital energies swap places at each iteration (past about 5.6
    angstrom)."""
    s, h, eri = system.overlap, system.core_hamiltonian, system.two_electron
    s_vals, s_vecs = np.linalg.eigh(s)
    x = s_vecs @ np.diag(s_vals**-0.5) @ s_vecs.T
    density = np.zeros_like(s)
    for iteration in range(1, max_iter + 1):
        g = np.einsum("ls,mnls->mn", density, eri) - 0.5 * np.einsum("ls,mlsn->mn", density, eri)
        fock = h + g
        energies, c_prime = np.linalg.eigh(x.T @ fock @ x)
        coeffs = x @ c_prime
        new_density = 2.0 * np.outer(coeffs[:, 0], coeffs[:, 0])
        delta = float(np.max(np.abs(new_density - density)))
        density = new_density
        if delta < tol:
            break
    else:
        return None
    coeffs = coeffs * np.where(coeffs[0] < 0, -1.0, 1.0)
    fock = h + np.einsum("ls,mnls->mn", density, eri) - 0.5 * np.einsum("ls,mlsn->mn", density, eri)
    e_hf = 0.5 * float(np.sum(density * (h + fock))) + system.nuclear_repulsion
    return coeffs, energies, e_hf, iteration


# ---------------------------------------------------------------------------
# Weighted least squares through the normal equations on a design matrix.
# ---------------------------------------------------------------------------


def wls_normal_equations(points) -> tuple[float, float, float]:
    """(intercept, slope, slope stderr) of the weighted normal equations.

    Solved through the square-root-weighted design matrix with an
    orthogonal-factorization least-squares solve, so the oracle stays
    well-conditioned even for badly scaled instances.
    """
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    w = 1.0 / np.array([p[2] for p in points], dtype=float) ** 2
    a = np.column_stack([np.ones_like(x), x])
    b = np.sqrt(w)[:, None] * a
    beta, *_ = np.linalg.lstsq(b, np.sqrt(w) * y, rcond=None)
    residuals = y - a @ beta
    dof = len(x) - 2
    if dof > 0:
        sigma2 = float(residuals @ (w * residuals)) / dof
        pinv = np.linalg.pinv(b)
        cov = sigma2 * (pinv @ pinv.T)
        stderr = float(np.sqrt(cov[1, 1]))
    else:
        stderr = 0.0
    return float(beta[0]), float(beta[1]), stderr


# ---------------------------------------------------------------------------
# Truncated CI of N non-interacting subsystems: the reference plus one
# double excitation per subsystem.
# ---------------------------------------------------------------------------


def cisd_eigensolve(levels, n: int) -> tuple[float, float]:
    """(energy, double population per subsystem) of the (N+1) x (N+1)
    configuration matrix, diagonalized as it stands: nothing assumes that
    only the symmetric sum of the doubles mixes with the reference."""
    mat = np.zeros((n + 1, n + 1))
    mat[0, 0] = n * levels.e_hf
    for i in range(1, n + 1):
        mat[i, i] = (n - 1) * levels.e_hf + levels.e_double
        mat[0, i] = mat[i, 0] = levels.coupling
    vals, vecs = np.linalg.eigh(mat)
    return float(vals[0]), float(np.sum(vecs[1:, 0] ** 2)) / n


def cisd_decimal(levels, n: int, digits: int = 60) -> tuple[Decimal, Decimal, Decimal]:
    """(energy, double population per subsystem, correlation per subsystem)
    of the 2x2 problem [[a, b], [b, d]] with a = N e_hf, d = (N-1) e_hf +
    e_double and b^2 = N c^2, in ``digits``-digit decimal arithmetic from
    the exact values of the float levels."""
    with localcontext() as ctx:
        ctx.prec = digits
        e_hf, e_double, c = (Decimal(v) for v in (levels.e_hf, levels.e_double, levels.coupling))
        a, d, b2 = n * e_hf, (n - 1) * e_hf + e_double, n * c * c
        half_gap = (a - d) / 2
        radius = (half_gap * half_gap + b2).sqrt()
        energy = (a + d) / 2 - radius
        weight = b2 / ((radius - half_gap) ** 2 + b2)
        return energy, weight / n, (energy - a) / n


# ---------------------------------------------------------------------------
# Calibration: a device as plain Python data, read one entry at a time.
# ---------------------------------------------------------------------------

CALIBRATION_KEYS = ("readout_p10", "readout_p01", "single_qubit_error")


def _calibration_field(entry, key, kinds, default=None):
    value = entry.get(key, default) if type(entry) is dict else None
    if value is None:
        raise ValueError(f"{key} is missing")
    if type(value) not in kinds:
        raise ValueError(f"{key} has the wrong type {type(value).__name__}")
    return value


def _unit_interval(value, name):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} = {value} outside [0, 1]")


def reference_read_calibration(text: str) -> tuple[list, dict]:
    """``(qubits, pairs)`` of a calibration document: one rate triple per
    qubit and a dict from (min, max) pair to error, in file order, each
    value as written. Walks the entries in file order and checks each
    fully (types, then ranges, indices and repeats) before the next, so the
    first entry at fault raises the ``ValueError`` that names it."""
    payload, where = json.loads(text), ""
    try:
        qubits = []
        for i, entry in enumerate(_calibration_field(payload, "qubits", (list,))):
            where = f"qubits[{i}]."
            rates = [_calibration_field(entry, key, (int, float)) for key in CALIBRATION_KEYS]
            for key, value in zip(CALIBRATION_KEYS, rates):
                _unit_interval(value, key)
            qubits.append(tuple(rates))
        where, pairs = "", {}
        for j, entry in enumerate(_calibration_field(payload, "two_qubit_error", (list,), [])):
            where = f"two_qubit_error[{j}]."
            pair = _calibration_field(entry, "pair", (list,))
            if len(pair) != 2 or type(pair[0]) is not int or type(pair[1]) is not int:
                raise ValueError(f"pair is not two ints: {pair}")
            error = _calibration_field(entry, "error", (int, float))
            _unit_interval(error, "error")
            a, b = pair
            if a == b or not (0 <= a < len(qubits) and 0 <= b < len(qubits)):
                raise ValueError(f"pair {pair} repeats a qubit or leaves the device")
            if (min(a, b), max(a, b)) in pairs:
                raise ValueError(f"pair {pair} is listed twice")
            pairs[min(a, b), max(a, b)] = error
    except ValueError as error:
        raise ValueError(f"calibration: {where}{error}") from None
    return qubits, pairs


def reference_calibration_json(qubits: list, pairs: dict) -> str:
    """The calibration document of ``reference_read_calibration``'s data,
    pairs sorted, laid out as ``json.dumps(payload, indent=2)`` does: every
    number is written by the C encoder, then placed into the layout."""
    ordered = sorted(pairs.items())
    numbers = [v for rates in qubits for v in rates] + [v for (a, b), p in ordered for v in (a, b, p)]
    text = iter(json.dumps(numbers)[1:-1].split(", "))
    rows = [
        '    {\n      "readout_p10": %s,\n      "readout_p01": %s,\n'
        '      "single_qubit_error": %s\n    }' % (next(text), next(text), next(text))
        for _ in qubits
    ]
    pair_rows = [
        '    {\n      "pair": [\n        %s,\n        %s\n      ],\n'
        '      "error": %s\n    }' % (next(text), next(text), next(text))
        for _ in ordered
    ]
    lists = ["[\n" + ",\n".join(items) + "\n  ]" if items else "[]" for items in (rows, pair_rows)]
    return '{\n  "qubits": %s,\n  "two_qubit_error": %s\n}\n' % tuple(lists)


def reference_scores(qubits: list, pairs: dict) -> list[float]:
    """Each qubit's mean readout error plus the mean of the errors of the
    pairs that hold it, gathered per qubit in the order the pairs are listed
    and averaged by ``np.mean``; 0 for a qubit in no pair."""
    incident = [[] for _ in qubits]
    for (a, b), p in pairs.items():
        incident[a].append(p)
        incident[b].append(p)
    return [
        0.5 * (p10 + p01) + (float(np.mean(incident[q])) if incident[q] else 0.0)
        for q, (p10, p01, _) in enumerate(qubits)
    ]


# ---------------------------------------------------------------------------
# Sampling and measurement plans, built one sample, block and qubit at a time.
# ---------------------------------------------------------------------------


def reference_plan(samples: np.ndarray, sets: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """``keys`` and ``maps`` of ``sets`` copies of the rows of ``samples``,
    set by set; a row's index in ``samples`` is its sample index. The plans
    once returned both from this one function, where the library now
    returns only ``maps`` and derives ``keys`` from a config alone."""
    keys = np.indices((sets, len(samples))).reshape(2, -1).T
    return keys, np.tile(samples, (sets, 1))


def reference_random_plan(pool, n_subsystems: int, width: int, s: int, seed: int) -> list[tuple]:
    """``(set_index, sample_index, blocks)`` of each random-plan sample: one
    ``choice`` per sample, each drawn index mapped through the pool on its
    own and the blocks cut by slicing, where the library maps every draw at
    once and reshapes."""
    rng = np.random.default_rng(seed)
    entries = []
    for sample_index in range(s):
        chosen = rng.choice(len(pool), size=n_subsystems * width, replace=False)
        qubits = [pool[int(i)] for i in chosen]
        blocks = tuple(tuple(qubits[b * width : (b + 1) * width]) for b in range(n_subsystems))
        entries.append((0, sample_index, blocks))
    return entries


def reference_basis_change(basis: str, n_subsystems: int) -> Circuit:
    """One group's basis rotations on the whole N-block register, each
    block's qubits at ``block * width + pos``."""
    width = len(basis)
    gates: list[Gate] = []
    for block in range(n_subsystems):
        for pos, letter in enumerate(basis):
            q = block * width + pos
            if letter == "X":
                gates.append(Gate("RY", (q,), -math.pi / 2))
            elif letter == "Y":
                gates.append(Gate("RZ", (q,), -math.pi / 2))
                gates.append(Gate("RY", (q,), -math.pi / 2))
    return Circuit(width * n_subsystems, tuple(gates))


# ---------------------------------------------------------------------------
# CSV text through the csv module.
# ---------------------------------------------------------------------------


def reference_csv_text(header, rows) -> str:
    """A header line, then one line per row, all with LF line ends, written
    by ``csv.writer``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# The samples reader, through the csv module and one column at a time.
# ---------------------------------------------------------------------------

_KEY_COLUMNS = ("n_subsystems", "set_index", "sample_index", "subsystem")
_VALUE_COLUMNS = ("energy_hartree", "energy_shot_stderr_hartree", "p_single", "p_double")


def _numbers(path: Path, name: str, cells: tuple[str, ...], kind: type) -> np.ndarray:
    """Column ``name`` as ``kind``; a cell that is not one, or not finite,
    raises a ValueError naming its row (data rows count from 1) and the
    column."""
    try:
        numbers = np.array(cells, dtype=kind)
    except (ValueError, OverflowError):
        for row, cell in enumerate(cells, 1):
            try:
                np.array(cell, dtype=kind)
            except (ValueError, OverflowError):
                what = "a 64-bit integer" if kind is np.int64 else "a number"
                raise ValueError(f"{path} row {row}, column {name}: {cell!r} is not {what}") from None
        raise
    bad = np.flatnonzero(~np.isfinite(numbers))
    if bad.size:
        row = int(bad[0]) + 1
        raise ValueError(
            f"{path} row {row}, column {name}: {cells[row - 1]!r} is not a finite number"
        )
    return numbers


def reference_load_samples(
    run_dir: Path, keys: list[tuple[int, int, int]]
) -> dict[int, SizeSamples]:
    """``load_samples`` as it once read ``samples.csv`` through
    ``csv.reader``, ``zip(*rows)`` and one ``np.array`` per column of cell
    strings: the reference for the files ``run`` writes, which the library
    reads with its digest and whole-file checks."""
    path = run_dir / SAMPLES_CSV
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for column in _KEY_COLUMNS + _VALUE_COLUMNS:
            if column not in header:
                raise ValueError(f"{path} has no column {column}")
        rows = list(reader)
    sizes = np.array([key[0] for key in keys], dtype=np.int64)
    if len(rows) != sizes.sum():
        raise ValueError(
            f"{path} has {len(rows)} subsystem rows; its manifest expects {sizes.sum()}"
        )
    if not rows:
        raise ValueError(f"{path} holds no samples")
    if set(map(len, rows)) != {len(header)}:
        row = next(i for i, cells in enumerate(rows, 1) if len(cells) != len(header))
        raise ValueError(f"{path} row {row} has {len(rows[row - 1])} cells, not {len(header)}")
    cells = dict(zip(header, zip(*rows)))
    found = np.column_stack([_numbers(path, name, cells[name], np.int64) for name in _KEY_COLUMNS])
    order = np.lexsort(found.T[::-1])
    found = found[order]
    expected = np.column_stack([
        np.repeat(np.array(keys, dtype=np.int64), sizes, axis=0),
        np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes),
    ])
    if not np.array_equal(found, expected):
        first = np.flatnonzero((found != expected).any(axis=1))[0]
        group = min(found[first].tolist(), expected[first].tolist())[:3]
        held, listed = (t[(t[:, :3] == group).all(axis=1), 3].tolist() for t in (found, expected))
        raise ValueError(
            f"{path} holds subsystem rows {held} for N{group[0]}/set{group[1]}/"
            f"sample{group[2]}; its manifest expects {listed or 'none'}"
        )
    values = [_numbers(path, name, cells[name], float)[order] for name in _VALUE_COLUMNS]
    values[1] **= 2
    by_n = {}
    for n in np.unique(sizes).tolist():
        lo, hi = np.searchsorted(found[:, 0], (n, n + 1))
        sums = [column[lo:hi].reshape(-1, n).sum(axis=1) for column in values]
        reduced = (total / n**power for total, power in zip(sums, (1, 2, 1, 1)))
        by_n[n] = SizeSamples(found[lo:hi:n, :3], *reduced)
    return by_n
