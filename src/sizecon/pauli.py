"""Exact symbolic algebra over multi-qubit Pauli strings.

Conventions used throughout the package:

* A Pauli string is written left-to-right as qubit 0..n-1, e.g. ``"ZIZI"``
  puts Z on qubits 0 and 2 of a 4-qubit register.
* Phases are tracked exactly as integer powers of ``i`` and only exposed as
  one of the four exact units ``{1, i, -1, -i}``; no floating-point phase
  arithmetic happens anywhere.
* Weighted sums of strings (:class:`PauliSum`) carry real coefficients,
  which is all a Hermitian Hamiltonian needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

LETTERS = "IXYZ"

# Exact phase units indexed by the power of i.
PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

# Single-letter products: (a, b) -> (k, c) meaning a*b = i**k * c.
_PRODUCT: dict[tuple[str, str], tuple[int, str]] = {}
for _p in LETTERS:
    _PRODUCT[("I", _p)] = (0, _p)
    _PRODUCT[(_p, "I")] = (0, _p)
    _PRODUCT[(_p, _p)] = (0, "I")
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _PRODUCT[(_a, _b)] = (1, _c)   # XY = iZ and cyclic
    _PRODUCT[(_b, _a)] = (3, _c)   # YX = -iZ and cyclic

_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Coefficients below this magnitude are dropped when building sums; far below
# anything resolvable at realistic shot counts.
COEFF_CUTOFF = 1e-14


@dataclass(frozen=True, order=True)
class PauliString:
    """An unsigned Pauli word, one letter per qubit."""

    letters: str

    def __post_init__(self) -> None:
        if len(self.letters) < 1:
            raise ValueError("Pauli string must cover at least one qubit")
        bad = set(self.letters) - set(LETTERS)
        if bad:
            raise ValueError(f"invalid Pauli letters {sorted(bad)!r}; expected I/X/Y/Z")

    @property
    def width(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return set(self.letters) == {"I"}

    @property
    def support(self) -> tuple[int, ...]:
        """Qubit indices carrying a non-identity letter."""
        return tuple(i for i, c in enumerate(self.letters) if c != "I")

    def __str__(self) -> str:
        return self.letters

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix; qubit 0 is the leftmost kron factor."""
        mat = _MATRICES[self.letters[0]]
        for c in self.letters[1:]:
            mat = np.kron(mat, _MATRICES[c])
        return mat


def identity_string(width: int) -> PauliString:
    return PauliString("I" * width)


def _check_widths(a: PauliString, b: PauliString) -> None:
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")


def multiply(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Product a*b as (phase, string) with phase one of {1, i, -1, -i}."""
    _check_widths(a, b)
    k = 0
    out = []
    for ca, cb in zip(a.letters, b.letters):
        dk, c = _PRODUCT[(ca, cb)]
        k += dk
        out.append(c)
    return PHASES[k % 4], PauliString("".join(out))


def qubitwise_commutes(a: PauliString, b: PauliString) -> bool:
    """True iff every position commutes individually (equal or one is I).

    Strictly stronger than commuting as operators; qubit-wise commuting
    strings can be measured simultaneously after a single layer of one-qubit
    rotations.
    """
    _check_widths(a, b)
    return all(
        ca == "I" or cb == "I" or ca == cb for ca, cb in zip(a.letters, b.letters)
    )


def qubitwise_groups(strings: Iterable[PauliString]) -> list[list[PauliString]]:
    """Partition strings into qubit-wise commuting groups.

    Greedy first-fit over the input order: each string joins the first group
    it is qubit-wise compatible with, else opens a new group. Deterministic
    for a deterministic input order.
    """
    groups: list[list[PauliString]] = []
    for s in strings:
        for group in groups:
            if all(qubitwise_commutes(s, member) for member in group):
                group.append(s)
                break
        else:
            groups.append([s])
    return groups


class PauliSum:
    """Real-weighted sum of equal-width Pauli strings.

    Coefficients below ``COEFF_CUTOFF`` are dropped on construction (the
    identity coefficient is always kept so constant energy offsets survive).
    """

    def __init__(self, terms: Mapping[PauliString, float], width: int | None = None):
        widths = {s.width for s in terms}
        if len(widths) > 1:
            raise ValueError(f"mixed widths in PauliSum: {sorted(widths)}")
        if width is None:
            if not widths:
                raise ValueError("empty PauliSum needs an explicit width")
            width = widths.pop()
        elif widths and widths.pop() != width:
            raise ValueError("explicit width disagrees with term width")
        self._width = width
        self._terms = {
            s: float(c) for s, c in terms.items() if abs(c) > COEFF_CUTOFF or s.is_identity
        }

    @property
    def width(self) -> int:
        return self._width

    @property
    def constant(self) -> float:
        """Coefficient of the identity string (0.0 if absent)."""
        return self._terms.get(identity_string(self._width), 0.0)

    def sorted_strings(self) -> list[PauliString]:
        """Non-identity strings in lexicographic order; the canonical
        deterministic order."""
        return [s for s in sorted(self._terms) if not s.is_identity]

    def coefficient(self, s: PauliString) -> float:
        return self._terms.get(s, 0.0)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[PauliString, float]]:
        return iter(self._terms.items())

    def to_matrix(self) -> np.ndarray:
        """Dense Hermitian matrix of the sum (intended for width <= 8)."""
        dim = 2**self._width
        mat = np.zeros((dim, dim), dtype=complex)
        for s, c in self._terms.items():
            mat += c * s.to_matrix()
        return mat
