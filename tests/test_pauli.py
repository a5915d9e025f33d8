import itertools

import numpy as np
import pytest

from sizecon.pauli import (
    PauliString,
    PauliSum,
    identity_string,
    multiply,
    qubitwise_commutes,
    qubitwise_groups,
)

from oracles import pauli_matrix

LETTERS = "IXYZ"


def all_strings(width):
    return ["".join(p) for p in itertools.product(LETTERS, repeat=width)]


def matrices_commute(a, b):
    ma, mb = pauli_matrix(a), pauli_matrix(b)
    return np.allclose(ma @ mb - mb @ ma, 0)


def products_commute(a, b):
    # a and b commute iff a*b and b*a carry the same exact phase
    phase_ab, prod_ab = multiply(PauliString(a), PauliString(b))
    phase_ba, prod_ba = multiply(PauliString(b), PauliString(a))
    assert prod_ab == prod_ba
    return phase_ab == phase_ba


class TestMultiply:
    def test_xy_gives_iz(self):
        phase, prod = multiply(PauliString("X"), PauliString("Y"))
        assert phase == 1j
        assert prod.letters == "Z"

    def test_identity_absorbs(self):
        for letters in all_strings(2):
            phase, prod = multiply(PauliString("II"), PauliString(letters))
            assert phase == 1
            assert prod.letters == letters

    def test_xz_times_zx(self):
        phase, prod = multiply(PauliString("XZ"), PauliString("ZX"))
        assert prod.letters == "YY"
        assert phase == 1  # (-i)(+i) accumulates to +1

    @pytest.mark.parametrize("a", LETTERS)
    @pytest.mark.parametrize("b", LETTERS)
    def test_single_letter_matrix_oracle(self, a, b):
        phase, prod = multiply(PauliString(a), PauliString(b))
        expected = pauli_matrix(a) @ pauli_matrix(b)
        assert np.allclose(phase * pauli_matrix(prod.letters), expected)

    def test_width3_matrix_oracle(self):
        rng = np.random.default_rng(4)
        strings = all_strings(3)
        for _ in range(150):
            a, b = rng.choice(strings, size=2)
            phase, prod = multiply(PauliString(a), PauliString(b))
            assert np.allclose(
                phase * pauli_matrix(prod.letters), pauli_matrix(a) @ pauli_matrix(b)
            )

    def test_associative_up_to_phase(self):
        rng = np.random.default_rng(5)
        strings = all_strings(3)
        for _ in range(100):
            a, b, c = (PauliString(s) for s in rng.choice(strings, size=3))
            p1, ab = multiply(a, b)
            p2, ab_c = multiply(ab, c)
            q1, bc = multiply(b, c)
            q2, a_bc = multiply(a, bc)
            assert ab_c == a_bc
            assert p1 * p2 == q1 * q2

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width mismatch"):
            multiply(PauliString("X"), PauliString("XX"))


class TestCommutation:
    def test_paper_grouping_example(self):
        assert qubitwise_commutes(PauliString("ZIZI"), PauliString("ZZII"))
        assert products_commute("ZIZI", "ZZII")

    def test_single_qubit_anticommutation(self):
        assert not qubitwise_commutes(PauliString("X"), PauliString("Z"))
        assert not products_commute("X", "Z")

    def test_disjoint_supports(self):
        assert qubitwise_commutes(PauliString("XI"), PauliString("IZ"))
        assert products_commute("XI", "IZ")

    def test_matrix_commutator_oracle_exhaustive(self):
        for width in (1, 2):
            for a in all_strings(width):
                for b in all_strings(width):
                    expected = matrices_commute(a, b)
                    assert products_commute(a, b) == expected
                    if qubitwise_commutes(PauliString(a), PauliString(b)):
                        assert expected

    def test_matrix_commutator_oracle_width3(self):
        rng = np.random.default_rng(6)
        strings = all_strings(3)
        for _ in range(400):
            a, b = rng.choice(strings, size=2)
            expected = matrices_commute(a, b)
            assert products_commute(a, b) == expected
            if qubitwise_commutes(PauliString(a), PauliString(b)):
                assert expected

    def test_identity_commutes_with_everything(self):
        for letters in all_strings(2):
            assert qubitwise_commutes(identity_string(2), PauliString(letters))
            assert qubitwise_commutes(PauliString(letters), identity_string(2))

    def test_qubitwise_is_stronger(self):
        assert matrices_commute("XY", "YX")
        assert products_commute("XY", "YX")
        assert not qubitwise_commutes(PauliString("XY"), PauliString("YX"))

    def test_qubitwise_is_letterwise_commutation(self):
        # qubit-wise commuting means every single-qubit factor pair commutes
        for a in all_strings(2):
            for b in all_strings(2):
                expected = all(matrices_commute(x, y) for x, y in zip(a, b))
                assert qubitwise_commutes(PauliString(a), PauliString(b)) == expected

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width mismatch"):
            qubitwise_commutes(PauliString("Z"), PauliString("ZZ"))


class TestPauliString:
    def test_support_and_identity(self):
        s = PauliString("IXIZ")
        assert s.width == 4
        assert s.support == (1, 3)
        assert not s.is_identity
        assert str(s) == "IXIZ"

    def test_identity_string(self):
        s = identity_string(3)
        assert s == PauliString("III")
        assert s.is_identity
        assert s.support == ()

    def test_to_matrix_matches_oracle(self):
        # qubit 0 is the leftmost kron factor
        for letters in all_strings(2):
            assert np.array_equal(PauliString(letters).to_matrix(), pauli_matrix(letters))
        rng = np.random.default_rng(10)
        for letters in rng.choice(all_strings(3), size=20):
            assert np.array_equal(PauliString(letters).to_matrix(), pauli_matrix(letters))


class TestQubitwiseGroups:
    def test_paper_strings_one_group(self):
        strings = [PauliString(s) for s in ("ZIZI", "ZZII", "IIZZ")]
        groups = qubitwise_groups(strings)
        assert len(groups) == 1

    def test_noncommuting_two_groups(self):
        groups = qubitwise_groups([PauliString("Z"), PauliString("X")])
        assert len(groups) == 2

    def test_partition_preserves_input(self):
        rng = np.random.default_rng(8)
        strings = [PauliString(s) for s in rng.choice(all_strings(3), size=20)]
        groups = qubitwise_groups(strings)
        flattened = [s for g in groups for s in g]
        assert sorted(flattened) == sorted(strings)

    def test_every_group_pair_commutes(self):
        rng = np.random.default_rng(9)
        strings = [PauliString(s) for s in rng.choice(all_strings(4), size=30)]
        for group in qubitwise_groups(strings):
            for a, b in itertools.combinations(group, 2):
                assert qubitwise_commutes(a, b)

    def test_h2_hamiltonian_grouping(self, bundle):
        strings = bundle.h4.sorted_strings()
        groups = qubitwise_groups(strings)
        assert len(groups) <= 5
        # exhaustive pair check inside every group
        for group in groups:
            for a, b in itertools.combinations(group, 2):
                assert qubitwise_commutes(a, b)


class TestPauliSum:
    def test_drops_tiny_terms(self):
        total = PauliSum({PauliString("Z"): 1e-16, PauliString("X"): 1.0})
        assert dict(total) == {PauliString("X"): 1.0}

    def test_mixed_width_rejected(self):
        with pytest.raises(ValueError, match="mixed widths"):
            PauliSum({PauliString("Z"): 1.0, PauliString("ZZ"): 1.0})

    def test_identity_kept_below_cutoff(self):
        total = PauliSum({PauliString("II"): 1e-16, PauliString("ZI"): 1.0})
        assert total.constant == 1e-16
        assert len(total) == 2

    def test_constant_absent_is_zero(self):
        total = PauliSum({PauliString("ZI"): 1.0})
        assert total.constant == 0.0
        assert total.coefficient(PauliString("IZ")) == 0.0

    def test_empty_needs_width(self):
        with pytest.raises(ValueError, match="explicit width"):
            PauliSum({})
        empty = PauliSum({}, width=2)
        assert empty.width == 2
        assert len(empty) == 0
        assert np.array_equal(empty.to_matrix(), np.zeros((4, 4)))

    def test_explicit_width_disagrees(self):
        with pytest.raises(ValueError, match="disagrees"):
            PauliSum({PauliString("Z"): 1.0}, width=2)

    def test_sorted_strings_canonical(self):
        total = PauliSum(
            {PauliString(s): 1.0 for s in ("ZZ", "II", "XI", "IZ", "YX")}
        )
        assert [s.letters for s in total.sorted_strings()] == ["IZ", "XI", "YX", "ZZ"]

    def test_coefficients_keep_their_bits(self):
        c = float(np.nextafter(0.1, 1.0))
        total = PauliSum(
            {PauliString("X"): np.float64(c), PauliString("Z"): 2, PauliString("I"): -c}
        )
        assert total.coefficient(PauliString("X")) == c
        assert total.constant == -c
        for _, coeff in total:
            assert type(coeff) is float
        assert total.coefficient(PauliString("Z")) == 2.0

    def test_to_matrix_matches_oracle(self):
        rng = np.random.default_rng(11)
        terms = {PauliString(s): rng.normal() for s in all_strings(3)}
        expected = sum(c * pauli_matrix(s.letters) for s, c in terms.items())
        assert np.allclose(PauliSum(terms).to_matrix(), expected, atol=1e-13)

    @pytest.mark.parametrize("representation", ["h1q", "h2q"])
    def test_disjoint_block_sum_spectrum(self, bundle, representation):
        # the sum of one block Hamiltonian on each of two disjoint blocks has
        # every pair sum of block eigenvalues as its spectrum
        h = getattr(bundle, representation)
        w = h.width
        terms = {}
        for block in range(2):
            for s, c in h:
                padded = PauliString("I" * (w * block) + s.letters + "I" * (w * (1 - block)))
                terms[padded] = terms.get(padded, 0.0) + c
        total = PauliSum(terms)
        sub = np.linalg.eigvalsh(h.to_matrix())
        expected = np.sort([a + b for a in sub for b in sub])
        assert np.allclose(np.linalg.eigvalsh(total.to_matrix()), expected, atol=1e-12)

    def test_invalid_letters_rejected(self):
        with pytest.raises(ValueError, match="invalid Pauli letters"):
            PauliString("XQ")

    def test_empty_string_rejected(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            PauliString("")
