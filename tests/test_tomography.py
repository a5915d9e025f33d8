import math

import numpy as np
import pytest

from sizecon.pauli import PauliString, PauliSum, qubitwise_groups
from sizecon.device import DeviceModel
from sizecon.simulator import TrajectoryEngine
from sizecon.stateprep import compose, fci_ground, synthesize
from sizecon.tomography import (
    build_plan,
    estimate_energies,
    extract_populations,
    shot_noise_stderr,
)

from oracles import CLASSIFICATION, reference_basis_change
from tables import block_histogram, block_histograms, joint_counts


def sample_noiseless(h_sub, n, shots, master_seed):
    """Joint counts per plan group for N noiseless replicas of the FCI state."""
    plan = build_plan(h_sub)
    sub = synthesize(fci_ground(h_sub))
    circuit = compose(sub, n)
    device = DeviceModel.noiseless(circuit.width)
    counts = []
    for gi, group in enumerate(plan.groups):
        engine = TrajectoryEngine(circuit, compose(group.basis_change, n))
        pmap = list(range(circuit.width))
        counts.append(engine.sample(device, [pmap], shots, [master_seed + gi], circuit.width)[0, 0])
    return plan, counts


def embedded_member_loop(h_sub, n, counts):
    """Energies and shot-noise errors computed the way the plan did before
    per-block histograms: every subsystem string embedded into an N-block
    string, its register mask applied to each code, one member at a time."""
    width = h_sub.width
    energies = np.full(n, h_sub.constant)
    variances = np.zeros(n)
    for strings, joint in zip(qubitwise_groups(h_sub.sorted_strings()), counts):
        codes = np.flatnonzero(joint)
        shots = int(joint.sum())
        members = [(block, s) for block in range(n) for s in strings]
        registers = [
            "I" * (width * block) + s.letters + "I" * (width * (n - block - 1))
            for block, s in members
        ]
        masks = np.array([
            int("".join("0" if c == "I" else "1" for c in letters), 2) for letters in registers
        ])
        bits = np.bitwise_count(codes[:, None] & masks[None, :]) & 1
        parities = (joint[codes][:, None] * (1.0 - 2.0 * bits)).sum(axis=0) / shots
        for (block, s), parity in zip(members, parities):
            coefficient = h_sub.coefficient(s)
            energies[block] += coefficient * parity
            variances[block] += coefficient**2 * max(0.0, 1.0 - parity**2) / shots
    return energies, np.sqrt(variances)


def gate_bits(circuit):
    """Each gate's kind, targets and angle bits (None for no angle)."""
    return [
        (g.kind, g.targets, None if g.angle is None else np.float64(g.angle).tobytes())
        for g in circuit.gates
    ]


class TestBuildPlan:
    def test_single_qubit_two_groups_any_n(self, bundle):
        plan = build_plan(bundle.h1q)
        assert [g.basis for g in plan.groups] == ["X", "Z"]
        # laid on N blocks, the X group rotates every qubit and the Z group none
        for n in (1, 2, 4, 8, 16):
            x_group, z_group = (compose(g.basis_change, n) for g in plan.groups)
            assert [g.targets for g in x_group.gates] == [(q,) for q in range(n)]
            assert z_group.gates == () and z_group.width == n

    def test_n1_plan_is_subsystem_plan(self, bundle):
        # groups hold subsystem strings and one block's basis change; only
        # compose lays that change on a wider register
        plan = build_plan(bundle.h4)
        width = bundle.h4.width
        for group in plan.groups:
            assert all(s.width == width for s in group.strings)
            assert group.basis_change.width == width
            assert compose(group.basis_change, 3).width == 3 * width

    def test_four_qubit_coverage(self, bundle):
        plan = build_plan(bundle.h4)
        assert len(plan.groups) <= 5
        seen = {}
        for group in plan.groups:
            assert len(group.coefficients) == len(group.strings)
            assert group.signs.shape == (2**bundle.h4.width, len(group.strings))
            for s, coefficient in zip(group.strings, group.coefficients):
                assert coefficient == bundle.h4.coefficient(s)
                seen[s] = seen.get(s, 0) + 1
        assert set(seen) == set(bundle.h4.sorted_strings())
        assert all(count == 1 for count in seen.values())

    def test_group_count_constant_in_n(self, bundle):
        # every group is one distinct measurement setting of the register at
        # every N
        for h_sub, ns in (
            (bundle.h1q, (1, 2, 4, 8, 16)),
            (bundle.h2q, (1, 2, 4, 8)),
            (bundle.h4, (1, 2, 4)),
        ):
            plan = build_plan(h_sub)
            for n in ns:
                settings = {compose(g.basis_change, n).serialize() for g in plan.groups}
                assert len(settings) == len(plan.groups), (h_sub.width, n)

    @pytest.mark.parametrize("representation", [1, 2, 4])
    def test_composed_basis_change_equals_register_reference(self, bundle, representation):
        # compose lays one block's rotations on every block exactly as the
        # register-wide reference writes them, gate for gate, at every N
        # that fits the 16-qubit pool
        plan = build_plan(bundle.subsystem_hamiltonian(representation))
        for n in range(1, 16 // representation + 1):
            for group in plan.groups:
                composed = compose(group.basis_change, n)
                reference = reference_basis_change(group.basis, n)
                assert composed.width == reference.width == n * representation
                assert gate_bits(composed) == gate_bits(reference), (group.basis, n)

    def test_members_qubitwise_consistent_with_basis(self, bundle):
        width = bundle.h4.width
        plan = build_plan(bundle.h4)
        for group in plan.groups:
            for j, s in enumerate(group.strings):
                for pos, letter in enumerate(s.letters):
                    if letter != "I":
                        assert group.basis[pos] == letter
                # the sign column is the string's eigenvalue on each
                # rotated block code, qubit 0 first
                for code in range(2**width):
                    bits = f"{code:0{width}b}"
                    ones = sum(bits[pos] == "1" for pos in s.support)
                    assert group.signs[code, j] == (-1) ** ones

    def test_unsupported_width(self):
        h3 = PauliSum({PauliString("ZZZ"): 1.0})
        with pytest.raises(ValueError, match="unsupported"):
            build_plan(h3)

    def test_basis_change_rotations(self, bundle):
        plan = build_plan(bundle.h2q)
        y_group = next(g for g in plan.groups if "Y" in g.basis)
        # every Y-measured qubit (2 per block) gets RZ then RY, on the block
        assert [(g.kind, g.targets) for g in y_group.basis_change.gates] == [
            ("RZ", (0,)), ("RY", (0,)), ("RZ", (1,)), ("RY", (1,))
        ]
        for gate in y_group.basis_change.gates:
            assert gate.angle == pytest.approx(-math.pi / 2)
        # and on 2 blocks, block by block
        composed = compose(y_group.basis_change, 2)
        assert [g.kind for g in composed.gates] == ["RZ", "RY"] * 4


class TestEstimateEnergies:
    def test_exact_reference_counts(self, bundle, rhf):
        # counts that realize the mean-field expectations exactly: Z block
        # reads the reference word, X parities balance to zero
        plan = build_plan(bundle.h1q)
        shots = 4000
        by_basis = {
            "Z": joint_counts({"00": shots}),
            "X": joint_counts(
                {"00": shots // 4, "01": shots // 4, "10": shots // 4, "11": shots // 4}
            ),
        }
        counts = [by_basis[g.basis] for g in plan.groups]
        energies = estimate_energies(plan, block_histograms(plan, counts))
        assert np.allclose(energies, rhf.e_hf, atol=1e-12)

    def test_noiseless_fci_within_four_stderr(self, bundle, ci_oracle):
        plan, counts = sample_noiseless(bundle.h1q, 4, shots=100_000, master_seed=21)
        histograms = block_histograms(plan, counts)
        energies = estimate_energies(plan, histograms)
        stderr = shot_noise_stderr(plan, histograms)
        assert np.all(np.abs(energies - ci_oracle.e_fci) < 4 * stderr)

    def test_unbiased_across_100_seeds(self, bundle, ci_oracle):
        shots = 2000
        estimates = []
        for seed in range(100):
            plan, counts = sample_noiseless(
                bundle.h1q, 1, shots=shots, master_seed=1000 + 7 * seed
            )
            estimates.append(float(estimate_energies(plan, block_histograms(plan, counts))[0]))
        estimates = np.array(estimates)
        stderr_of_mean = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - ci_oracle.e_fci) < 4 * stderr_of_mean

    def test_noiseless_fci_all_representations(self, bundle, ci_oracle):
        # exercises every basis-rotation path: the 2-qubit operator carries a
        # YY group and the 4-qubit one carries four mixed X/Y groups
        for h_sub in (bundle.h2q, bundle.h4):
            plan, counts = sample_noiseless(h_sub, 2, shots=100_000, master_seed=31)
            histograms = block_histograms(plan, counts)
            energies = estimate_energies(plan, histograms)
            stderr = shot_noise_stderr(plan, histograms)
            assert np.all(np.abs(energies - ci_oracle.e_fci) < 4 * stderr), h_sub.width

    def test_total_is_sum_of_subsystems(self, bundle):
        plan, counts = sample_noiseless(bundle.h2q, 3, shots=20_000, master_seed=22)
        energies = estimate_energies(plan, block_histograms(plan, counts))
        total = energies.sum()
        assert total == pytest.approx(float(np.sum(energies)), abs=0.0)
        assert len(energies) == 3

    def test_block_permutation_permutes_energies(self, bundle):
        plan = build_plan(bundle.h1q)
        shots = 1000
        asym = {
            "Z": joint_counts({"00": 700, "01": 300}),
            "X": joint_counts({"00": 500, "01": 300, "10": 150, "11": 50}),
        }
        counts = [asym[g.basis] for g in plan.groups]
        energies = estimate_energies(plan, block_histograms(plan, counts))

        # codes 01 and 10 trade places when the two one-qubit blocks swap
        permuted = [joint[[0, 2, 1, 3]] for joint in counts]
        flipped = estimate_energies(plan, block_histograms(plan, permuted))
        assert np.allclose(flipped, energies[::-1], atol=1e-14)

    @pytest.mark.parametrize("every_code", [False, True])
    @pytest.mark.parametrize(
        "representation, n", [(1, 1), (1, 3), (1, 8), (2, 1), (2, 2), (2, 5), (4, 1), (4, 2), (4, 3)]
    )
    def test_equals_embedded_member_loop(self, bundle, representation, n, every_code):
        h_sub = bundle.subsystem_hamiltonian(representation)
        plan = build_plan(h_sub)
        width = representation * n
        shots = 100_003
        rng = np.random.default_rng(100 * representation + 10 * n + every_code)
        for _ in range(3):
            counts = []
            for _ in plan.groups:
                if every_code:
                    codes = np.arange(2**width)
                    hits = 1 + rng.multinomial(shots - len(codes), rng.dirichlet(np.ones(len(codes))))
                else:
                    codes = np.unique(rng.integers(0, 2**width, size=60))
                    hits = rng.multinomial(shots, rng.dirichlet(np.ones(len(codes))))
                joint = np.zeros(2**width, dtype=np.int64)
                joint[codes] = hits
                counts.append(joint)
            energies, stderrs = embedded_member_loop(h_sub, n, counts)
            histograms = block_histograms(plan, counts)
            assert estimate_energies(plan, histograms).tolist() == energies.tolist()
            assert shot_noise_stderr(plan, histograms).tolist() == stderrs.tolist()

    def test_stderr_squares_parities_as_libm_pow(self, bundle):
        # each block's Z parity is one whose scalar square (libm pow) rounds
        # apart from numpy's vectorised square p * p, where the platform has
        # such values (about 0.1% of k / shots on x86-64 glibc)
        n, shots = 8, 100_003
        p = (shots - 2 * np.arange(shots // 2)) / shots
        ones = np.flatnonzero(np.array([x**2 for x in p]) != p * p)
        ones = np.concatenate([ones, np.arange(1, n + 1)])[:n]
        shot_codes = sum(
            (np.arange(shots) < m).astype(np.int64) << (n - 1 - b) for b, m in enumerate(ones)
        )
        x_counts = np.zeros(2**n, dtype=np.int64)
        x_counts[[0, -1]] = shots - 1, 1
        by_basis = {"Z": np.bincount(shot_codes, minlength=2**n), "X": x_counts}
        plan = build_plan(bundle.h1q)
        counts = [by_basis[g.basis] for g in plan.groups]
        energies, stderrs = embedded_member_loop(bundle.h1q, n, counts)
        histograms = block_histograms(plan, counts)
        assert estimate_energies(plan, histograms).tolist() == energies.tolist()
        assert shot_noise_stderr(plan, histograms).tolist() == stderrs.tolist()


@pytest.mark.parametrize("reader", [estimate_energies, shot_noise_stderr])
class TestGroupParities:
    """The checks both energy readers share, made once per call."""

    def test_group_count_mismatch(self, bundle, reader):
        plan = build_plan(bundle.h1q)
        with pytest.raises(ValueError, match="expected 2 histograms, got 1"):
            reader(plan, [np.array([[10.0, 0.0]])])

    @pytest.mark.parametrize(
        "shapes",
        [
            [(3, 2, 2), (3, 1, 2)],  # one group's blocks must not broadcast over another's
            [(3, 1, 2), (2, 1, 2)],  # nor one group's items over another's
            [(3, 1, 4), (3, 1, 4)],  # a block holds 2**width codes
            [(2,), (2,)],            # a histogram holds N blocks
        ],
    )
    def test_shape_mismatch(self, bundle, reader, shapes):
        plan = build_plan(bundle.h1q)
        histograms = [np.zeros(shape) for shape in shapes]
        for hist in histograms:
            hist[..., 0] = 10.0
        with pytest.raises(ValueError, match="histogram shapes"):
            reader(plan, histograms)

    def test_unequal_shots_rejected(self, bundle, reader):
        plan = build_plan(bundle.h1q)
        with pytest.raises(ValueError, match=r"unequal shot counts \[10, 20\]"):
            reader(plan, [np.array([[10.0, 0.0]]), np.array([[20.0, 0.0]])])


class TestStackedItems:
    """The readers over an ``(items, N, 2**width)`` stack, as the pipeline
    calls them once per N, equal one call per item."""

    @pytest.mark.parametrize("representation, n", [(1, 1), (1, 6), (2, 3), (4, 1), (4, 2)])
    def test_stack_equals_per_item_calls(self, bundle, representation, n):
        plan = build_plan(bundle.subsystem_hamiltonian(representation))
        rng = np.random.default_rng(10 * representation + n)
        # each item its own shot count: every item divides by its own
        items = 7
        shots = 100_003 + np.arange(items)[:, None]
        stacks = [
            rng.multinomial(shots, rng.dirichlet(np.ones(1 << representation)), size=(items, n))
            for _ in plan.groups
        ]
        energies = estimate_energies(plan, stacks)
        stderrs = shot_noise_stderr(plan, stacks)
        pops = extract_populations(stacks[plan.z_group_index])
        assert energies.shape == stderrs.shape == pops.hf.shape == (items, n)
        for i in range(items):
            one = [stack[i] for stack in stacks]
            assert energies[i].tolist() == estimate_energies(plan, one).tolist()
            assert stderrs[i].tolist() == shot_noise_stderr(plan, one).tolist()
            alone = extract_populations(one[plan.z_group_index])
            for kind in ("hf", "single_excitation", "double_excitation", "number_violating"):
                assert getattr(pops, kind)[i].tolist() == getattr(alone, kind).tolist(), kind


class TestExtractPopulations:
    def test_all_reference_word(self):
        shots = 500
        pops = extract_populations(block_histogram(joint_counts({"11001100": shots}), 4, 2))
        assert np.allclose(pops.hf, 1.0)
        assert np.allclose(pops.single_excitation, 0.0)
        assert np.allclose(pops.double_excitation, 0.0)
        assert np.allclose(pops.number_violating, 0.0)

    def test_four_qubit_classification(self):
        counts = joint_counts(
            {"1100": 4, "0011": 2, "1001": 1, "0101": 1, "1110": 1, "0000": 1}
        )
        pops = extract_populations(block_histogram(counts, 4, 1))
        assert pops.hf[0] == pytest.approx(0.4)
        assert pops.double_excitation[0] == pytest.approx(0.2)
        assert pops.single_excitation[0] == pytest.approx(0.2)
        assert pops.number_violating[0] == pytest.approx(0.2)

    def test_two_qubit_code_words(self):
        counts = joint_counts({"00": 5, "01": 2, "10": 2, "11": 1})
        pops = extract_populations(block_histogram(counts, 2, 1))
        assert pops.hf[0] == pytest.approx(0.5)
        assert pops.single_excitation[0] == pytest.approx(0.4)
        assert pops.double_excitation[0] == pytest.approx(0.1)
        assert pops.number_violating[0] == 0.0

    def test_single_qubit_never_reports_singles(self, bundle):
        # even with heavy readout noise the 1-qubit encoding cannot produce one
        counts = joint_counts({"0": 55, "1": 45})
        pops = extract_populations(block_histogram(counts, 1, 1))
        assert pops.single_excitation[0] == 0.0
        assert pops.number_violating[0] == 0.0

    def test_noiseless_double_population_matches_oracle(self, bundle, ci_oracle):
        shots = 100_000
        plan, counts = sample_noiseless(bundle.h1q, 2, shots=shots, master_seed=23)
        pops = extract_populations(block_histograms(plan, counts)[plan.z_group_index])
        expected = ci_oracle.fci_double_population
        sigma = math.sqrt(expected * (1 - expected) / shots)
        assert np.all(np.abs(pops.double_excitation - expected) < 4 * sigma)

    def test_two_qubit_code_words_reproduce_oracle_population(self, bundle, ci_oracle):
        shots = 100_000
        plan, counts = sample_noiseless(bundle.h2q, 2, shots=shots, master_seed=29)
        pops = extract_populations(block_histograms(plan, counts)[plan.z_group_index])
        expected = ci_oracle.fci_double_population
        sigma = math.sqrt(expected * (1 - expected) / shots)
        assert np.all(np.abs(pops.double_excitation - expected) < 4 * sigma)
        assert np.all(pops.single_excitation == 0.0)  # exact state has no singles
        assert np.all(pops.number_violating == 0.0)

    def test_probabilities_sum_to_one(self, bundle):
        plan, counts = sample_noiseless(bundle.h4, 2, shots=5000, master_seed=24)
        pops = extract_populations(block_histograms(plan, counts)[plan.z_group_index])
        totals = (
            pops.hf + pops.single_excitation + pops.double_excitation + pops.number_violating
        )
        assert np.allclose(totals, 1.0, atol=1e-12)

    @pytest.mark.parametrize("representation, n", [(1, 1), (1, 5), (2, 3), (4, 1), (4, 3)])
    def test_matches_per_code_loop(self, representation, n):
        # reference: the per-code mask loop the bincount replaced; the same
        # integer totals are added in the same order, so results are equal
        rng = np.random.default_rng(representation * 10 + n)
        width = representation * n
        codes = np.unique(rng.integers(0, 2**width, size=40))
        counts = rng.integers(1, 50, size=len(codes))
        joint = np.zeros(2**width, dtype=np.int64)
        joint[codes] = counts
        pops = extract_populations(block_histogram(joint, representation, n))
        kinds = {"hf": pops.hf, "single": pops.single_excitation,
                 "double": pops.double_excitation, "number_violating": pops.number_violating}
        expected = {kind: np.zeros(n) for kind in kinds}
        classes = CLASSIFICATION[representation]
        for block in range(n):
            block_codes = (codes >> (n - 1 - block) * representation) & (2**representation - 1)
            for code in np.unique(block_codes):
                kind = classes.get(int(code), "number_violating")
                expected[kind][block] += counts[block_codes == code].sum() / joint.sum()
        for kind, values in kinds.items():
            assert values.tolist() == expected[kind].tolist(), kind

    @pytest.mark.parametrize("codes", [8, 3])
    def test_unsupported_width_rejected(self, codes):
        # N and the representation come from the shape: 8 codes per block
        # would be a 3-qubit subsystem, which no representation has
        histogram = np.zeros((2, codes))
        histogram[:, 0] = 10.0
        with pytest.raises(ValueError, match=f"unsupported representation: {codes} codes"):
            extract_populations(histogram)
