import math

import numpy as np
import pytest

from sizecon.pauli import PauliString, PauliSum
from sizecon.simulator import CountsTable, DeviceModel, TrajectoryEngine
from sizecon.stateprep import compose, fci_ground, synthesize
from sizecon.tomography import (
    _CLASSIFICATION,
    build_plan,
    estimate_energies,
    extract_populations,
    shot_noise_stderr,
)

from tables import counts_table


def sample_noiseless(h_sub, n, shots, master_seed):
    """Counts per plan group for N noiseless replicas of the FCI state."""
    plan = build_plan(h_sub, n)
    sub = synthesize(fci_ground(h_sub))
    width = h_sub.width
    circuit = compose(sub, n, [list(range(b * width, (b + 1) * width)) for b in range(n)])
    device = DeviceModel.noiseless(circuit.width)
    counts = []
    for gi, group in enumerate(plan.groups):
        engine = TrajectoryEngine(circuit, group.basis_change)
        counts.append(
            engine.sample(device, list(range(circuit.width)), shots, master_seed + gi, group.basis)
        )
    return plan, counts


class TestBuildPlan:
    def test_single_qubit_two_groups_any_n(self, bundle):
        for n in (1, 2, 4, 8, 16):
            plan = build_plan(bundle.h1q, n)
            assert len(plan.groups) == 2
            assert {g.basis for g in plan.groups} == {"X", "Z"}

    def test_n1_plan_is_subsystem_plan(self, bundle):
        plan = build_plan(bundle.h4, 1)
        for group in plan.groups:
            for member in group.members:
                assert member.subsystem == 0
                assert member.full_string == member.sub_string

    def test_four_qubit_coverage(self, bundle):
        n = 2
        plan = build_plan(bundle.h4, n)
        assert len(plan.groups) <= 5
        seen = {}
        for group in plan.groups:
            for member in group.members:
                key = (member.subsystem, member.sub_string)
                seen[key] = seen.get(key, 0) + 1
        strings = bundle.h4.sorted_strings()
        assert set(seen) == {(b, s) for b in range(n) for s in strings}
        assert all(count == 1 for count in seen.values())

    def test_group_count_constant_in_n(self, bundle):
        for h_sub, ns in (
            (bundle.h1q, (1, 2, 4, 8, 16)),
            (bundle.h2q, (1, 2, 4, 8)),
            (bundle.h4, (1, 2, 4)),
        ):
            sizes = {len(build_plan(h_sub, n).groups) for n in ns}
            assert len(sizes) == 1

    def test_members_qubitwise_consistent_with_basis(self, bundle):
        plan = build_plan(bundle.h4, 2)
        for group in plan.groups:
            for member in group.members:
                block = member.subsystem
                for pos, letter in enumerate(member.sub_string.letters):
                    if letter != "I":
                        assert group.basis[pos] == letter
                    offset = block * plan.representation + pos
                    assert member.full_string.letters[offset] == letter

    def test_unsupported_width(self):
        h3 = PauliSum({PauliString("ZZZ"): 1.0})
        with pytest.raises(ValueError, match="unsupported"):
            build_plan(h3, 2)

    def test_basis_change_rotations(self, bundle):
        plan = build_plan(bundle.h2q, 2)
        y_group = next(g for g in plan.groups if "Y" in g.basis)
        kinds = [g.kind for g in y_group.basis_change.gates]
        # every Y-measured qubit (2 per block, 2 blocks) gets RZ then RY
        assert kinds == ["RZ", "RY"] * 4
        for gate in y_group.basis_change.gates:
            assert gate.angle == pytest.approx(-math.pi / 2)


class TestEstimateEnergies:
    def test_exact_reference_counts(self, bundle, rhf):
        # counts that realize the mean-field expectations exactly: Z block
        # reads the reference word, X parities balance to zero
        plan = build_plan(bundle.h1q, 2)
        shots = 4000
        by_basis = {
            "Z": counts_table(shots, {"00": shots}, "Z"),
            "X": counts_table(
                shots,
                {"00": shots // 4, "01": shots // 4, "10": shots // 4, "11": shots // 4},
                "X",
            ),
        }
        counts = [by_basis[g.basis] for g in plan.groups]
        energies = estimate_energies(plan, counts)
        assert np.allclose(energies, rhf.e_hf, atol=1e-12)

    def test_noiseless_fci_within_four_stderr(self, bundle, ci_oracle):
        plan, counts = sample_noiseless(bundle.h1q, 4, shots=100_000, master_seed=21)
        energies = estimate_energies(plan, counts)
        stderr = shot_noise_stderr(plan, counts)
        assert np.all(np.abs(energies - ci_oracle.e_fci) < 4 * stderr)

    def test_unbiased_across_100_seeds(self, bundle, ci_oracle):
        shots = 2000
        estimates = []
        for seed in range(100):
            plan, counts = sample_noiseless(
                bundle.h1q, 1, shots=shots, master_seed=1000 + 7 * seed
            )
            estimates.append(float(estimate_energies(plan, counts)[0]))
        estimates = np.array(estimates)
        stderr_of_mean = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - ci_oracle.e_fci) < 4 * stderr_of_mean

    def test_noiseless_fci_all_representations(self, bundle, ci_oracle):
        # exercises every basis-rotation path: the 2-qubit operator carries a
        # YY group and the 4-qubit one carries four mixed X/Y groups
        for h_sub in (bundle.h2q, bundle.h4):
            plan, counts = sample_noiseless(h_sub, 2, shots=100_000, master_seed=31)
            energies = estimate_energies(plan, counts)
            stderr = shot_noise_stderr(plan, counts)
            assert np.all(np.abs(energies - ci_oracle.e_fci) < 4 * stderr), h_sub.width

    def test_total_is_sum_of_subsystems(self, bundle):
        plan, counts = sample_noiseless(bundle.h2q, 3, shots=20_000, master_seed=22)
        energies = estimate_energies(plan, counts)
        total = energies.sum()
        assert total == pytest.approx(float(np.sum(energies)), abs=0.0)
        assert len(energies) == 3

    def test_block_permutation_permutes_energies(self, bundle):
        plan = build_plan(bundle.h1q, 2)
        shots = 1000
        asym = {
            "Z": counts_table(shots, {"00": 700, "01": 300}, "Z"),
            "X": counts_table(shots, {"00": 500, "01": 300, "10": 150, "11": 50}, "X"),
        }
        counts = [asym[g.basis] for g in plan.groups]
        energies = estimate_energies(plan, counts)

        def swap_blocks(table):
            swapped = ((table.codes & 1) << 1) | (table.codes >> 1)
            order = np.argsort(swapped)
            return CountsTable(
                table.shots, 2, swapped[order], table.counts[order], table.measured_basis
            )

        permuted = [swap_blocks(t) for t in counts]
        flipped = estimate_energies(plan, permuted)
        assert np.allclose(flipped, energies[::-1], atol=1e-14)

    def test_group_count_mismatch(self, bundle):
        plan = build_plan(bundle.h1q, 1)
        with pytest.raises(ValueError, match="counts tables"):
            estimate_energies(plan, [counts_table(10, {"0": 10})])

    def test_width_mismatch(self, bundle):
        plan = build_plan(bundle.h1q, 2)
        bad = [counts_table(10, {"0": 10}), counts_table(10, {"0": 10})]
        with pytest.raises(ValueError, match="width"):
            estimate_energies(plan, bad)

    def test_unequal_shots_rejected(self, bundle):
        plan = build_plan(bundle.h1q, 1)
        with pytest.raises(ValueError, match="unequal shot"):
            estimate_energies(
                plan, [counts_table(10, {"0": 10}), counts_table(20, {"0": 20})]
            )


class TestExtractPopulations:
    def test_all_reference_word(self):
        shots = 500
        counts = counts_table(shots, {"11001100": shots}, "ZZZZZZZZ")
        pops = extract_populations(counts, 4, 2)
        assert np.allclose(pops.hf, 1.0)
        assert np.allclose(pops.single_excitation, 0.0)
        assert np.allclose(pops.double_excitation, 0.0)
        assert np.allclose(pops.number_violating, 0.0)

    def test_four_qubit_classification(self):
        counts = counts_table(
            10,
            {"1100": 4, "0011": 2, "1001": 1, "0101": 1, "1110": 1, "0000": 1},
            "ZZZZ",
        )
        pops = extract_populations(counts, 4, 1)
        assert pops.hf[0] == pytest.approx(0.4)
        assert pops.double_excitation[0] == pytest.approx(0.2)
        assert pops.single_excitation[0] == pytest.approx(0.2)
        assert pops.number_violating[0] == pytest.approx(0.2)

    def test_two_qubit_code_words(self):
        counts = counts_table(10, {"00": 5, "01": 2, "10": 2, "11": 1}, "ZZ")
        pops = extract_populations(counts, 2, 1)
        assert pops.hf[0] == pytest.approx(0.5)
        assert pops.single_excitation[0] == pytest.approx(0.4)
        assert pops.double_excitation[0] == pytest.approx(0.1)
        assert pops.number_violating[0] == 0.0

    def test_single_qubit_never_reports_singles(self, bundle):
        # even with heavy readout noise the 1-qubit encoding cannot produce one
        counts = counts_table(100, {"0": 55, "1": 45}, "Z")
        pops = extract_populations(counts, 1, 1)
        assert pops.single_excitation[0] == 0.0
        assert pops.number_violating[0] == 0.0

    def test_noiseless_double_population_matches_oracle(self, bundle, ci_oracle):
        shots = 100_000
        plan, counts = sample_noiseless(bundle.h1q, 2, shots=shots, master_seed=23)
        z_counts = counts[plan.z_group_index]
        pops = extract_populations(z_counts, 1, 2)
        expected = ci_oracle.fci_double_population
        sigma = math.sqrt(expected * (1 - expected) / shots)
        assert np.all(np.abs(pops.double_excitation - expected) < 4 * sigma)

    def test_two_qubit_code_words_reproduce_oracle_population(self, bundle, ci_oracle):
        shots = 100_000
        plan, counts = sample_noiseless(bundle.h2q, 2, shots=shots, master_seed=29)
        pops = extract_populations(counts[plan.z_group_index], 2, 2)
        expected = ci_oracle.fci_double_population
        sigma = math.sqrt(expected * (1 - expected) / shots)
        assert np.all(np.abs(pops.double_excitation - expected) < 4 * sigma)
        assert np.all(pops.single_excitation == 0.0)  # exact state has no singles
        assert np.all(pops.number_violating == 0.0)

    def test_probabilities_sum_to_one(self, bundle):
        plan, counts = sample_noiseless(bundle.h4, 2, shots=5000, master_seed=24)
        pops = extract_populations(counts[plan.z_group_index], 4, 2)
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
        table = CountsTable(int(counts.sum()), width, codes, counts)
        pops = extract_populations(table, representation, n)
        kinds = {"hf": pops.hf, "single": pops.single_excitation,
                 "double": pops.double_excitation, "number_violating": pops.number_violating}
        expected = {kind: np.zeros(n) for kind in kinds}
        classes = _CLASSIFICATION[representation]
        for block in range(n):
            block_codes = (codes >> (n - 1 - block) * representation) & (2**representation - 1)
            for code in np.unique(block_codes):
                kind = classes.get(int(code), "number_violating")
                expected[kind][block] += counts[block_codes == code].sum() / table.shots
        for kind, values in kinds.items():
            assert values.tolist() == expected[kind].tolist(), kind

    def test_width_mismatch(self):
        counts = counts_table(10, {"00": 10}, "ZZ")
        with pytest.raises(ValueError, match="counts width"):
            extract_populations(counts, 4, 1)
