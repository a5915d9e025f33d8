import numpy as np
import pytest

from sizecon.config import QUBIT_BUDGET, ExperimentConfig
from sizecon.device import qubit_scores, rank_qubits, synthetic_calibration
from sizecon.sampling import plan_keys, random_plan, selective_plan

from devices import make_device
from oracles import reference_plan, reference_random_plan


def scanned_score(device, qubit):
    """Reference score of one qubit: mean readout error plus the mean error
    of the pairs that hold it, found by a scan over every pair."""
    p10, p01, _ = device.qubits[qubit].tolist()
    pairs = zip(device.pairs.tolist(), device.pair_errors.tolist())
    incident = [p for pair, p in pairs if qubit in pair]
    two_qubit = float(np.mean(incident)) if incident else 0.0
    return 0.5 * (p10 + p01) + two_qubit


def uniform_device(n, readout=0.01, single=0.001):
    return make_device([(readout, readout, single)] * n)


class TestRankQubits:
    def test_uniform_calibration_identity_order(self):
        device = uniform_device(20)
        assert rank_qubits(device) == list(range(20))

    def test_bad_readout_ranked_last(self):
        qubits = [(0.01, 0.01, 0.001)] * 16
        qubits[5] = (0.5, 0.5, 0.001)
        device = make_device(qubits)
        assert rank_qubits(device)[-1] == 5

    def test_matches_pairwise_comparison_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            n = 12
            qubits = [rng.uniform(0, 0.2, size=3) for _ in range(n)]
            pairs = {
                (a, b): float(rng.uniform(0, 0.2))
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.4
            }
            device = make_device(qubits, pairs)
            order = rank_qubits(device)
            scores = [scanned_score(device, q) for q in range(n)]
            # exhaustive pairwise check of the produced order
            for i in range(len(order) - 1):
                a, b = order[i], order[i + 1]
                assert (scores[a], a) <= (scores[b], b)

    def test_equals_per_qubit_scores_on_benchmark_device(self):
        # the one-pass index must give every qubit the same score, bit for
        # bit, as the per-qubit scan, so the ranking cannot move
        device = synthetic_calibration(n_qubits=156, seed=7)
        scanned = [scanned_score(device, q) for q in range(156)]
        assert qubit_scores(device).tolist() == scanned
        assert rank_qubits(device) == [q for _, q in sorted(zip(scanned, range(156)))]

    def test_two_qubit_error_affects_rank(self):
        device = make_device([(0.01, 0.01, 0.0)] * 3, {(0, 1): 0.4})
        order = rank_qubits(device)
        assert order[0] == 2  # only qubit with no noisy neighbor


def flattened(entries):
    """The ``keys`` and ``maps`` rows of ``(set_index, sample_index, blocks)``
    entries: each entry's blocks laid end to end, block 0 first."""
    keys = [[set_index, sample_index] for set_index, sample_index, _ in entries]
    maps = [[q for block in blocks for q in block] for _, _, blocks in entries]
    return keys, maps


def plan_config(width, n, mode="selective", count=1):
    """A config planning ``count`` sets (selective) or samples (random) of
    ``width``-qubit subsystems at N = ``n``."""
    counts = {"k_sets": count} if mode == "selective" else {"s_repetitions": count}
    return ExperimentConfig(
        representation=width, subsystem_counts=(n,), output_dir="run", sampling_mode=mode, **counts
    )


class TestPlanKeys:
    @pytest.mark.parametrize("width", [1, 2, 4])
    @pytest.mark.parametrize(
        "mode, count",
        [("selective", 1), ("selective", 3), ("random", 1), ("random", 17), ("random", 300)],
    )
    def test_equals_reference_plan_keys(self, mode, count, width):
        # the keys the plans once returned next to their maps, for every N
        # a config takes at this width; the maps must still equal the
        # reference's and hold one row per key
        pool = np.random.default_rng(width).permutation(156).tolist()
        for n in range(1, QUBIT_BUDGET // width + 1):
            if mode == "selective" and QUBIT_BUDGET % (n * width):
                continue
            keys = plan_keys(plan_config(width, n, mode, count), n)
            if mode == "selective":
                maps = selective_plan(pool, n, width, k=count)
                expected = reference_plan(np.reshape(pool[:QUBIT_BUDGET], (-1, n * width)), count)
            else:
                maps = random_plan(pool[:QUBIT_BUDGET], n, width, s=count, seed=n)
                reference = reference_random_plan(pool[:QUBIT_BUDGET], n, width, count, n)
                expected = reference_plan(np.array(flattened(reference)[1]))
            assert keys.dtype == np.int64 and keys.shape == (len(maps), 2), (n, keys.shape)
            assert keys.tolist() == expected[0].tolist(), n
            assert maps.tolist() == expected[1].tolist(), n

    def test_selective_sets_of_16_over_n_w_samples(self):
        keys = plan_keys(plan_config(2, 2, "selective", 3), 2)
        assert keys.tolist() == [[s, i] for s in range(3) for i in range(4)]

    def test_random_one_set_of_s_samples(self):
        keys = plan_keys(plan_config(1, 5, "random", 4), 5)
        assert keys.tolist() == [[0, 0], [0, 1], [0, 2], [0, 3]]


class TestSelectivePlan:
    def test_width1_n16_uses_all_qubits(self):
        maps = selective_plan(list(range(20)), 16, 1, k=3)
        assert maps.shape == (3, 16)
        for row in maps.tolist():
            assert sorted(row) == list(range(16))

    def test_width1_n2_paper_counts(self):
        maps = selective_plan(list(range(16)), 2, 1, k=3)
        assert maps.shape == (24, 2)
        # each set is the same 8 samples over the whole pool
        assert (maps.reshape(3, 8, 2) == maps[:8]).all()

    def test_width2_n8_single_sample(self):
        maps = selective_plan(list(range(16)), 8, 2, k=5)
        assert maps.tolist() == [list(range(16))] * 5

    def test_sets_partition_pool_exactly(self):
        pool = list(range(31, -1, -1))  # descending ranked pool
        keys = plan_keys(plan_config(1, 4, "selective", 2), 4)
        maps = selective_plan(pool, 4, 1, k=2)
        top16 = set(pool[:16])
        for set_index in range(2):
            covered = maps[keys[:, 0] == set_index].ravel().tolist()
            assert len(covered) == len(set(covered)) == QUBIT_BUDGET
            assert set(covered) == top16

    def test_sample_count_matches_16_over_n(self):
        for n in (2, 4, 8, 16):
            maps = selective_plan(list(range(16)), n, 1, k=1)
            assert maps.tolist() == np.arange(16).reshape(16 // n, n).tolist()

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            selective_plan(list(range(16)), 3, 1, k=1)
        with pytest.raises(ValueError, match="does not divide"):
            selective_plan(list(range(16)), 3, 4, k=1)

    def test_small_pool_rejected(self):
        with pytest.raises(ValueError, match="smaller than"):
            selective_plan(list(range(8)), 2, 1, k=1)

    def test_no_set_rejected(self):
        with pytest.raises(ValueError, match="at least one set"):
            selective_plan(list(range(16)), 2, 1, k=0)

    def test_blocks_follow_pool_order(self):
        pool = list(range(40, 0, -1))
        keys = plan_keys(plan_config(2, 2, "selective", 2), 2)
        maps = selective_plan(pool, 2, 2, k=2)
        entries = [
            (set_index, i, ((pool[4 * i], pool[4 * i + 1]), (pool[4 * i + 2], pool[4 * i + 3])))
            for set_index in range(2)
            for i in range(4)
        ]
        assert maps.dtype == np.int64
        assert (keys.tolist(), maps.tolist()) == flattened(entries)


class TestRandomPlan:
    def test_fifty_single_qubit_draws(self):
        maps = random_plan(list(range(16)), 1, 1, s=50, seed=7)
        assert maps.shape == (50, 1)
        assert set(maps.ravel().tolist()) <= set(range(16))

    def test_blocks_disjoint(self):
        maps = random_plan(list(range(16)), 4, 2, s=20, seed=8)
        assert maps.shape == (20, 8)
        for row in maps.tolist():
            assert len(set(row)) == 8

    def test_exact_pool_is_permutation(self):
        maps = random_plan(list(range(8)), 4, 2, s=10, seed=9)
        for row in maps.tolist():
            assert sorted(row) == list(range(8))

    def test_deterministic_given_seed(self):
        a = random_plan(list(range(16)), 2, 1, s=5, seed=10)
        b = random_plan(list(range(16)), 2, 1, s=5, seed=10)
        assert a.tolist() == b.tolist()

    def test_uniform_selection_frequency(self):
        pool = list(range(10))
        draws = 10_000
        maps = random_plan(pool, 2, 1, s=draws, seed=11)
        counts = np.bincount(maps.ravel(), minlength=10)
        expected = draws * 2 / 10
        sigma = np.sqrt(draws * (2 / 10) * (1 - 2 / 10))
        assert np.all(np.abs(counts - expected) < 4 * sigma)

    def test_pool_too_small(self):
        with pytest.raises(ValueError, match="cannot host"):
            random_plan(list(range(3)), 2, 2, s=1, seed=0)

    def test_no_repetition_rejected(self):
        with pytest.raises(ValueError, match="at least one repetition"):
            random_plan(list(range(16)), 2, 1, s=0, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
    @pytest.mark.parametrize(
        "pool_size, n, width, s",
        [(16, 1, 1, 1), (16, 6, 1, 300), (16, 3, 2, 17), (16, 4, 4, 5),
         (8, 4, 2, 9), (16, 16, 1, 4), (156, 5, 4, 30), (5, 2, 2, 40)],
    )
    def test_equals_per_sample_reference(self, seed, pool_size, n, width, s):
        # the plan stream fixes which qubits every work item runs on, so the
        # plan must equal the one-choice-per-sample construction, sample for
        # sample; the pools are permuted so a pool lookup cannot be skipped,
        # and some are filled exactly (N * width == len(pool))
        pool = np.random.default_rng(pool_size).permutation(200)[:pool_size].tolist()
        maps = random_plan(pool, n, width, s=s, seed=seed)
        keys, expected = flattened(reference_random_plan(pool, n, width, s, seed))
        assert maps.dtype == np.int64
        assert maps.tolist() == expected
        # one set of s samples, as plan_keys numbers them
        assert keys == [[0, i] for i in range(s)]


class TestSyntheticCalibration:
    def test_deterministic_and_in_range(self):
        a = synthetic_calibration(n_qubits=24, seed=3)
        b = synthetic_calibration(n_qubits=24, seed=3)
        for name in ("qubits", "pairs", "pair_errors"):
            assert getattr(a, name).tolist() == getattr(b, name).tolist()
        # every rate of every qubit: readout_p10, readout_p01, single_qubit_error
        assert np.all((0 < a.qubits) & (a.qubits <= 0.5))

    def test_all_pairs_present(self):
        device = synthetic_calibration(n_qubits=10, seed=4)
        assert len(device.pairs) == 45

    def test_medians_roughly_respected(self):
        device = synthetic_calibration(n_qubits=156, seed=5)
        readout = device.qubits[:, 0]
        # log-normal median should land near the configured one
        assert 0.005 < np.median(readout) < 0.02

    def test_heterogeneous(self):
        device = synthetic_calibration(n_qubits=16, seed=6)
        readout = set(device.qubits[:, 0].tolist())
        assert len(readout) == 16
