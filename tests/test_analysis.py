import math
from decimal import Decimal

import numpy as np
import pytest

from sizecon.analysis import (
    Horizon,
    SubsystemLevels,
    cisd_reference,
    error_stats,
    horizon,
    mean_sd,
    wls_fit,
)
from sizecon.hamiltonians import build_hamiltonians
from sizecon.hamiltonians import h1q_parameters
from sizecon.stateprep import fci_ground
from sizecon.units import HARTREE_TO_KCAL_PER_MOL

from oracles import cisd_decimal, cisd_eigensolve, wls_normal_equations


class TestWlsFit:
    def test_two_points_interpolate(self):
        fit = wls_fit([(0.0, 1.0, 0.5), (2.0, 5.0, 0.1)])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.slope_stderr == 0.0

    def test_equal_weights_reduce_to_ols(self):
        rng = np.random.default_rng(1)
        x = np.arange(8.0)
        y = 3.0 * x - 2.0 + rng.normal(size=8)
        fit = wls_fit([(xi, yi, 1.7) for xi, yi in zip(x, y)])
        slope_ols, intercept_ols = np.polyfit(x, y, 1)
        assert fit.slope == pytest.approx(slope_ols, abs=1e-10)
        assert fit.intercept == pytest.approx(intercept_ols, abs=1e-10)

    def test_random_instances_match_normal_equation_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(3, 12))
            x = rng.uniform(-5, 5, size=n)
            x[1] = x[0] + 1.0  # guarantee spread
            y = rng.uniform(-10, 10, size=n)
            s = rng.uniform(0.05, 3.0, size=n)
            points = list(zip(x, y, s))
            fit = wls_fit(points)
            intercept, slope, stderr = wls_normal_equations(points)
            assert fit.slope == pytest.approx(slope, abs=1e-10)
            assert fit.intercept == pytest.approx(intercept, abs=1e-10)
            assert fit.slope_stderr == pytest.approx(stderr, abs=1e-10)

    def test_intercept_absorbs_constant_shift(self):
        points = [(1.0, 2.0, 0.3), (2.0, 2.5, 0.8), (4.0, 3.1, 0.2)]
        shifted = [(x, y + 10.0, s) for x, y, s in points]
        assert wls_fit(shifted).slope == pytest.approx(wls_fit(points).slope, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            wls_fit([(0.0, 1.0, 0.1)])
        with pytest.raises(ValueError, match="identical"):
            wls_fit([(1.0, 1.0, 0.1), (1.0, 2.0, 0.1)])
        with pytest.raises(ValueError, match="positive stddev"):
            wls_fit([(0.0, 1.0, 0.0), (1.0, 2.0, 0.1)])


class TestHorizon:
    def test_single_qubit_row(self):
        h = horizon(8.474e-3, 1)
        assert (h.n_qubit, h.n_h2) == (118, 118)

    def test_two_qubit_row(self):
        h = horizon(-7.000e-3, 2)
        assert (h.n_qubit, h.n_h2) == (142, 71)

    def test_four_qubit_row(self):
        h = horizon(1.221e-1, 4)
        assert (h.n_qubit, h.n_h2) == (8, 2)

    def test_sign_antisymmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = float(rng.uniform(1e-4, 1.0))
            w = int(rng.choice([1, 2, 4]))
            assert horizon(d, w) == horizon(-d, w)

    def test_zero_slope_is_unbounded(self):
        h = horizon(0.0, 2)
        assert h.unbounded

    # the least slope whose 1 / |delta| is a float
    LEAST_FINITE = 5.56268464626801e-309

    @pytest.mark.parametrize("delta", [5e-324, -5e-324, 3.103e-321, math.nextafter(LEAST_FINITE, 0)])
    def test_slope_whose_horizon_overflows_is_unbounded(self, delta):
        # 1 / |delta| is past the float range, as a forged samples.csv's fit
        # of subnormal energies gives
        assert horizon(delta, 1) == Horizon(n_qubit=0, n_h2=0, unbounded=True)

    @pytest.mark.parametrize("delta", [LEAST_FINITE, -LEAST_FINITE, 1e-300])
    def test_least_slope_with_a_finite_horizon(self, delta):
        assert math.isfinite(1 / delta)
        h = horizon(delta, 4)
        assert h == Horizon(n_qubit=math.floor(1 / abs(delta)), n_h2=math.floor(1 / abs(delta)) // 4)
        assert not h.unbounded

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            horizon(float("nan"), 1)


# bond lengths 0.05 to 5.7 angstrom, and system sizes up to REFERENCE_N_MAX
GRID_BONDS = [round(0.05 * k, 2) for k in range(1, 115)]
GRID_NS = (1, 2, 3, 7, 16, 64, 118, 256)


@pytest.fixture(scope="module")
def grid_levels():
    return [build_hamiltonians(bond).levels for bond in GRID_BONDS]


class TestCisdReference:
    @pytest.fixture
    def levels(self, bundle):
        return bundle.levels

    def test_n1_equals_fci(self, levels, bundle):
        ref = cisd_reference(levels, 1)
        exact = fci_ground(bundle.h1q)
        assert ref.energy == pytest.approx(exact.energy, abs=1e-10)
        assert ref.double_population_per_h2 == pytest.approx(
            levels.fci_double_population, abs=1e-10
        )

    def test_correlation_per_h2_vanishes(self, levels):
        magnitudes = [
            abs(cisd_reference(levels, n).correlation_per_h2) for n in range(1, 17)
        ]
        assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))

    def test_double_population_strictly_decreasing(self, levels):
        pops = [
            cisd_reference(levels, n).double_population_per_h2 for n in range(1, 17)
        ]
        assert all(a > b for a, b in zip(pops, pops[1:]))
        # while the exact population is N-independent
        assert levels.fci_double_population == pytest.approx(
            levels.fci_double_population, abs=0
        )

    def test_variational_sandwich(self, levels):
        for n in range(1, 17):
            energy = cisd_reference(levels, n).energy
            assert n * levels.fci_energy - 1e-12 <= energy <= n * levels.e_hf + 1e-12

    def test_matches_dense_eigensolve_oracle(self, levels):
        for n in (2, 5, 9):
            ref = cisd_reference(levels, n)
            assert ref.energy == pytest.approx(cisd_eigensolve(levels, n)[0], abs=1e-12)

    def test_reduction_to_the_symmetric_doubles_holds_over_the_bond_grid(self, grid_levels):
        # the (N+1)-dimensional matrix, diagonalized as it stands, has the
        # ground state of the 2x2 problem on the symmetric sum of the doubles
        for levels in grid_levels:
            for n in GRID_NS:
                ref = cisd_reference(levels, n)
                energy, double = cisd_eigensolve(levels, n)
                assert ref.energy == pytest.approx(energy, rel=1e-12, abs=0)
                assert ref.double_population_per_h2 == pytest.approx(double, rel=1e-12, abs=0)

    def test_closed_form_matches_decimal_oracle(self, grid_levels):
        worst = [0.0, 0.0, 0.0]
        for levels in grid_levels:
            for n in GRID_NS:
                ref = cisd_reference(levels, n)
                found = (ref.energy, ref.double_population_per_h2, ref.correlation_per_h2)
                for i, (value, exact) in enumerate(zip(found, cisd_decimal(levels, n))):
                    worst[i] = max(worst[i], float(abs((Decimal(value) - exact) / exact)))
        energy, double, correlation = worst
        assert energy <= 1e-15 and double <= 1e-13 and correlation <= 1e-12, worst

    def test_n1_is_fci_exactly(self, grid_levels):
        for levels in grid_levels:
            ref = cisd_reference(levels, 1)
            assert (ref.energy, ref.double_population_per_h2) == (
                levels.fci_energy, levels.fci_double_population
            )

    def test_fci_energy_is_the_direct_two_level_expression_bit_for_bit(self, grid_levels):
        # fig3 and the manifest's e_fci_sub depend on its last bits
        for levels in grid_levels:
            mean = 0.5 * (levels.e_hf + levels.e_double)
            gap = 0.5 * (levels.e_hf - levels.e_double)
            assert levels.fci_energy == mean - math.hypot(gap, levels.coupling)

    @pytest.mark.parametrize(
        "e_hf, e_double, weight",
        [(-1.0, -0.5, 0.0), (-0.5, -1.0, 1.0), (-1.0, -1.0, 0.0)],
        ids=["reference-lower", "double-lower", "degenerate"],
    )
    def test_uncoupled_levels_put_all_weight_on_the_lower_state(self, e_hf, e_double, weight):
        levels = SubsystemLevels(e_hf=e_hf, e_double=e_double, coupling=0.0)
        assert (levels.fci_energy, levels.fci_double_population) == (min(e_hf, e_double), weight)
        ref = cisd_reference(levels, 4)
        assert ref.energy == 3 * e_hf + min(e_hf, e_double)
        assert ref.double_population_per_h2 == weight / 4
        assert cisd_eigensolve(levels, 4) == (ref.energy, ref.double_population_per_h2)

    def test_levels_roundtrip_from_h1q(self, bundle):
        g0, g1, g2 = h1q_parameters(bundle.h1q)
        levels = SubsystemLevels.from_single_qubit_terms(g0, g1, g2)
        assert levels == bundle.levels

    def test_fci_energy_closed_form(self, bundle, ci_oracle):
        assert bundle.levels.fci_energy == pytest.approx(ci_oracle.e_fci, abs=1e-10)

    def test_invalid_n(self, levels):
        with pytest.raises(ValueError, match="at least one"):
            cisd_reference(levels, 0)


class TestErrorStats:
    def test_zero_error_for_exact_samples(self, bundle):
        e = bundle.levels.fci_energy
        samples = {1: np.array([e, e]), 2: np.array([e])}
        stats, hf_gap = error_stats(samples, e_fci=e, e_hf=bundle.levels.e_hf)
        mean, sd = stats[1]
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert sd == 0.0
        # one (mean, sd) per N of the input, in ascending N; N=2's lone
        # sample has sd 0
        assert list(stats) == [1, 2]
        assert stats[2][1] == 0.0

    def test_reference_line(self, bundle, ci_oracle):
        _, hf_gap = error_stats(
            {1: [ci_oracle.e_fci]}, e_fci=ci_oracle.e_fci, e_hf=ci_oracle.e_hf
        )
        expected = (ci_oracle.e_hf - ci_oracle.e_fci) * HARTREE_TO_KCAL_PER_MOL
        assert hf_gap == pytest.approx(expected, abs=1e-10)

    def test_mean_and_std(self):
        stats, _ = error_stats({4: np.array([-1.0, -1.002])}, e_fci=-1.001, e_hf=-0.9)
        mean, sd = stats[4]
        assert mean == pytest.approx(0.0, abs=1e-9)
        expected_std = np.std(
            [0.001 * HARTREE_TO_KCAL_PER_MOL, -0.001 * HARTREE_TO_KCAL_PER_MOL], ddof=1
        )
        assert sd == pytest.approx(float(expected_std), abs=1e-9)

    def test_equals_per_sample_errors_bit_for_bit(self):
        # each error is the float arithmetic of one sample alone, and the
        # stats are in ascending N whatever the order given
        energies = {8: np.array([-1.1, -1.2, -1.15]), 2: np.array([-1.13, -1.17])}
        stats, _ = error_stats(energies, e_fci=-1.137, e_hf=-1.11)
        for n, values in energies.items():
            errors = [(e - -1.137) * HARTREE_TO_KCAL_PER_MOL for e in values.tolist()]
            assert stats[n] == mean_sd(errors)
        assert list(stats) == [2, 8]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            error_stats({}, e_fci=0.0, e_hf=0.0)
