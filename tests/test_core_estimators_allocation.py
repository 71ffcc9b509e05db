"""Tests for repro.core.estimators and repro.core.allocation."""

import warnings

import numpy as np
import pytest

from repro.core.allocation import (
    allocation_from_estimates,
    expected_speedup,
    optimal_allocation,
    optimal_stratified_mse,
    uniform_sampling_mse,
)
from repro.core.estimators import (
    combine_estimates,
    combined_estimate_from_samples,
    estimate_all_strata,
    estimate_mse_plugin,
    estimate_stratum,
)
from repro.core.types import StratumSample


def make_sample(stratum, matches, values):
    matches = np.asarray(matches, dtype=bool)
    values = np.asarray(values, dtype=float)
    full_values = np.where(matches, values, np.nan)
    return StratumSample(
        stratum=stratum,
        indices=np.arange(len(matches)),
        matches=matches,
        values=full_values,
    )


class TestEstimateStratum:
    def test_p_hat(self):
        sample = make_sample(0, [True, False, True, False], [2.0, 0, 4.0, 0])
        est = estimate_stratum(sample)
        assert est.p_hat == pytest.approx(0.5)
        assert est.num_draws == 4
        assert est.num_positive == 2

    def test_mu_and_sigma(self):
        sample = make_sample(0, [True, True, True], [1.0, 2.0, 3.0])
        est = estimate_stratum(sample)
        assert est.mu_hat == pytest.approx(2.0)
        assert est.sigma_hat == pytest.approx(1.0)

    def test_empty_sample_defaults(self):
        est = estimate_stratum(StratumSample(stratum=2))
        assert est.p_hat == 0.0
        assert est.mu_hat == 0.0
        assert est.sigma_hat == 0.0

    def test_no_positives(self):
        sample = make_sample(0, [False, False], [0, 0])
        est = estimate_stratum(sample)
        assert est.p_hat == 0.0
        assert est.mu_hat == 0.0

    def test_single_positive_sigma_zero(self):
        sample = make_sample(0, [True, False], [5.0, 0])
        est = estimate_stratum(sample)
        assert est.sigma_hat == 0.0
        assert est.mu_hat == 5.0


class TestCombineEstimates:
    def test_weighted_by_p_hat(self):
        samples = [
            make_sample(0, [True, True], [1.0, 1.0]),     # p=1, mu=1
            make_sample(1, [True, False], [3.0, 0.0]),     # p=0.5, mu=3
        ]
        estimates = estimate_all_strata(samples)
        combined = combine_estimates(estimates)
        expected = (1.0 * 1.0 + 0.5 * 3.0) / 1.5
        assert combined == pytest.approx(expected)

    def test_all_empty_returns_zero(self):
        estimates = estimate_all_strata([StratumSample(stratum=0), StratumSample(stratum=1)])
        assert combine_estimates(estimates) == 0.0

    def test_combined_from_samples_matches(self):
        samples = [
            make_sample(0, [True, False], [2.0, 0.0]),
            make_sample(1, [True, True], [4.0, 6.0]),
        ]
        direct = combine_estimates(estimate_all_strata(samples))
        assert combined_estimate_from_samples(samples) == pytest.approx(direct)

    def test_combined_with_weights(self):
        samples = [
            make_sample(0, [True], [2.0]),
            make_sample(1, [True], [4.0]),
        ]
        # Doubling stratum 1's weight pulls the estimate toward 4.
        weighted = combined_estimate_from_samples(samples, stratum_weights=[1.0, 2.0])
        assert weighted == pytest.approx((2.0 + 2 * 4.0) / 3.0)

    def test_combined_weight_shape_mismatch(self):
        with pytest.raises(ValueError):
            combined_estimate_from_samples(
                [make_sample(0, [True], [1.0])], stratum_weights=[1.0, 2.0]
            )


class TestEstimateMsePlugin:
    def test_decreases_with_draws(self):
        samples = [make_sample(0, [True, True, False, True], [1.0, 3.0, 0.0, 5.0])]
        estimates = estimate_all_strata(samples)
        small = estimate_mse_plugin(estimates, [10])
        large = estimate_mse_plugin(estimates, [1000])
        assert large < small

    def test_no_positives_infinite(self):
        estimates = estimate_all_strata([make_sample(0, [False, False], [0, 0])])
        assert estimate_mse_plugin(estimates, [2]) == float("inf")

    def test_shape_mismatch_raises(self):
        estimates = estimate_all_strata([make_sample(0, [True], [1.0])])
        with pytest.raises(ValueError):
            estimate_mse_plugin(estimates, [1, 2])


class TestOptimalAllocation:
    def test_proposition1_formula(self):
        p = np.array([0.1, 0.4, 0.9])
        sigma = np.array([1.0, 2.0, 0.5])
        allocation = optimal_allocation(p, sigma)
        expected = np.sqrt(p) * sigma
        expected /= expected.sum()
        assert np.allclose(allocation, expected)

    def test_sums_to_one(self):
        allocation = optimal_allocation([0.2, 0.3], [1.0, 2.0])
        assert allocation.sum() == pytest.approx(1.0)

    def test_zero_signal_falls_back_to_uniform(self):
        allocation = optimal_allocation([0.0, 0.0], [0.0, 0.0])
        assert np.allclose(allocation, [0.5, 0.5])

    def test_zero_variance_stratum_gets_nothing(self):
        allocation = optimal_allocation([0.5, 0.5], [0.0, 1.0])
        assert allocation[0] == 0.0
        assert allocation[1] == pytest.approx(1.0)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            optimal_allocation([1.2], [1.0])
        with pytest.raises(ValueError):
            optimal_allocation([0.5], [-1.0])
        with pytest.raises(ValueError):
            optimal_allocation([0.5, 0.5], [1.0])

    def test_allocation_from_estimates(self):
        samples = [
            make_sample(0, [True, True], [1.0, 3.0]),
            make_sample(1, [False, False], [0, 0]),
        ]
        estimates = estimate_all_strata(samples)
        allocation = allocation_from_estimates(estimates)
        assert allocation[0] == pytest.approx(1.0)
        assert allocation[1] == 0.0


class TestMseFormulas:
    def test_proposition2_formula(self):
        p = np.array([0.2, 0.5])
        sigma = np.array([1.0, 2.0])
        budget = 100
        expected = (np.sqrt(p) * sigma).sum() ** 2 / (budget * p.sum() ** 2)
        assert optimal_stratified_mse(p, sigma, budget) == pytest.approx(expected)

    def test_mse_scales_inversely_with_budget(self):
        p, sigma = [0.3, 0.6], [1.0, 1.0]
        assert optimal_stratified_mse(p, sigma, 200) == pytest.approx(
            optimal_stratified_mse(p, sigma, 100) / 2
        )

    def test_zero_positive_rate_infinite(self):
        assert optimal_stratified_mse([0.0, 0.0], [1.0, 1.0], 10) == float("inf")
        assert uniform_sampling_mse([0.0, 0.0], [1.0, 1.0], 10) == float("inf")

    @pytest.mark.parametrize(
        "p, sigma, budget",
        [
            ([0.5, 0.5], [1e200, 1.0], 10),  # sigma squared overflows
            ([1e-150, 0.0], [1e100, 1.0], 10),  # the final division overflows
        ],
    )
    def test_overflow_returns_inf_without_warning(self, p, sigma, budget):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert uniform_sampling_mse(p, sigma, budget) == float("inf")
            assert uniform_sampling_mse(
                p, sigma, budget, mu=[0.0, 1.0]
            ) == float("inf")
            assert optimal_stratified_mse(p, sigma, budget) == float("inf")

    def test_finite_results_unchanged_by_overflow_guard(self):
        # Exact closed forms: (sqrt(.25) * 2 + sqrt(.25) * 4)^2 / (10 * .5^2)
        # and the p-weighted variance (4 + 16) / 2 over 10 * p_avg.
        assert optimal_stratified_mse([0.25, 0.25], [2.0, 4.0], 10) == 3.6
        assert uniform_sampling_mse([0.25, 0.25], [2.0, 4.0], 10) == 4.0

    def test_invalid_budget_raises(self):
        with pytest.raises(ValueError):
            optimal_stratified_mse([0.5], [1.0], 0)
        with pytest.raises(ValueError):
            uniform_sampling_mse([0.5], [1.0], -5)

    def test_stratified_never_worse_than_uniform(self):
        # By Cauchy-Schwarz the optimal stratified MSE <= uniform MSE when
        # the means are equal (no between-stratum variance).
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = rng.integers(2, 8)
            p = rng.uniform(0.01, 0.99, k)
            sigma = rng.uniform(0.1, 3.0, k)
            assert optimal_stratified_mse(p, sigma, 100) <= uniform_sampling_mse(
                p, sigma, 100
            ) + 1e-12

    def test_paper_k_fold_improvement_example(self):
        """Section 4.2: p_1=1, p_k=0 otherwise, sigma=1 -> K-fold speedup."""
        k = 5
        p = np.array([1.0] + [0.0] * (k - 1))
        sigma = np.ones(k)
        stratified = optimal_stratified_mse(p, sigma, 100)
        uniform = uniform_sampling_mse(p, sigma, 100)
        assert uniform / stratified == pytest.approx(k)

    def test_uniform_mse_includes_between_strata_variance(self):
        p = [0.5, 0.5]
        sigma = [1.0, 1.0]
        without_mu = uniform_sampling_mse(p, sigma, 100)
        with_mu = uniform_sampling_mse(p, sigma, 100, mu=[0.0, 10.0])
        assert with_mu > without_mu

    def test_expected_speedup_at_least_one_for_equal_means(self):
        assert expected_speedup([0.1, 0.9], [1.0, 1.0]) >= 1.0

    def test_expected_speedup_degenerate(self):
        assert expected_speedup([0.0, 0.0], [1.0, 1.0]) == 1.0
