"""Tests for repro.core.abae (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.abae import ABae, bounded_allocation, draw_stratum_sample, run_abae
from repro.core.stratification import Stratification
from repro.oracle.simulated import LabelColumnOracle
from repro.proxy.noise import RandomProxy
from repro.stats.rng import RandomState


class TestBoundedAllocation:
    def test_respects_capacities(self):
        allocation = bounded_allocation([0.9, 0.1], total=100, capacities=[10, 200])
        assert allocation[0] <= 10
        assert sum(allocation) == 100

    def test_exhausts_budget_when_capacity_allows(self):
        allocation = bounded_allocation([0.5, 0.5], total=50, capacities=[100, 100])
        assert sum(allocation) == 50

    def test_insufficient_total_capacity(self):
        allocation = bounded_allocation([0.5, 0.5], total=100, capacities=[10, 20])
        assert sum(allocation) == 30
        assert allocation == [10, 20]

    def test_zero_weights_spread_evenly(self):
        allocation = bounded_allocation([0.0, 0.0], total=10, capacities=[50, 50])
        assert sum(allocation) == 10

    def test_weight_on_full_stratum_redistributes(self):
        allocation = bounded_allocation([1.0, 0.0], total=20, capacities=[5, 100])
        assert allocation[0] == 5
        assert sum(allocation) == 20

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            bounded_allocation([1.0], total=10, capacities=[5, 5])

    def test_non_finite_weight_raises(self):
        with pytest.raises(ValueError, match="finite"):
            bounded_allocation([float("nan"), 1.0], total=10, capacities=[5, 5])


class TestDrawStratumSample:
    def test_oracle_called_once_per_draw(self, small_scenario):
        oracle = small_scenario.make_oracle()
        sample = draw_stratum_sample(
            0,
            np.arange(small_scenario.num_records),
            50,
            oracle,
            lambda i: float(small_scenario.statistic_values[i]),
            RandomState(0),
        )
        assert oracle.num_calls == 50
        assert sample.num_draws == 50

    def test_values_nan_for_non_matching(self, small_scenario):
        sample = draw_stratum_sample(
            0,
            np.arange(small_scenario.num_records),
            100,
            small_scenario.make_oracle(),
            lambda i: float(small_scenario.statistic_values[i]),
            RandomState(0),
        )
        assert np.all(np.isnan(sample.values[~sample.matches]))
        assert np.all(np.isfinite(sample.values[sample.matches]))


class TestRunAbae:
    def test_estimate_close_to_truth(self, medium_scenario):
        result = run_abae(
            proxy=medium_scenario.proxy,
            oracle=medium_scenario.make_oracle(),
            statistic=medium_scenario.statistic_values,
            budget=3000,
            rng=RandomState(0),
        )
        truth = medium_scenario.ground_truth()
        assert abs(result.estimate - truth) / truth < 0.1

    def test_budget_respected_exactly(self, small_scenario):
        oracle = small_scenario.make_oracle()
        result = run_abae(
            proxy=small_scenario.proxy,
            oracle=oracle,
            statistic=small_scenario.statistic_values,
            budget=1000,
            rng=RandomState(0),
        )
        assert result.oracle_calls == 1000
        assert oracle.num_calls == 1000

    def test_reproducible_with_same_seed(self, small_scenario):
        kwargs = dict(
            proxy=small_scenario.proxy,
            oracle=small_scenario.make_oracle(),
            statistic=small_scenario.statistic_values,
            budget=800,
        )
        a = run_abae(rng=RandomState(5), **kwargs)
        b = run_abae(rng=RandomState(5), **kwargs)
        assert a.estimate == b.estimate

    def test_different_seeds_differ(self, small_scenario):
        kwargs = dict(
            proxy=small_scenario.proxy,
            oracle=small_scenario.make_oracle(),
            statistic=small_scenario.statistic_values,
            budget=800,
        )
        a = run_abae(rng=RandomState(1), **kwargs)
        b = run_abae(rng=RandomState(2), **kwargs)
        assert a.estimate != b.estimate

    def test_ci_requested(self, small_scenario):
        result = run_abae(
            proxy=small_scenario.proxy,
            oracle=small_scenario.make_oracle(),
            statistic=small_scenario.statistic_values,
            budget=800,
            with_ci=True,
            num_bootstrap=100,
            rng=RandomState(0),
        )
        assert result.ci is not None
        assert result.ci.lower <= result.estimate <= result.ci.upper

    def test_accepts_raw_score_vector(self, small_scenario):
        result = run_abae(
            proxy=small_scenario.proxy.scores(),
            oracle=small_scenario.make_oracle(),
            statistic=small_scenario.statistic_values,
            budget=500,
            rng=RandomState(0),
        )
        assert np.isfinite(result.estimate)

    def test_accepts_callable_statistic(self, small_scenario):
        values = small_scenario.statistic_values
        result = run_abae(
            proxy=small_scenario.proxy,
            oracle=small_scenario.make_oracle(),
            statistic=lambda i: float(values[i]),
            budget=500,
            rng=RandomState(0),
        )
        assert np.isfinite(result.estimate)

    def test_details_populated(self, small_scenario):
        result = run_abae(
            proxy=small_scenario.proxy,
            oracle=small_scenario.make_oracle(),
            statistic=small_scenario.statistic_values,
            budget=500,
            num_strata=4,
            rng=RandomState(0),
        )
        assert result.details["num_strata"] == 4
        assert len(result.details["stage2_counts"]) == 4
        assert len(result.details["stratum_sizes"]) == 4
        assert sum(result.details["allocation_weights"]) == pytest.approx(1.0)

    def test_no_reuse_changes_method_name(self, small_scenario):
        result = run_abae(
            proxy=small_scenario.proxy,
            oracle=small_scenario.make_oracle(),
            statistic=small_scenario.statistic_values,
            budget=500,
            reuse_samples=False,
            rng=RandomState(0),
        )
        assert result.method == "abae-no-reuse"

    def test_custom_stratification(self, small_scenario):
        stratification = Stratification.random(
            small_scenario.num_records, 3, rng=RandomState(9)
        )
        result = run_abae(
            proxy=small_scenario.proxy,
            oracle=small_scenario.make_oracle(),
            statistic=small_scenario.statistic_values,
            budget=600,
            stratification=stratification,
            rng=RandomState(0),
        )
        assert len(result.strata_estimates) == 3

    def test_mismatched_stratification_raises(self, small_scenario):
        stratification = Stratification.single_stratum(10)
        with pytest.raises(ValueError):
            run_abae(
                proxy=small_scenario.proxy,
                oracle=small_scenario.make_oracle(),
                statistic=small_scenario.statistic_values,
                budget=100,
                stratification=stratification,
            )

    def test_useless_proxy_still_valid(self, medium_scenario):
        """Correctness guarantee: a random proxy degrades efficiency, not validity."""
        proxy = RandomProxy(medium_scenario.num_records, rng=RandomState(3))
        result = run_abae(
            proxy=proxy,
            oracle=medium_scenario.make_oracle(),
            statistic=medium_scenario.statistic_values,
            budget=4000,
            rng=RandomState(0),
        )
        truth = medium_scenario.ground_truth()
        assert abs(result.estimate - truth) / truth < 0.15

    def test_predicate_selecting_nothing(self):
        labels = np.zeros(1000, dtype=bool)
        proxy = RandomProxy(1000, rng=RandomState(0))
        result = run_abae(
            proxy=proxy,
            oracle=LabelColumnOracle(labels),
            statistic=np.ones(1000),
            budget=200,
            rng=RandomState(0),
        )
        assert result.estimate == 0.0

    def test_tiny_budget(self, small_scenario):
        result = run_abae(
            proxy=small_scenario.proxy,
            oracle=small_scenario.make_oracle(),
            statistic=small_scenario.statistic_values,
            budget=10,
            rng=RandomState(0),
        )
        assert np.isfinite(result.estimate)
        assert result.oracle_calls <= 10

    def test_budget_larger_than_dataset(self):
        rng = RandomState(0)
        labels = rng.random(200) < 0.5
        values = rng.normal(2.0, 1.0, 200)
        from repro.proxy.noise import BetaNoiseProxy

        proxy = BetaNoiseProxy(labels, rng=RandomState(1))
        result = run_abae(
            proxy=proxy,
            oracle=LabelColumnOracle(labels),
            statistic=values,
            budget=1000,
            rng=RandomState(2),
        )
        # Exhausting the dataset gives (close to) the exact answer.
        truth = values[labels].mean()
        assert result.estimate == pytest.approx(truth, rel=1e-6)
        assert result.oracle_calls <= 200


class TestABaeFacade:
    def test_estimate_call(self, small_scenario):
        sampler = ABae(
            proxy=small_scenario.proxy,
            oracle=small_scenario.make_oracle(),
            statistic=small_scenario.statistic_values,
        )
        result = sampler.estimate(budget=500, seed=1)
        assert np.isfinite(result.estimate)

    def test_seed_reproducibility(self, small_scenario):
        sampler = ABae(
            proxy=small_scenario.proxy,
            oracle=small_scenario.make_oracle(),
            statistic=small_scenario.statistic_values,
        )
        assert sampler.estimate(budget=400, seed=2).estimate == sampler.estimate(
            budget=400, seed=2
        ).estimate

    def test_invalid_parameters_raise(self, small_scenario):
        with pytest.raises(ValueError):
            ABae(
                proxy=small_scenario.proxy,
                oracle=small_scenario.make_oracle(),
                statistic=small_scenario.statistic_values,
                num_strata=0,
            )
        with pytest.raises(ValueError):
            ABae(
                proxy=small_scenario.proxy,
                oracle=small_scenario.make_oracle(),
                statistic=small_scenario.statistic_values,
                stage1_fraction=1.0,
            )
