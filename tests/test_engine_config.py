"""ExecutionConfig: eager validation, merging, and legacy-kwarg deprecation.

The config is the engine's one shared error path for execution knobs: a
bad setting must fail at construction (never mid-sampling), every legacy
per-knob kwarg must keep working but warn loudly, and the modern
``config=`` path must be completely silent.
"""

import warnings

import numpy as np
import pytest

from repro.core.abae import ABae, run_abae
from repro.core.adaptive import run_abae_sequential, run_abae_until_width
from repro.core.uniform import UniformSampler, run_uniform
from repro.engine import (
    ExecutionConfig,
    ExecutionConfigError,
    ProgressEvent,
    UNSET,
    resolve_execution_config,
)
from repro.query.errors import PlanningError
from repro.query.executor import execute_query
from repro.query.parser import parse_query
from repro.query.planner import plan_query
from repro.stats.rng import RandomState
from repro.synth import make_dataset

QUERY = (
    "SELECT AVG(views) FROM t WHERE spam(msg) = 'yes' "
    "ORACLE LIMIT 200 USING p WITH PROBABILITY 0.95"
)


@pytest.fixture(scope="module")
def scenario():
    return make_dataset("synthetic", seed=0, size=4000)


class TestValidation:
    """Every field fails eagerly through the one shared error path."""

    @pytest.mark.parametrize("bad", [0, -1, -100, 2.5, "8", True])
    def test_bad_batch_size(self, bad):
        with pytest.raises(ExecutionConfigError, match="batch_size"):
            ExecutionConfig(batch_size=bad)

    @pytest.mark.parametrize("bad", [0, -1, -100, 2.5, "4", True, False])
    def test_bad_num_workers(self, bad):
        with pytest.raises(ExecutionConfigError, match="num_workers"):
            ExecutionConfig(num_workers=bad)

    @pytest.mark.parametrize("bad", ["thraed", "gpu", "", None])
    def test_bad_backend(self, bad):
        with pytest.raises((ExecutionConfigError, ValueError), match="backend"):
            ExecutionConfig(parallel_backend=bad)

    @pytest.mark.parametrize("bad", ["yes", 1, 0, None])
    def test_bad_plan_cache(self, bad):
        with pytest.raises(ExecutionConfigError, match="plan_cache"):
            ExecutionConfig(plan_cache=bad)

    @pytest.mark.parametrize("bad", [2.5, "7", True])
    def test_bad_seed(self, bad):
        with pytest.raises(ExecutionConfigError, match="seed"):
            ExecutionConfig(seed=bad)

    def test_bad_progress(self):
        with pytest.raises(ExecutionConfigError, match="progress"):
            ExecutionConfig(progress="not-callable")

    def test_error_is_a_value_error(self):
        # Callers guarding with `except ValueError` keep working.
        with pytest.raises(ValueError):
            ExecutionConfig(batch_size=0)

    def test_numpy_integers_normalized(self):
        config = ExecutionConfig(
            batch_size=np.int64(16), num_workers=np.int64(4), seed=np.int64(3)
        )
        assert config.batch_size == 16 and type(config.batch_size) is int
        assert config.num_workers == 4 and type(config.num_workers) is int
        assert config.seed == 3 and type(config.seed) is int

    def test_defaults_are_valid_and_none_means_serial_whole_draw(self):
        config = ExecutionConfig()
        assert config.batch_size is None
        assert config.num_workers is None
        assert config.parallel_backend == "thread"
        assert config.plan_cache is True
        assert config.seed is None
        assert config.progress is None


class TestMergingAndRng:
    def test_merged_overrides_and_revalidates(self):
        base = ExecutionConfig(batch_size=8)
        assert base.merged(batch_size=UNSET) is base
        merged = base.merged(num_workers=2)
        assert merged.batch_size == 8 and merged.num_workers == 2
        with pytest.raises(ExecutionConfigError, match="batch_size"):
            base.merged(batch_size=-5)
        with pytest.raises(ExecutionConfigError, match="unknown"):
            base.merged(warp_speed=9)

    def test_merged_explicit_none_is_honoured(self):
        base = ExecutionConfig(batch_size=8, num_workers=4)
        merged = base.merged(batch_size=None, num_workers=None)
        assert merged.batch_size is None
        assert merged.num_workers is None

    def test_make_rng_policy(self):
        # Explicit rng wins; otherwise the config seed; otherwise the
        # historical seed-0 default.
        rng = RandomState(7)
        assert ExecutionConfig().make_rng(rng) is rng
        a = ExecutionConfig(seed=5).make_rng().integers(0, 1 << 30)
        b = RandomState(5).integers(0, 1 << 30)
        assert a == b
        c = ExecutionConfig().make_rng().integers(0, 1 << 30)
        d = RandomState(0).integers(0, 1 << 30)
        assert c == d


class TestLegacyKwargDeprecation:
    """Old per-knob kwargs keep working — loudly."""

    def _assert_warns_deprecated(self, fn):
        with pytest.warns(DeprecationWarning, match="deprecated"):
            return fn()

    def test_run_abae_legacy_kwargs_warn(self, scenario):
        result = self._assert_warns_deprecated(
            lambda: run_abae(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                budget=120,
                rng=RandomState(0),
                batch_size=7,
                num_workers=2,
            )
        )
        assert result.oracle_calls == 120

    def test_run_uniform_legacy_kwargs_warn(self, scenario):
        self._assert_warns_deprecated(
            lambda: run_uniform(
                scenario.num_records,
                scenario.make_oracle(),
                scenario.statistic_values,
                budget=60,
                rng=RandomState(0),
                batch_size=5,
            )
        )

    def test_adaptive_legacy_kwargs_warn(self, scenario):
        self._assert_warns_deprecated(
            lambda: run_abae_sequential(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                budget=150,
                warmup_per_stratum=5,
                rng=RandomState(0),
                oracle_batch_size=16,
            )
        )
        self._assert_warns_deprecated(
            lambda: run_abae_until_width(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                target_width=5.0,
                max_budget=150,
                num_bootstrap=20,
                rng=RandomState(0),
                num_workers=2,
            )
        )

    def test_facade_legacy_kwargs_warn(self, scenario):
        self._assert_warns_deprecated(
            lambda: ABae(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                batch_size=4,
            )
        )
        self._assert_warns_deprecated(
            lambda: UniformSampler(
                scenario.num_records,
                scenario.make_oracle(),
                scenario.statistic_values,
                num_workers=2,
            )
        )

    def test_planner_and_executor_legacy_kwargs_warn(self, scenario):
        query = parse_query(QUERY)
        plan = self._assert_warns_deprecated(
            lambda: plan_query(query, batch_size=16)
        )
        assert plan.batch_size == 16
        # Validation still lands as PlanningError after the warning.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            with pytest.raises(PlanningError, match="batch_size"):
                plan_query(query, batch_size=0)

    def test_warning_points_at_the_caller_line(self, scenario):
        """Legacy-kwarg deprecations must carry the *caller's* location.

        A warning attributed to ``repro/engine/config.py`` is useless —
        the user cannot find which of their calls to fix.  Every public
        entry point (and a direct ``resolve_execution_config`` call) must
        attribute the warning to this test file.
        """
        entry_points = {
            "resolve_execution_config": lambda: resolve_execution_config(
                None, "direct", batch_size=7
            ),
            "run_abae": lambda: run_abae(
                scenario.proxy, scenario.make_oracle(),
                scenario.statistic_values, budget=60,
                rng=RandomState(0), batch_size=7,
            ),
            "run_uniform": lambda: run_uniform(
                scenario.num_records, scenario.make_oracle(),
                scenario.statistic_values, budget=60,
                rng=RandomState(0), num_workers=2,
            ),
            "run_abae_sequential": lambda: run_abae_sequential(
                scenario.proxy, scenario.make_oracle(),
                scenario.statistic_values, budget=100, warmup_per_stratum=4,
                rng=RandomState(0), oracle_batch_size=8,
            ),
            "ABae.estimate": lambda: ABae(
                scenario.proxy, scenario.make_oracle(),
                scenario.statistic_values,
            ).estimate(budget=60, rng=RandomState(0), batch_size=7),
            "plan_query": lambda: plan_query(parse_query(QUERY), batch_size=7),
        }
        for name, invoke in entry_points.items():
            with pytest.warns(DeprecationWarning, match="deprecated") as records:
                invoke()
            deprecations = [
                r for r in records if issubclass(r.category, DeprecationWarning)
            ]
            assert deprecations, name
            assert deprecations[0].filename == __file__, (
                f"{name}: warning attributed to {deprecations[0].filename}, "
                f"expected the caller's file {__file__}"
            )

    def test_config_path_is_silent(self, scenario):
        """The modern config= path must emit no deprecation warnings at all."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = ExecutionConfig(batch_size=9, num_workers=2)
            run_abae(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                budget=120,
                rng=RandomState(0),
                config=config,
            )
            ABae(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                config=config,
            ).estimate(budget=100, rng=RandomState(1))
            plan_query(parse_query(QUERY), config=config)

    def test_internal_paths_do_not_warn(self, scenario):
        """Engine-internal delegation never routes through legacy kwargs.

        Group-by runs fan out into run_abae / run_uniform internally; an
        internal legacy-kwarg call would spam (and eventually break) the
        deprecation filter, so it is pinned to silence here.
        """
        from repro.core.groupby import GroupSpec, run_groupby_multi_oracle
        from repro.synth import make_groupby_scenario

        gb = make_groupby_scenario("synthetic", setting="multi", seed=1, size=4000)
        specs = [GroupSpec(key=g, proxy=gb.proxies[g]) for g in gb.groups]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_groupby_multi_oracle(
                specs,
                gb.make_per_group_oracles(),
                gb.statistic_values,
                budget=400,
                rng=RandomState(0),
                config=ExecutionConfig(batch_size=32),
            )


class TestFacadeConfigSurface:
    def test_facade_exposes_knobs_via_config(self, scenario):
        sampler = ABae(
            scenario.proxy,
            scenario.make_oracle(),
            scenario.statistic_values,
            config=ExecutionConfig(batch_size=3, num_workers=2),
        )
        assert sampler.batch_size == 3
        assert sampler.num_workers == 2
        assert sampler.parallel_backend == "thread"
        assert sampler.config.batch_size == 3

    def test_facade_sessions_validate_config_eagerly(self, scenario):
        # session() goes through the same shared validation path as
        # estimate(): a bogus config fails with ExecutionConfigError, not
        # an AttributeError from inside the pipeline.
        sampler = ABae(
            scenario.proxy, scenario.make_oracle(), scenario.statistic_values
        )
        with pytest.raises(ExecutionConfigError, match="ExecutionConfig"):
            sampler.session(budget=50, config={"batch_size": 2})
        uniform = UniformSampler(
            scenario.num_records, scenario.make_oracle(), scenario.statistic_values
        )
        with pytest.raises(ExecutionConfigError, match="ExecutionConfig"):
            uniform.session(budget=50, config="fast please")

    def test_plan_carries_config(self):
        config = ExecutionConfig(batch_size=64, num_workers=4, plan_cache=False)
        plan = plan_query(parse_query(QUERY), config=config)
        assert plan.config is config
        assert plan.batch_size == 64
        assert plan.num_workers == 4
        assert plan.plan_cache is False

    def test_execute_query_config_matches_legacy(self, scenario):
        from repro.query.executor import QueryContext

        context = QueryContext(scenario.num_records)
        context.register_statistic("views", scenario.statistic_values)
        context.register_predicate(
            "spam(msg) = 'yes'", scenario.make_oracle(), scenario.proxy,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            legacy = execute_query(
                QUERY, context, seed=4, num_bootstrap=30, batch_size=17,
                num_workers=2,
            )
        modern = execute_query(
            QUERY, context, seed=4, num_bootstrap=30,
            config=ExecutionConfig(batch_size=17, num_workers=2),
        )
        assert legacy.value == modern.value
        assert (legacy.ci.lower, legacy.ci.upper) == (modern.ci.lower, modern.ci.upper)
        assert legacy.oracle_calls == modern.oracle_calls


class TestLegacyConfigFingerprintParity:
    """Legacy kwargs and config= drive the exact same engine execution."""

    def test_groupby_paths_bit_identical(self):
        from harness import groupby_fingerprint
        from repro.core.groupby import (
            GroupSpec,
            run_groupby_multi_oracle,
            run_groupby_single_oracle,
        )
        from repro.synth import make_groupby_scenario

        gb = make_groupby_scenario("synthetic", setting="single", seed=1, size=5000)
        specs = [GroupSpec(key=g, proxy=gb.proxies[g]) for g in gb.groups]
        for runner, oracle_factory in (
            (run_groupby_single_oracle, gb.make_single_oracle),
            (run_groupby_multi_oracle, gb.make_per_group_oracles),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                legacy = runner(
                    specs, oracle_factory(), gb.statistic_values, budget=500,
                    rng=RandomState(3), batch_size=13, num_workers=2,
                )
            modern = runner(
                specs, oracle_factory(), gb.statistic_values, budget=500,
                rng=RandomState(3),
                config=ExecutionConfig(batch_size=13, num_workers=2),
            )
            assert groupby_fingerprint(legacy) == groupby_fingerprint(modern)


class TestProgressCallback:
    def test_progress_events_stream_and_do_not_change_results(self, scenario):
        events = []
        baseline = run_abae(
            scenario.proxy,
            scenario.make_oracle(),
            scenario.statistic_values,
            budget=150,
            rng=RandomState(2),
        )
        observed = run_abae(
            scenario.proxy,
            scenario.make_oracle(),
            scenario.statistic_values,
            budget=150,
            rng=RandomState(2),
            config=ExecutionConfig(progress=events.append),
        )
        assert observed.estimate == baseline.estimate
        assert all(isinstance(e, ProgressEvent) for e in events)
        phases = {e.phase for e in events}
        assert phases == {"allocate", "draw", "finalize"}
        draw_total = sum(e.drawn for e in events if e.phase == "draw")
        assert draw_total == observed.oracle_calls
        assert events[-1].phase == "finalize"
        assert events[-1].spent == 150


class TestResolveExecutionConfig:
    def test_rejects_non_config(self):
        with pytest.raises(ExecutionConfigError, match="ExecutionConfig"):
            resolve_execution_config({"batch_size": 4}, "test")

    def test_default_base_used_for_overrides(self):
        base = ExecutionConfig(batch_size=10, num_workers=3)
        with pytest.warns(DeprecationWarning):
            resolved = resolve_execution_config(
                None, "test", default=base, batch_size=None
            )
        # Explicit None override wins; unrelated fields inherit the base.
        assert resolved.batch_size is None
        assert resolved.num_workers == 3


class TestErrorMessageContracts:
    """Rejection messages must *enumerate* the allowed values.

    These messages are the API's discovery mechanism for valid knob
    settings — a user who typos ``parallel_backend="thraed"`` learns the
    real choices from the error, not from a docs hunt.  The contract is pinned
    here so a reworded message cannot silently drop the enumeration.
    """

    BACKEND_CHOICES = ("'thread'", "'process'")

    @pytest.mark.parametrize("bad_backend", ["greenlet", "", "THREAD"])
    def test_config_parallel_backend_error_enumerates_choices(self, bad_backend):
        with pytest.raises(ExecutionConfigError) as excinfo:
            ExecutionConfig(parallel_backend=bad_backend)
        message = str(excinfo.value)
        for choice in self.BACKEND_CHOICES:
            assert choice in message
        assert repr(bad_backend) in message

    def test_config_reports_every_invalid_field_at_once(self):
        with pytest.raises(ExecutionConfigError) as excinfo:
            ExecutionConfig(batch_size=0, parallel_backend="nope")
        message = str(excinfo.value)
        assert "batch_size must be a positive integer or None, got 0" in message
        for choice in self.BACKEND_CHOICES:
            assert choice in message
