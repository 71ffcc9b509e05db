"""ExecutionConfig: eager validation, the seed policy, and the one config path.

The config is the engine's one shared error path for execution knobs: a
bad setting must fail at construction (never mid-sampling), and
``config=ExecutionConfig(...)`` is the only way to set a knob — the old
per-knob kwargs are gone and raise ``TypeError``.
"""

import numpy as np
import pytest

from repro.core.abae import ABae, run_abae
from repro.core.adaptive import run_abae_sequential, run_abae_until_width
from repro.core.groupby import run_groupby_multi_oracle, run_groupby_single_oracle
from repro.core.multipred import run_abae_multipred
from repro.core.uniform import UniformSampler, run_uniform
from repro.engine import (
    ExecutionConfig,
    ExecutionConfigError,
    ProgressEvent,
    resolve_execution_config,
)
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


class TestRngPolicy:
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

    @pytest.mark.parametrize("facade", ["ABae", "UniformSampler"])
    @pytest.mark.parametrize("entry", ["estimate", "session"])
    def test_facades_honour_config_seed(self, scenario, facade, entry):
        """Facades seed from ``rng``, then ``seed``, then ``config.seed``."""
        def estimate(**kwargs):
            if facade == "ABae":
                sampler = ABae(
                    scenario.proxy, scenario.make_oracle(), scenario.statistic_values
                )
            else:
                sampler = UniformSampler(
                    scenario.num_records,
                    scenario.make_oracle(),
                    scenario.statistic_values,
                )
            if entry == "estimate":
                return sampler.estimate(budget=150, **kwargs).estimate
            return sampler.session(budget=150, **kwargs).run().estimate

        seeded = ExecutionConfig(seed=5)
        first = estimate(config=seeded)
        assert estimate(config=seeded) == first
        assert estimate(rng=RandomState(5)) == first
        # An explicit seed or rng beats the config's seed.
        assert estimate(seed=6, config=seeded) == estimate(rng=RandomState(6))
        assert estimate(rng=RandomState(6), config=seeded) == estimate(seed=6)


_KNOBS = ("batch_size", "num_workers", "parallel_backend")
# Every per-knob kwarg that used to alias a config field.
FORMER_ALIASES = [
    (entry, knob)
    for entries, knobs in (
        (
            (run_abae, run_uniform, run_abae_multipred, run_groupby_single_oracle,
             run_groupby_multi_oracle, ABae, UniformSampler),
            _KNOBS,
        ),
        (
            (run_abae_sequential, run_abae_until_width),
            ("oracle_batch_size", "num_workers", "parallel_backend"),
        ),
        ((ABae.estimate, UniformSampler.estimate), ("batch_size", "num_workers")),
        ((plan_query, execute_query), ("batch_size", "num_workers", "plan_cache")),
    )
    for entry in entries
    for knob in knobs
]


class TestRemovedAliases:
    """``config=`` is the only way to set an execution knob."""

    @pytest.mark.parametrize(
        "entry, knob",
        FORMER_ALIASES,
        ids=[f"{entry.__qualname__}-{knob}" for entry, knob in FORMER_ALIASES],
    )
    def test_former_alias_raises_type_error(self, entry, knob):
        # The unexpected keyword is rejected before any argument is used.
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{knob}'"):
            entry(**{knob: 2})


class TestFacadeConfigSurface:
    def test_facade_exposes_knobs_via_config(self, scenario):
        sampler = ABae(
            scenario.proxy,
            scenario.make_oracle(),
            scenario.statistic_values,
            config=ExecutionConfig(batch_size=3, num_workers=2),
        )
        assert sampler.config.batch_size == 3
        assert sampler.config.num_workers == 2
        assert sampler.config.parallel_backend == "thread"
        for view in ("batch_size", "num_workers", "parallel_backend"):
            assert not hasattr(sampler, view)

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
        for view in ("batch_size", "num_workers", "plan_cache"):
            assert not hasattr(plan, view)


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
            resolve_execution_config({"batch_size": 4})

    def test_config_replaces_default_whole(self):
        base = ExecutionConfig(batch_size=10, num_workers=3)
        given = ExecutionConfig(batch_size=4)
        assert resolve_execution_config(None, base) is base
        assert resolve_execution_config(given, base) is given
        assert resolve_execution_config(None) == ExecutionConfig()


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
