"""The four workloads: inputs from the seed, one operation, output checks.

Every workload builds its inputs from the workload seed alone and drives
the library only through public entry points (``execute_query``,
``run_abae``, ``run_groupby_*``, ``combine_proxies``, ``AQPService`` and
the ``repro.data`` backends), with ``config=ExecutionConfig(...)`` and
never a deprecated per-knob keyword.

A closed-loop workload exposes ``query(i)``: operation ``i`` with its own
seed, returning an :class:`Outcome`.  ``check()`` compares the first
``checked`` operations against a solo run of the same computation and
returns the mismatches.  The open-loop workload (``serve_open``) instead exposes
``run_ladder``, which offers queries at each rate of a fixed ladder.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Set

import numpy as np

from repro import (
    ExecutionConfig,
    GroupSpec,
    combine_proxies,
    execute_query,
    run_abae,
    run_groupby_multi_oracle,
    run_groupby_single_oracle,
)
from repro.core import proxy_selection
from repro.core.estimators import estimate_all_strata, estimate_mse_plugin
from repro.core.stratification import clear_stratification_cache
from repro.engine.builders import two_stage_pipeline
from repro.oracle.simulated import LabelColumnOracle
from repro.proxy.base import BackedProxy
from repro.query.executor import GroupBinding, QueryContext
from repro.serve import AQPService, SharedOracleCache
from repro.serve.admission import AdmissionController, AdmissionError
from repro.serve.journal import ServiceJournal
from repro.serve.scheduler import QueryStatus
from repro.stats.rng import RandomState
from repro.synth import (
    make_dataset,
    make_groupby_scenario,
    make_proxy_combination_scenario,
    to_backend,
)

CONFIG = ExecutionConfig()
NUM_STRATA = 5
Z_95 = 1.959963984540054

# The open-loop ladder: each rung's offered rate and the share of the run's
# seconds its schedule spans.  The service's capacity is 70-120 qps on a
# shared 2-core host, depending on the host's load.  The time to first
# estimate stays a few milliseconds up to about nine tenths of capacity and
# then grows with the backlog, so a rung meets the limit while it is below
# capacity.  60 qps stays below the slowest capacity seen, and a drop in
# capacity of a fifth or more makes it miss; the top rung, 160 qps, is
# above capacity, where the service runs flat out and its achieved rate is
# its capacity.  Latency metrics use the rungs at or below REFERENCE_QPS:
# its queries arrive 50 ms apart and take about 15 ms, so they do not
# queue unless one takes over three times as long.  A rung meets the limit
# when its time-to-first-estimate tail is within TTFE_LIMIT_MS, with no
# growing backlog and no failed query (the ladder and the limit are also
# stated in BENCHMARK.json).
LADDER_QPS = (20.0, 40.0, 60.0, 160.0)
LADDER_SHARE = (0.70, 0.10, 0.10, 0.05)
REFERENCE_QPS = 20.0
TTFE_LIMIT_MS = 100.0


def derive_seed(seed: int, *keys: int) -> int:
    """A well-mixed 32-bit seed for sub-stream ``keys`` of workload ``seed``."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def query_rng(seed: int, i: int) -> RandomState:
    """Operation ``i``'s generator; negative ``i`` are set-up warm-ups."""
    return RandomState(derive_seed(seed, 100, i) if i >= 0 else derive_seed(seed, 200, -i))


@dataclass
class Outcome:
    """What one operation produced, for metrics and output checks."""

    fingerprint: str
    oracle_calls: int
    budget: int
    # (series key, estimate, truth) per answered value; series group the
    # errors whose RMSE is reported (a group-by reports its worst series).
    values: List[tuple] = field(default_factory=list)
    # Whether each confidence interval the operation produced holds the truth.
    covered: List[bool] = field(default_factory=list)
    qid: int = -1
    # Timings: latency and time to first estimate (from the due time in the
    # open loop), the due time itself, and wall time from the call's start.
    latency_s: float = 0.0
    ttfe_s: float = 0.0
    due_s: float = 0.0
    wall_s: float = 0.0


def result_fingerprint(value, ci, oracle_calls, groups=None) -> str:
    """Exact digest of an answer (repr keeps every bit of every float)."""
    bounds = None if ci is None else (ci.lower, ci.upper)
    items = None if groups is None else sorted(groups.items(), key=repr)
    return repr((value, bounds, items, oracle_calls))


def plugin_halfwidth(result) -> float:
    """95% normal half-width from the library's plug-in MSE estimate.

    A group estimate combined across stratifications by inverse variance
    carries its per-stratification variances; any other estimate uses
    Proposition 3's plug-in MSE over its strata.
    """
    variances = result.details.get("per_stratification_variances")
    if variances is not None:
        finite = [v for v in variances if 0.0 < v < math.inf]
        mse = 1.0 / sum(1.0 / v for v in finite) if finite else math.inf
    else:
        estimates = estimate_all_strata(result.samples)
        mse = estimate_mse_plugin(estimates, [s.num_draws for s in result.samples])
    return Z_95 * math.sqrt(mse)


def oracle_log(oracle) -> tuple:
    """The oracle's full accounting: count, cost and columnar call log."""
    log = oracle.call_log_columns
    return (oracle.num_calls, oracle.total_cost, log.indices.tolist(),
            [bool(r) for r in log.results], log.costs.tolist())


# ---------------------------------------------------------------------------
# abae_ci: the paper's canonical query, with a bootstrap CI
# ---------------------------------------------------------------------------


class AbaeCI:
    """``execute_query`` AVG queries with 95% CIs over three datasets."""

    loop = "closed"
    checked = 2
    datasets = ("amazon-movies", "night-street", "taipei")
    probability = 0.95

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.size = 20_000 if smoke else 100_000
        self.budget = 2_000 if smoke else 10_000
        self.num_bootstrap = 100 if smoke else 1_000
        self.accuracy_queries = 6 if smoke else 100

    def text(self, j: int) -> str:
        return (
            f"SELECT AVG(stat) FROM {self.datasets[j].replace('-', '_')} "
            f"WHERE match(r) = 'yes' ORACLE LIMIT {self.budget} "
            f"USING p WITH PROBABILITY {self.probability}"
        )

    def setup(self) -> None:
        clear_stratification_cache()
        self.tables = []
        for j, name in enumerate(self.datasets):
            scenario = make_dataset(name, seed=derive_seed(self.seed, j), size=self.size)
            backend = to_backend(scenario, kind="memory")
            oracle = LabelColumnOracle(backend.column("label"))
            context = QueryContext.from_backend(backend)
            context.register_statistic("stat", "statistic")
            context.register_predicate("match", oracle, "proxy_score")
            self.tables.append((backend, context, oracle, scenario.ground_truth()))
        for j in range(len(self.datasets)):  # warm-up: stratify each proxy once
            self.query(-1 - j)

    def _run(self, i: int, context):
        return execute_query(
            self.text(i % len(self.datasets)), context,
            rng=query_rng(self.seed, i),
            num_strata=NUM_STRATA, num_bootstrap=self.num_bootstrap, config=CONFIG,
        )

    def query(self, i: int) -> Outcome:
        j = i % len(self.datasets)
        backend, context, oracle, truth = self.tables[j]
        oracle.reset_accounting()
        result = self._run(i, context)
        return Outcome(
            fingerprint=result_fingerprint(result.value, result.ci, result.oracle_calls),
            oracle_calls=oracle.num_calls,
            budget=self.budget,
            values=[(0, result.value, truth)],
            covered=[result.ci.lower <= truth <= result.ci.upper],
        )

    def check(self) -> List[str]:
        """execute_query == a solo two-stage pipeline run, bit for bit."""
        failures = []
        for i in range(self.checked):
            j = i % len(self.datasets)
            backend = self.tables[j][0]
            logged = LabelColumnOracle(backend.column("label"), keep_log=True)
            context = QueryContext.from_backend(backend)
            context.register_statistic("stat", "statistic")
            context.register_predicate("match", logged, "proxy_score")
            served = self._run(i, context)
            solo_oracle = LabelColumnOracle(backend.column("label"), keep_log=True)
            solo = two_stage_pipeline(
                BackedProxy(backend, "proxy_score"), solo_oracle,
                backend.column("statistic"), budget=self.budget,
                # The query's alpha is 1 - p, as the parser computes it: a
                # literal 0.05 differs in the last bit and moves a CI bound
                # by one ulp on some seeds.
                num_strata=NUM_STRATA, with_ci=True, alpha=1.0 - self.probability,
                num_bootstrap=self.num_bootstrap, config=CONFIG,
            ).run(query_rng(self.seed, i))
            if result_fingerprint(served.value, served.ci, served.oracle_calls) != (
                result_fingerprint(solo.estimate, solo.ci, solo.oracle_calls)
            ):
                failures.append(f"abae_ci query {i}: result differs from the solo pipeline")
            if oracle_log(logged) != oracle_log(solo_oracle):
                failures.append(f"abae_ci query {i}: oracle accounting differs")
        return failures


# ---------------------------------------------------------------------------
# proxy_combo: Figure 12's recipe (pilot, logistic combination, ABae)
# ---------------------------------------------------------------------------


class ProxyCombo:
    """Pilot sample, ``combine_proxies`` and ``run_abae`` without a CI."""

    loop = "closed"
    checked = 2
    pilot_fraction = 0.3

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.size = 20_000 if smoke else 100_000
        self.budget = 2_000 if smoke else 6_000
        self.pilot_budget = int(self.budget * self.pilot_fraction)
        self.accuracy_queries = 6 if smoke else 100

    def setup(self) -> None:
        clear_stratification_cache()
        scenario = make_proxy_combination_scenario(
            "trec05p", seed=derive_seed(self.seed, 0), size=self.size
        )
        self.scenario = scenario
        self.candidates = scenario.extra["candidate_proxies"]
        self.truth = scenario.ground_truth()
        self.query(-1)  # warm-up

    def _pilot(self, i: int, oracle):
        pilot_rng, run_rng = query_rng(self.seed, i).spawn(2)
        pilot = proxy_selection.draw_pilot_sample(
            self.scenario.num_records, oracle, self.scenario.statistic_values,
            self.pilot_budget, rng=pilot_rng,
        )
        return combine_proxies(self.candidates, pilot), run_rng

    def query(self, i: int) -> Outcome:
        oracle = self.scenario.make_oracle()
        combined, run_rng = self._pilot(i, oracle)
        result = run_abae(
            proxy=combined, oracle=oracle, statistic=self.scenario.statistic_values,
            budget=self.budget - self.pilot_budget, num_strata=NUM_STRATA,
            rng=run_rng, config=CONFIG,
        )
        half = plugin_halfwidth(result)
        return Outcome(
            fingerprint=result_fingerprint(result.estimate, None, result.oracle_calls),
            oracle_calls=oracle.num_calls,
            budget=self.budget,
            values=[(0, result.estimate, self.truth)],
            covered=[abs(result.estimate - self.truth) <= half],
        )

    def check(self) -> List[str]:
        """run_abae == a solo two-stage pipeline on the same combined proxy."""
        failures = []
        for i in range(self.checked):
            outcome = self.query(i)
            oracle = LabelColumnOracle(self.scenario.labels, keep_log=True)
            combined, run_rng = self._pilot(i, oracle)
            solo = two_stage_pipeline(
                combined, oracle, self.scenario.statistic_values,
                budget=self.budget - self.pilot_budget, num_strata=NUM_STRATA,
                config=CONFIG,
            ).run(run_rng)
            if outcome.fingerprint != result_fingerprint(solo.estimate, None, solo.oracle_calls):
                failures.append(f"proxy_combo query {i}: result differs from the solo pipeline")
            if oracle.num_calls != self.budget or len(oracle.call_log_columns) != self.budget:
                failures.append(f"proxy_combo query {i}: solo run labeled {oracle.num_calls}")
        return failures


# ---------------------------------------------------------------------------
# groupby: Figures 7 and 8, alternating the two oracle settings
# ---------------------------------------------------------------------------


class GroupBy:
    """Two ``run_groupby_single_oracle`` and two ``run_groupby_multi_oracle``.

    An operation runs queries in both settings: their latencies differ, and
    alternating single queries would leave the latency median in the gap
    between the two settings, where it jumps between runs.  It runs two of
    each because a multi-oracle query's latency depends on its random
    stream: about one in ten takes 1.7 times as long, so with one query per
    setting the latency tail sat at the edge of the slow cluster and moved
    by a third between runs.
    """

    loop = "closed"
    checked = 2  # query 0 is single-oracle, query 1 multi
    settings = ("single", "multi")
    queries_per_operation = 4

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.size = 20_000 if smoke else 100_000
        # The multi-oracle budget is normalized by the number of groups.
        self.budgets = {"single": 1_000, "multi": 4_000} if smoke else {
            "single": 3_000, "multi": 12_000}
        self.accuracy_queries = 2 if smoke else 60

    def setup(self) -> None:
        clear_stratification_cache()
        self.scenarios = {
            setting: make_groupby_scenario(
                "synthetic", setting=setting, seed=derive_seed(self.seed, k), size=self.size
            )
            for k, setting in enumerate(self.settings)
        }
        self.truths = {s: w.ground_truths() for s, w in self.scenarios.items()}
        self.query(-1)  # warm-up: stratify each proxy once

    def _run(self, j: int):
        """Query ``j``: even ``j`` in the single-oracle setting, odd in multi."""
        setting = self.settings[j % 2]
        workload = self.scenarios[setting]
        specs = [GroupSpec(key=g, proxy=workload.proxies[g]) for g in workload.groups]
        common = dict(
            groups=specs, statistic=workload.statistic_values,
            budget=self.budgets[setting], num_strata=NUM_STRATA,
            rng=query_rng(self.seed, j), config=CONFIG,
        )
        if setting == "single":
            oracle = workload.make_single_oracle()
            result = run_groupby_single_oracle(oracle=oracle, **common)
            calls = oracle.num_calls
        else:
            oracles = workload.make_per_group_oracles()
            result = run_groupby_multi_oracle(oracles=oracles, **common)
            calls = oracles.total_calls
        return setting, result, calls

    def query(self, i: int) -> Outcome:
        values, covered, fingerprints, total_calls = [], [], [], 0
        per_op = self.queries_per_operation
        for j in range(per_op * i, per_op * (i + 1)):
            setting, result, calls = self._run(j)
            truths = self.truths[setting]
            for group, group_result in result.group_results.items():
                values.append(((setting, group), group_result.estimate, truths[group]))
                half = plugin_halfwidth(group_result)
                covered.append(abs(group_result.estimate - truths[group]) <= half)
            fingerprints.append(
                result_fingerprint(None, None, result.oracle_calls, result.estimates()))
            total_calls += calls
        return Outcome(
            fingerprint=repr(fingerprints),
            oracle_calls=total_calls,
            budget=per_op // 2 * sum(self.budgets.values()),
            values=values,
            covered=covered,
        )

    def check(self) -> List[str]:
        """run_groupby_* == the GROUP BY query text through execute_query."""
        failures = []
        for i in range(self.checked):
            setting, result, calls = self._run(i)
            workload = self.scenarios[setting]
            binding = GroupBinding(
                groups=workload.groups, proxies=workload.proxies,
                group_key_oracle=workload.make_single_oracle() if setting == "single" else None,
                per_group_oracles=workload.make_per_group_oracles() if setting == "multi" else None,
            )
            context = QueryContext(workload.num_records)
            context.register_statistic("value", workload.statistic_values)
            context.register_groupby("category", binding)
            groups = ", ".join(f"'{g}'" for g in workload.groups)
            served = execute_query(
                f"SELECT AVG(value(r)) FROM data WHERE category IN ({groups}) "
                f"GROUP BY category ORACLE LIMIT {self.budgets[setting]} "
                "USING proxy WITH PROBABILITY 0.95",
                context, rng=query_rng(self.seed, i),
                num_strata=NUM_STRATA, config=CONFIG,
            )
            served_calls = (binding.group_key_oracle.num_calls if setting == "single"
                            else binding.per_group_oracles.total_calls)
            if result_fingerprint(None, None, served.oracle_calls, served.group_values) != (
                result_fingerprint(None, None, result.oracle_calls, result.estimates())
            ):
                failures.append(f"groupby query {i}: execute_query differs from {setting} run")
            if served_calls != calls:
                failures.append(f"groupby query {i}: oracle calls {served_calls} != {calls}")
        return failures


# ---------------------------------------------------------------------------
# serve_open: many tenants' small CI queries offered at fixed rates
# ---------------------------------------------------------------------------


@dataclass
class Rung:
    """One offered rate of the ladder and what it measured."""

    rate: float
    scheduled: int
    outcomes: List[Outcome]
    # Refused, failed or degraded queries, and queries over their budget.
    failures: List[str]
    failed: Set[int]
    lags_s: List[float]
    backlog: List[int]
    # Time spent in submit and step calls: the service's own work.
    busy_s: float
    first_due: float
    last_finish: float


class ServeOpen:
    """Queries from several tenants offered to one ``AQPService``."""

    loop = "open"
    checked = 8
    tenants = ("t0", "t1", "t2", "t3")

    def __init__(self, seed: int, smoke: bool = False, *, workdir: Path):
        self.seed = seed
        self.size = 50_000 if smoke else 100_000
        self.budget = 400
        self.num_bootstrap = 50
        self.chunk_size = 4_096 if smoke else 8_192
        self.resident_chunks = 8
        self.workdir = workdir

    def text(self) -> str:
        return (
            f"SELECT AVG(stat) FROM frames WHERE match(r) = 'yes' "
            f"ORACLE LIMIT {self.budget} USING p WITH PROBABILITY 0.95"
        )

    def setup(self) -> None:
        clear_stratification_cache()
        scenario = make_dataset("night-street", seed=derive_seed(self.seed, 0), size=self.size)
        self.truth = scenario.ground_truth()
        self.backend = to_backend(
            scenario, kind="chunked", path=self.workdir / "data",
            chunk_size=self.chunk_size, max_resident_chunks=self.resident_chunks,
            overwrite=True,
        )
        self.oracle = LabelColumnOracle(self.backend.column("label"))
        self.context = QueryContext.from_backend(self.backend)
        self.context.register_statistic("stat", "statistic")
        self.context.register_predicate("match", self.oracle, "proxy_score")
        self.solo(-1)  # warm-up: stratify the proxy once

    def service(self, name: str, quota: int) -> AQPService:
        # The journal pickles and writes every record but does not fsync:
        # on a shared disk the fsync latency moved the latency medians by
        # up to half between runs, which measures the disk, not the program.
        admission = AdmissionController()
        for tenant in self.tenants:
            admission.set_policy(tenant, oracle_quota=quota, max_concurrent=1_000)
        journal_dir = self.workdir / name
        shutil.rmtree(journal_dir, ignore_errors=True)
        return AQPService(
            admission=admission,
            shared_cache=SharedOracleCache(),
            journal=ServiceJournal(journal_dir, fsync=False),
            clock=time.perf_counter,
        )

    def submit(self, service: AQPService, i: int):
        return service.submit_query(
            self.text(), self.context, tenant=self.tenants[i % len(self.tenants)],
            rng=query_rng(self.seed, i), num_strata=NUM_STRATA, num_bootstrap=self.num_bootstrap,
            config=CONFIG,
        )

    def solo(self, i: int):
        return execute_query(
            self.text(), self.context, rng=query_rng(self.seed, i), num_strata=NUM_STRATA,
            num_bootstrap=self.num_bootstrap, config=CONFIG,
        )

    def outcome(self, result) -> Outcome:
        return Outcome(
            fingerprint=result_fingerprint(result.value, result.ci, result.oracle_calls),
            oracle_calls=result.oracle_calls,
            budget=self.budget,
            values=[(0, result.value, self.truth)],
            covered=[result.ci.lower <= self.truth <= result.ci.upper],
        )

    def check(self) -> List[str]:
        """Concurrently served answers == solo ``execute_query``, bit for bit."""
        service = self.service("check-journal", quota=10 * self.checked * self.budget)
        handles = [self.submit(service, i) for i in range(self.checked)]
        service.run_until_complete()
        service.journal.close()
        failures = []
        for i, handle in enumerate(handles):
            served = self.outcome(handle.result()).fingerprint
            if served != self.outcome(self.solo(i)).fingerprint:
                failures.append(f"serve_open query {i}: served result differs from solo")
        return failures

    def run_ladder(self, seconds: float, name: str, tracer=None,
                   ladder=tuple(zip(LADDER_QPS, LADDER_SHARE))):
        """Offer the ladder's rates in turn, each on a fixed schedule.

        ``ladder`` holds (rate, share of ``seconds``) pairs.  The service
        drains between rungs, so a rung's backlog never spills into the
        next one.
        """
        counts = [max(20, round(rate * share * seconds)) for rate, share in ladder]
        service = self.service(name, quota=2 * sum(counts) * self.budget)
        handles = {}
        rungs = []
        clock = time.perf_counter
        for k, (rate, _) in enumerate(ladder):
            per_rung, offset = counts[k], sum(counts[:k])
            start = clock()
            due, began, first_seen, finished = {}, {}, {}, {}
            lags, backlog, failures, failed = [], [], [], set()
            busy = 0.0
            submitted = 0
            while submitted < per_rung or service.live_queries:
                now = clock()
                if submitted < per_rung and now >= start + submitted / rate:
                    i = offset + submitted
                    due[i] = start + submitted / rate
                    lags.append(now - due[i])
                    submitted += 1
                    if tracer is not None:
                        tracer.qid = i
                    try:
                        handles[i] = self.submit(service, i)
                    except AdmissionError as exc:
                        failures.append(f"query {i} refused: {exc}")
                        failed.add(i)
                        continue
                    finally:
                        if tracer is not None:
                            tracer.qid = None
                        busy += clock() - now
                    began[handles[i].task_id] = now
                    backlog.append(service.live_queries)
                    continue
                if service.live_queries:
                    task = service.step()
                    busy += clock() - now
                    if task is None:
                        continue
                    if task.first_estimate_at is not None and task.task_id not in first_seen:
                        first_seen[task.task_id] = task.first_estimate_at
                    if not task.live:
                        finished[task.task_id] = clock()
                else:
                    # Spin, not sleep, until the next query is due: a process
                    # that sleeps gives up its core, and on a shared host the
                    # wake-up and the caches other tenants filled meanwhile
                    # added a varying cost to the next query.
                    while clock() < start + submitted / rate:
                        pass
            outcomes = []
            for i in range(offset, offset + per_rung):
                if i in failed:
                    continue
                handle = handles[i]
                try:
                    result = handle.result()
                except Exception as exc:  # a failed query is counted, not fatal
                    failures.append(f"query {i} failed: {exc!r}")
                    failed.add(i)
                    continue
                if handle.status == QueryStatus.DEGRADED:
                    failures.append(f"query {i} degraded: {result.reason}")
                    failed.add(i)
                    continue
                out = self.outcome(result)
                if out.oracle_calls != self.budget:
                    failures.append(f"query {i} labeled {out.oracle_calls} records, "
                                    f"budget {self.budget}")
                    failed.add(i)
                task_id = handle.task_id
                out.qid = i
                out.due_s = due[i]
                out.latency_s = finished[task_id] - due[i]
                out.ttfe_s = first_seen[task_id] - due[i]
                out.wall_s = finished[task_id] - began[task_id]
                outcomes.append(out)
            rungs.append(Rung(rate, per_rung, outcomes, failures, failed, lags, backlog,
                              busy, start, max(finished.values(), default=clock())))
        service.journal.close()
        journal_bytes = sum(p.stat().st_size for p in (self.workdir / name).glob("*.wal"))
        return rungs, handles, service, journal_bytes


WORKLOADS: Dict[str, type] = {
    "abae_ci": AbaeCI,
    "proxy_combo": ProxyCombo,
    "groupby": GroupBy,
    "serve_open": ServeOpen,
}
