#!/usr/bin/env python3
"""ABae end-to-end benchmark: run one workload, check it, print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload abae_ci --seed 1 --seconds 20 --trace 0

Each run builds the workload's inputs from ``--seed`` (set-up is repeated
and its median reported), checks the library's outputs against solo runs
before any timing, then measures for ``--seconds``.  ``--trace 0`` prints
every end-to-end metric; ``--trace 1`` runs the workload twice — untraced,
then with every layer boundary wrapped (see ``layers.py``) — and prints
the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object; the exit code is non-zero when an
output check fails.  See ``README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every metric's unit, as BENCHMARK.json declares it.
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_REPEATS = 9
# Untimed operation before each measured phase, as a share of --seconds.
WARMUP_SHARE = 0.125
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
# The open loop's latency tails are taken per block of this many queries
# in due-time order, and the median over the blocks is reported.
TAIL_BLOCK = 42
# A rung's backlog grows when this share of its queries is still live as
# its last query arrives.
BACKLOG_SHARE = 0.25


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= p <= 100)."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values):
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it (the maximum when there are too few samples)."""
    n = len(values)
    eligible = [p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND]
    p = max(eligible) if eligible else 100.0
    return p, percentile(values, p)


def block_tail(values, size: int):
    """(percentile, value, blocks): ``tail`` of each run of ``size``
    consecutive values (any remainder left out) and the median of those
    tails.  Fewer than ``size`` values make one block of them all."""
    blocks = max(1, len(values) // size)
    size = len(values) // blocks
    tails = [tail(values[k * size:(k + 1) * size]) for k in range(blocks)]
    return tails[0][0], statistics.median(value for _, value in tails), blocks


def failure_upper_bound(failed: int, attempted: int) -> float:
    """One-sided 95% Clopper-Pearson upper bound on the failure probability.

    With no failures it is ``1 - 0.05 ** (1 / attempted)``
    (about ``3 / attempted``): the failure rate the run can vouch for,
    which stays above zero and rises sharply with the first failure.
    """
    if failed >= attempted:
        return 1.0
    lo, hi = failed / attempted, 1.0
    for _ in range(200):  # bisection on the binomial tail P(X <= failed)
        mid = (lo + hi) / 2.0
        cdf = sum(math.comb(attempted, k) * mid**k * (1.0 - mid) ** (attempted - k)
                  for k in range(failed + 1))
        lo, hi = (mid, hi) if cdf > 0.05 else (lo, mid)
    return hi


def rel_rmse(outcomes) -> float:
    """Relative RMSE against the truth, the worst over the answer series."""
    series = {}
    for outcome in outcomes:
        for key, estimate, truth in outcome.values:
            series.setdefault(key, []).append(((estimate - truth) / truth) ** 2)
    return max(math.sqrt(statistics.fmean(errors)) for errors in series.values())


def coverage(outcomes) -> float:
    covered = [c for outcome in outcomes for c in outcome.covered]
    return sum(covered) / len(covered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Measurement loops
# ---------------------------------------------------------------------------


class Run:
    """What one measured phase produced: the outcomes, the failure
    messages and the ids of the operations that failed."""

    def __init__(self, outcomes, elapsed_s, failures, failed, extra):
        self.outcomes = outcomes
        self.elapsed_s = elapsed_s
        self.failures = failures
        self.failed = failed
        self.extra = extra


def closed_loop(workload, seconds: float, min_queries: int, tracer=None) -> Run:
    """One client: the next operation starts when the previous returns."""
    outcomes, failures, failed = [], [], set()
    start = time.perf_counter()
    i = 0
    while i < min_queries or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.qid = i
        began = time.perf_counter()
        try:
            outcome = workload.query(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"query {i} raised {exc!r}")
            failed.add(i)
            outcome = None
        finally:
            if tracer is not None:
                tracer.qid = None
        if outcome is not None:
            outcome.qid = i
            outcome.latency_s = outcome.ttfe_s = time.perf_counter() - began
            outcome.wall_s = outcome.latency_s
            if outcome.oracle_calls != outcome.budget:
                failures.append(f"query {i} labeled {outcome.oracle_calls} records, "
                                f"budget {outcome.budget}")
                failed.add(i)
            outcomes.append(outcome)
        i += 1
    return Run(outcomes, time.perf_counter() - start, failures, failed, {"attempted": i})


def open_loop(workload, seconds: float, name: str, tracer=None) -> Run:
    """The offered-rate ladder of ``workloads.LADDER_QPS``."""
    rungs, handles, service, journal_bytes = workload.run_ladder(seconds, name, tracer)
    outcomes = [o for rung in rungs for o in rung.outcomes]
    elapsed = rungs[-1].last_finish - rungs[0].first_due
    failures = [f for rung in rungs for f in rung.failures]
    failed = set().union(*(rung.failed for rung in rungs))
    return Run(outcomes, elapsed, failures, failed, {
        "attempted": sum(rung.scheduled for rung in rungs), "rungs": rungs,
        "service": service, "handles": handles, "journal_bytes": journal_bytes,
    })


def verify_served(workload, run) -> None:
    """Re-run a spread sample of served queries solo; answers must match."""
    answered = [o.qid for o in run.outcomes]
    for i in answered[:: max(1, len(answered) // workload.checked)]:
        served = workload.outcome(run.extra["handles"][i].result()).fingerprint
        if served != workload.outcome(workload.solo(i)).fingerprint:
            run.failures.append(f"served query {i} differs from solo execute_query")
            run.failed.add(i)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def latency_outcomes(workload, run):
    """The outcomes whose latency is reported: below-capacity rungs only."""
    if workload.loop == "closed":
        return run.outcomes
    from perfbench.workloads import REFERENCE_QPS

    return [o for rung in run.extra["rungs"] if rung.rate <= REFERENCE_QPS
            for o in rung.outcomes]


def max_rate(workload, run, notes) -> float:
    """Closed loop: the client's own rate.  Open loop: the achieved rate of
    the highest rung that meets the TTFE limit with no growing backlog and
    no refused or failed query."""
    if workload.loop == "closed":
        return len(run.outcomes) / run.elapsed_s
    from perfbench.workloads import TTFE_LIMIT_MS

    best = 0.0
    for rung in run.extra["rungs"]:
        ttfes = [o.ttfe_s * 1e3 for o in rung.outcomes]
        p, ttfe_tail = tail(ttfes) if ttfes else (100.0, math.inf)
        # Above capacity the backlog grows for as long as queries arrive; a
        # stall below capacity leaves a backlog that drains before the end.
        growing = bool(rung.backlog) and rung.backlog[-1] >= BACKLOG_SHARE * len(rung.backlog)
        ok = ttfe_tail <= TTFE_LIMIT_MS and not growing and not rung.failed
        notes.append(f"rung {rung.rate:g} qps: achieved {achieved_rate(rung):.1f} qps, "
                     f"ttfe p{p:g} {ttfe_tail:.1f} ms, backlog max {max(rung.backlog, default=0)}"
                     f"{' (growing)' if growing else ''}, {len(rung.failed)} failed -> "
                     f"{'meets' if ok else 'misses'} the {TTFE_LIMIT_MS:g} ms limit")
        if ok:
            best = achieved_rate(rung)
    return best


def achieved_rate(rung) -> float:
    """Queries a rung completed per second, from its first due time to its
    last completion.  On the top rung, offered above capacity, the service
    runs flat out, so this is its capacity."""
    return len(rung.outcomes) / (rung.last_finish - rung.first_due)


def failed_frac(workload, run) -> float:
    """Failure share over a fixed set of operations: the output checks
    plus the first ``accuracy_queries`` closed-loop operations, or the
    output checks plus the open loop's whole schedule.  A fixed count keeps
    throughput from moving the metric; a failure anywhere also makes the
    run incorrect."""
    if workload.loop == "closed":
        fixed = workload.accuracy_queries
        failed = sum(1 for i in run.failed if i < fixed)
    else:
        fixed = run.extra["attempted"]
        failed = len(run.failed)
    return failure_upper_bound(failed, fixed + workload.checked)


def end_to_end(workload, run, setup_times, notes) -> dict:
    measured = latency_outcomes(workload, run)
    latencies = [o.latency_s * 1e3 for o in measured]
    ttfes = [o.ttfe_s * 1e3 for o in measured]
    # A closed loop's tail is over all its operations.  The open loop's is
    # the median over blocks of queries: a slow spell of the host then
    # moves one block's tail, not the reported one.
    size = len(measured) if workload.loop == "closed" else TAIL_BLOCK
    lat_p, lat_tail, blocks = block_tail(latencies, size)
    ttfe_p, ttfe_tail, _ = block_tail(ttfes, size)
    notes.append(f"latency_tail_ms is p{lat_p:g} and ttfe_tail_ms p{ttfe_p:g}, median over "
                 f"{blocks} block(s) of {len(measured) // blocks} of {len(measured)} queries")
    if workload.loop == "closed":
        # Accuracy over a fixed count of operations, so it repeats exactly.
        quality = run.outcomes[: workload.accuracy_queries]
        calls_per_query = statistics.fmean(o.oracle_calls for o in quality)
        throughput = len(run.outcomes) / run.elapsed_s
    else:
        quality = run.outcomes
        stats = run.extra["service"].shared_cache.stats()
        calls_per_query = stats.misses / len(run.outcomes)
        # Queries per second of the service's own work (submit and step
        # calls), so the fixed schedule's idle time does not set it.
        busy_s = sum(rung.busy_s for rung in run.extra["rungs"])
        throughput = len(run.outcomes) / busy_s
        notes.append(f"queries_per_s is {len(run.outcomes)} queries over {busy_s:.2f} s "
                     "of submit and step calls")
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_tail_ms": lat_tail,
        "queries_per_s": throughput,
        "ttfe_p50_ms": percentile(ttfes, 50),
        "ttfe_tail_ms": ttfe_tail,
        "max_rate_qps": max_rate(workload, run, notes),
        "failed_frac": failed_frac(workload, run),
        "oracle_calls_per_query": calls_per_query,
        "rel_rmse": rel_rmse(quality),
        "ci_coverage": coverage(quality),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(workload, run, tracer, baseline_p50_ms, strat, chunks) -> dict:
    """Per-query layer metrics from the traced phase's spans and counters."""
    from repro.core.stratification import stratification_cache_info

    queries = len(run.outcomes)
    layer = tracer.layer_self_ms()
    counters = tracer.counters

    def per_query(value):
        return value / queries

    def count(name):
        return sum(1 for span in tracer.spans if span.name == name)

    strat_now = stratification_cache_info()
    lookups = (strat_now["hits"] - strat["hits"]) + (strat_now["misses"] - strat["misses"])
    metrics = {
        "query.plan_ms": per_query(layer.get("query", 0.0)),
        "stratify.ms": per_query(layer.get("stratify", 0.0)),
        "stratify.cache_hit_rate": (strat_now["hits"] - strat["hits"]) / lookups
        if lookups else 0.0,
        "proxy_fit.ms": per_query(layer.get("proxy_fit", 0.0)),
        "proxy_fit.iterations": per_query(counters["proxy_fit.iterations"]),
        "proxy_score.ms": per_query(layer.get("proxy_score", 0.0)),
        "oracle.calls": per_query(counters["oracle.calls"]),
        "oracle.batches": per_query(counters["oracle.batches"]),
        "oracle.ms": per_query(layer.get("oracle", 0.0)),
        "oracle.build_ms": per_query(tracer.name_ms("oracle.build", inclusive=True)),
        "oracle.membership_ms": per_query(tracer.name_ms("oracle.membership", inclusive=True)),
        "allocate.ms": per_query(layer.get("allocate", 0.0)),
        "allocate.minimax_ms": per_query(tracer.name_ms("allocate.minimax")),
        "draw.ms": per_query(layer.get("draw", 0.0)),
        "draw.records": per_query(counters["draw.records"]),
        "estimate.ms": per_query(layer.get("estimate", 0.0)),
        "bootstrap.ms": per_query(layer.get("bootstrap", 0.0)),
        "bootstrap.calls": per_query(count("bootstrap")),
        "bootstrap.resamples": per_query(counters["bootstrap.resamples"]),
        "schedule.self_ms": per_query(layer.get("schedule", 0.0)),
        "schedule.steps": per_query(count("schedule.step")),
        "schedule.queue_wait_ms": 0.0,
        "schedule.backlog_max": 0.0,
        "schedule.capacity_qps": 0.0,
        "admission.ms": per_query(layer.get("admission", 0.0)),
        "admission.refused": per_query(counters["admission.admit.raised"]),
        "cache.hit_rate": 0.0,
        "cache.entries": 0.0,
        "journal.append_ms": per_query(layer.get("journal", 0.0)),
        "journal.appends": per_query(counters["journal.appends"]),
        "journal.bytes_per_query": 0.0,
        "data.chunk_hit_rate": 0.0,
        "data.chunk_loads": 0.0,
        "data.resident_mb": 0.0,
        "loadgen.lag_ms": 0.0,
    }
    if workload.loop == "open":
        rungs = run.extra["rungs"]
        first_step = {}
        for span in tracer.spans:
            if span.name == "schedule.advance" and span.qid not in first_step:
                first_step[span.qid] = span.start / 1e9
        stats = run.extra["service"].shared_cache.stats()
        info = workload.backend.cache_info()
        loads = info["misses"] - chunks["misses"]
        hits = info["hits"] - chunks["hits"]
        metrics.update({
            "schedule.queue_wait_ms": statistics.fmean(
                (first_step[o.qid] - o.due_s) * 1e3 for o in run.outcomes),
            "schedule.backlog_max": float(max(max(r.backlog) for r in rungs)),
            "schedule.capacity_qps": achieved_rate(rungs[-1]),
            "cache.hit_rate": stats.hit_rate,
            "cache.entries": float(stats.entries),
            "journal.bytes_per_query": per_query(run.extra["journal_bytes"]),
            "data.chunk_hit_rate": hits / (hits + loads) if hits + loads else 0.0,
            "data.chunk_loads": per_query(loads),
            "data.resident_mb": info["resident_nbytes"] / 2**20,
            "loadgen.lag_ms": statistics.fmean(lag for r in rungs for lag in r.lags_s) * 1e3,
        })
    # Layer self times of one query never exceed its wall time.
    by_query = tracer.query_self_ms()
    metrics["trace.self_share_max"] = max(
        by_query.get(o.qid, 0.0) / (o.wall_s * 1e3) for o in run.outcomes)
    metrics["trace.overhead_ms"] = (
        percentile([o.latency_s * 1e3 for o in latency_outcomes(workload, run)], 50)
        - baseline_p50_ms)
    return metrics


# ---------------------------------------------------------------------------
# Running one workload
# ---------------------------------------------------------------------------


def warm_up(workload, seconds: float) -> None:
    """Run the operation untimed first, so the process and the machine
    reach a steady state (allocator arenas, page cache, CPU clocks)."""
    if workload.loop == "open":
        from perfbench.workloads import REFERENCE_QPS

        workload.run_ladder(seconds, "warm-up", ladder=((REFERENCE_QPS, 1.0),))
        return
    began = time.perf_counter()
    i = 0
    while time.perf_counter() - began < seconds:
        workload.query(-1000 - i)  # a stream of its own: timed operations are unchanged
        i += 1


def measure(workload, seconds: float, phase: str, tracer=None) -> Run:
    if workload.loop == "closed":
        minimum = 1 if tracer is not None or phase == "untraced" else workload.accuracy_queries
        return closed_loop(workload, seconds, minimum, tracer)
    return open_loop(workload, seconds, phase, tracer)


def run_workload(args, workdir: Path) -> dict:
    from perfbench import layers
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS as CLASSES
    from repro.core.stratification import stratification_cache_info

    cls = CLASSES[args.workload]
    workload = (cls(args.seed, smoke=args.smoke, workdir=workdir)
                if cls.loop == "open" else cls(args.seed, smoke=args.smoke))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - began)
    failures = workload.check()
    checked = workload.checked
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    if failures:
        return {"correct": False, "attempted": checked, "failed": len(failures),
                "metrics": {}}

    warm_up(workload, args.seconds * WARMUP_SHARE)
    notes = []
    if not args.trace:
        run = measure(workload, args.seconds, "timed")
        if workload.loop == "open":
            verify_served(workload, run)
        metrics = end_to_end(workload, run, setup_times, notes)
        failed = len(run.failed)
        attempted = run.extra["attempted"] + checked
    else:
        plain = measure(workload, args.seconds / 2, "untraced")
        plain_p50 = percentile(
            [o.latency_s * 1e3 for o in latency_outcomes(workload, plain)], 50)
        # A fresh set-up, so the traced half starts from the caches the
        # untraced half started from rather than the ones it filled.
        workload.setup()
        warm_up(workload, args.seconds * WARMUP_SHARE)
        tracer = Tracer()
        strat = stratification_cache_info()
        chunks = workload.backend.cache_info() if workload.loop == "open" else None
        layers.install(tracer)
        try:
            run = measure(workload, args.seconds / 2, "traced", tracer)
        finally:
            tracer.restore()
        if workload.loop == "open":
            verify_served(workload, plain)
            verify_served(workload, run)
        metrics = per_layer(workload, run, tracer, plain_p50, strat, chunks)
        # Tracing never touches the random stream: identical answers.
        untraced = {o.qid: o.fingerprint for o in plain.outcomes}
        for o in run.outcomes:
            if untraced.get(o.qid, o.fingerprint) != o.fingerprint:
                run.failures.append(f"traced query {o.qid} differs from the untraced run")
                run.failed.add(o.qid)
        by_query = tracer.query_self_ms()
        for o in run.outcomes:
            if by_query.get(o.qid, 0.0) > o.wall_s * 1e3:
                run.failures.append(f"query {o.qid}'s layer self times exceed its wall time")
                run.failed.add(o.qid)
        failed = len(plain.failed) + len(run.failed)
        attempted = plain.extra["attempted"] + run.extra["attempted"] + checked
        trace_dir = ROOT / ".bench_build" / "perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        notes.append(f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        ranked = sorted(tracer.layer_self_ms().items(), key=lambda kv: -kv[1])
        notes.append("self time per query by layer: " + ", ".join(
            f"{name} {ms / len(run.outcomes):.2f} ms" for name, ms in ranked))
        run.failures.extend(plain.failures)
    for failure in run.failures:
        print(f"FAILED: {failure}")
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {UNITS[name]}")
    return {
        "correct": not run.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {src}; nothing to measure",
              file=sys.stderr)
        return 2
    # One process, no worker threads: keep the BLAS library single-threaded.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro  # noqa: F401  (imported before escalating warnings)

    # The benchmark uses only APIs that stay: a deprecated call is an error.
    warnings.simplefilter("error", DeprecationWarning)
    # Terminated runs still remove their scratch files (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
