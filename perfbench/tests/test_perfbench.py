"""The benchmark's own tests: smoke-size runs of every workload.

Each test runs ``perfbench/run.py`` in a fresh interpreter, as the
benchmark is meant to be run, with ``--smoke`` inputs and a one-second
measurement.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return completed


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_finishes_with_every_end_to_end_metric(workload):
    metrics = result_of(run_bench(workload, trace=0))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    for name, metric in metrics.items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    metrics = result_of(run_bench(workload, trace=1))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    # A query's layer self times sum to no more than its wall time.
    assert 0.0 < metrics["trace.self_share_max"]["value"] <= 1.0


def test_spans_record_each_query_within_its_wall_time():
    result_of(run_bench("abae_ci", trace=1))
    path = ROOT / ".bench_build" / "perfbench" / "traces" / "abae_ci-seed5.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans and all(s["end"] >= s["start"] for s in spans)
    by_id = {s["sid"]: s for s in spans}
    for span in spans:
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            assert parent["qid"] == span["qid"]


def test_a_second_seed_passes_the_output_checks():
    result_of(run_bench("groupby", trace=0, seed=90210))


def import_perfbench():
    if str(ROOT / "src") not in sys.path:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import run, workloads

    return run, workloads


def test_solo_reference_uses_the_query_alpha():
    # With alpha 0.05 instead of the parser's 1 - 0.95, query 0's CI bound
    # differed from execute_query's by one ulp on this seed.
    _, workloads = import_perfbench()
    workload = workloads.AbaeCI(2009)
    workload.setup()
    assert workload.check() == []


def test_declared_open_loop_settings_match_the_code():
    _, workloads = import_perfbench()

    why = next(w["why"] for w in SPEC["workloads"] if w["name"] == "serve_open")
    assert "/".join(f"{r:g}" for r in workloads.LADDER_QPS) + " qps" in why
    assert f"{workloads.TTFE_LIMIT_MS:g} ms" in why


def test_refused_queries_count_as_failures_and_miss_the_limit(tmp_path):
    run, workloads = import_perfbench()
    workload = workloads.ServeOpen(5, smoke=True, workdir=tmp_path)
    workload.setup()
    make_service = workload.service

    def service(name, quota):
        # Tenant t0 may run one query; its later submissions are refused.
        built = make_service(name, quota)
        built.admission.set_policy("t0", oracle_quota=workload.budget, max_concurrent=1_000)
        return built

    workload.service = service
    rungs, handles, served, _ = workload.run_ladder(1.0, "refusals", ladder=((20.0, 1.0),))
    (rung,) = rungs
    refused = {i for i in range(rung.scheduled) if i % len(workload.tenants) == 0} - {0}
    assert rung.failed == refused
    assert len(rung.outcomes) == rung.scheduled - len(refused)
    measured = run.Run(rung.outcomes, 1.0, rung.failures, rung.failed, {
        "attempted": rung.scheduled, "rungs": rungs, "service": served, "handles": handles})
    notes = []
    assert run.max_rate(workload, measured, notes) == 0.0
    assert "misses" in notes[-1]
    share = run.failed_frac(workload, measured)
    assert share > len(refused) / (rung.scheduled + workload.checked)


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = run_bench("abae_ci", trace=0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
