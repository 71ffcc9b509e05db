"""Which library entry points the traced run wraps, and into which layer.

Layer names follow the package layout: ``query`` (``repro.query``),
``stratify`` (``repro.core.stratification``), ``proxy_fit`` /
``proxy_score`` (``repro.proxy``), ``oracle`` (``repro.oracle``),
``allocate`` (``repro.core.allocation`` and the allocation policies of
``repro.engine.policies``), ``draw`` / ``estimate`` / ``session``
(``repro.engine``), ``bootstrap`` (``repro.core.bootstrap``) and
``schedule`` / ``submit`` / ``admission`` / ``journal`` (``repro.serve``).
"""

from __future__ import annotations

import inspect


def _count(amounts):
    """An exit hook adding ``amount(args, kwargs, result)`` to each counter."""
    def hook(tracer, span, args, kwargs, result):
        for counter, amount in amounts.items():
            tracer.counters[counter] += amount(args, kwargs, result)
    return hook


def install(tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    import repro.core.allocation as allocation
    import repro.core.bootstrap as bootstrap
    import repro.core.groupby as groupby
    import repro.core.proxy_selection as proxy_selection
    import repro.engine.policies as policies
    import repro.oracle.groupkey as groupkey
    import repro.query.executor as executor
    from repro.core.stratification import Stratification
    from repro.engine.pipeline import AllocationPolicy, SamplingPipeline
    from repro.engine.session import SamplingSession
    from repro.oracle.base import Oracle
    from repro.proxy.logistic import LogisticRegression
    from repro.serve.admission import AdmissionController
    from repro.serve.journal import ServiceJournal
    from repro.serve.scheduler import QueryTask
    from repro.serve.service import AQPService

    fn, method = tracer.patch_function, tracer.patch_method

    # query: parse + plan (execute_query) or prepare_query (serving)
    for attr in ("parse_query", "plan_query", "prepare_query"):
        fn([executor], attr, f"query.{attr}", "query")

    # stratification (cache lookups included; misses sort)
    method(Stratification, "by_proxy_quantile", "stratify.by_proxy_quantile", "stratify")
    method(Stratification, "from_scores", "stratify.from_scores", "stratify")

    # proxy fitting and scoring
    method(LogisticRegression, "fit", "proxy_fit", "proxy_fit",
           _count({"proxy_fit.iterations": lambda a, k, r: r.n_iter_}))
    method(LogisticRegression, "predict_proba", "proxy_score", "proxy_score")

    # oracle evaluation (the base class: every concrete oracle's real work;
    # wrapper oracles such as the shared cache reach it only on a miss)
    method(Oracle, "evaluate_batch", "oracle.evaluate_batch", "oracle",
           _count({"oracle.calls": lambda a, k, r: len(a[1]),
                   "oracle.batches": lambda a, k, r: 1}))
    method(Oracle, "__call__", "oracle.call", "oracle",
           _count({"oracle.calls": lambda a, k, r: 1,
                   "oracle.batches": lambda a, k, r: 1}))
    method(groupkey.GroupKeyOracle, "__init__", "oracle.build", "oracle.build")
    method(groupkey.PerGroupOracles, "__init__", "oracle.build", "oracle.build")
    fn([groupkey, groupby], "membership_column", "oracle.membership", "oracle.membership")

    # allocation: the engine's policies and the group-by allocation steps
    for _, cls in inspect.getmembers(policies, inspect.isclass):
        if issubclass(cls, AllocationPolicy) and "next_counts" in cls.__dict__:
            method(cls, "next_counts", f"allocate.{cls.__name__}", "allocate")
    for attr in ("optimal_allocation", "bounded_allocation", "integerize_allocation"):
        modules = [allocation, groupby]
        if getattr(policies, attr, None) is getattr(allocation, attr):
            modules.append(policies)
        fn(modules, attr, f"allocate.{attr}", "allocate")
    for attr in ("solve_minimax_single_oracle", "solve_minimax_multi_oracle"):
        fn([allocation, groupby], attr, "allocate.minimax", "allocate")

    # engine: draws (self time excludes the oracle), finalize, session steps
    method(SamplingPipeline, "draw", "draw", "draw",
           _count({"draw.records": lambda a, k, r: r.num_draws}))
    fn([proxy_selection], "draw_pilot_sample", "draw.pilot", "draw",
       _count({"draw.records": lambda a, k, r: r.indices.shape[0]}))
    method(SamplingPipeline, "finalize", "estimate", "estimate")

    def register_session(t, span, args, kwargs, session):
        if t.qid is not None:
            t.session_qids[id(session)] = t.qid

    method(SamplingPipeline, "session", "session.create", "session", register_session)
    method(SamplingSession, "step", "session.step", "session",
           qid_of=lambda args: tracer.session_qids.get(id(args[0])))

    # bootstrap (the pipeline imports the CI function at call time)
    resamples = _count({"bootstrap.resamples":
                        lambda a, k, r: k.get("num_bootstrap", 1000)})
    fn([bootstrap], "bootstrap_confidence_interval", "bootstrap", "bootstrap", resamples)
    fn([bootstrap, executor], "bootstrap_aggregate_interval", "bootstrap", "bootstrap",
       resamples)

    # serving: scheduler step, per-task advance, submit, admission, journal
    def stepped_query(t, span, args, kwargs, task):
        if task is not None:
            span.qid = t.session_qids.get(id(task.session))

    method(AQPService, "step", "schedule.step", "schedule", stepped_query)
    method(QueryTask, "advance", "schedule.advance", "schedule",
           qid_of=lambda args: tracer.session_qids.get(id(args[0].session)))
    method(AQPService, "submit_query", "submit", "submit")
    method(AdmissionController, "admit", "admission.admit", "admission")
    method(AdmissionController, "settle", "admission.settle", "admission")
    method(ServiceJournal, "append", "journal.append", "journal",
           _count({"journal.appends": lambda a, k, r: 1}))
