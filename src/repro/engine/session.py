"""Resumable sampling sessions: streaming execution of a pipeline.

A :class:`SamplingSession` is the state machine that actually executes a
:class:`~repro.engine.pipeline.SamplingPipeline`.  It exposes the three
capabilities the monolithic ``run_*`` functions could not:

* **streaming** — :meth:`step` advances one bounded unit of work (one
  stratum's draw, or one allocation decision) and
  :meth:`partial_estimate` reads the best current estimate between steps
  without perturbing the draw sequence;
* **resumption** — :meth:`checkpoint` serializes the complete execution
  state (samples, pool, RNG, policy) to bytes, and
  :meth:`SamplingPipeline.resume` — via :meth:`restore` — continues in a
  fresh process with fresh (unpicklable) oracles;
* **budget top-ups** — :meth:`add_budget` grows the budget of a finished
  or running session and sampling continues where it stopped.

Determinism: driving a session with ``while session.step(): pass`` and
then :meth:`result` performs *exactly* the same draws against the same
random stream as :meth:`run` — and as the legacy one-shot samplers — so
fingerprints are bit-identical across all three (pinned by
``tests/test_engine_session.py``).
"""

from __future__ import annotations

import pickle
from typing import List, Optional

from repro.core.estimators import estimate_all_strata
from repro.core.results import EstimateResult
from repro.engine.config import ProgressEvent
from repro.engine.pipeline import (
    PipelineState,
    SamplingPipeline,
    _empty_stratum_sample,
)
from repro.oracle.remote import PendingOracleBatch

__all__ = ["SamplingSession", "CheckpointError"]

# Version tag for checkpoint payloads, bumped on layout changes so a stale
# checkpoint fails loudly instead of resuming into corrupt state.
# Version history:
#   1 — initial layout (PR 4).
#   2 — adds the structural-compatibility block ("shape") that restore
#       validates against the fresh pipeline: policy/estimator classes and
#       the stratification shape.  A v1 checkpoint predates the strict
#       validation contract and is rejected rather than trusted blindly.
_CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """A checkpoint that cannot safely resume on the given pipeline.

    Raised by :meth:`SamplingSession.restore` when the payload's version,
    policy/estimator classes or stratification shape do not match the
    freshly-built pipeline — each of which would otherwise let a
    mismatched resume continue silently into corrupt state (wrong draw
    sequence, wrong strata, wrong estimator).  Subclasses ``ValueError``
    so existing ``except ValueError`` guards keep working.
    """


class SamplingSession:
    """Step-driven execution of one sampling pipeline.

    Created by :meth:`SamplingPipeline.session`; not instantiated
    directly.  The session owns the run's mutable state and the draw loop:

    >>> session = pipeline.session(rng)
    >>> while session.step():
    ...     print(session.partial_estimate().estimate)  # streaming reads
    >>> result = session.result()

    which is bit-identical to ``pipeline.run(rng)``.
    """

    def __init__(self, pipeline: SamplingPipeline, state: PipelineState):
        self._pipeline = pipeline
        self._state = state
        self._pending: Optional[List[int]] = None
        self._next_stratum = 0
        self._done = False
        self._result: Optional[EstimateResult] = None
        self._steps = 0
        self._last_step_cost = 0
        # Cooperative remote oracles (AsyncOracle with blocking=False) may
        # raise PendingOracleBatch from a draw; arm the RNG-rewind path
        # only for them so the common case stays snapshot-free.
        oracle = pipeline.oracle
        self._parkable = bool(getattr(oracle, "parkable", False))
        self._step_boundary = (
            getattr(oracle, "step_boundary", None) if self._parkable else None
        )

    # -- Introspection -------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether the policy has declared sampling complete."""
        return self._done

    @property
    def spent(self) -> int:
        """Oracle draws charged so far."""
        return self._state.spent

    @property
    def budget(self) -> int:
        """The session's current total budget (grows via :meth:`add_budget`)."""
        return self._state.budget

    @property
    def state(self) -> PipelineState:
        """The underlying pipeline state (read-only by convention)."""
        return self._state

    @property
    def steps(self) -> int:
        """How many units of work :meth:`step` has executed so far.

        Purely observational (the cooperative serving scheduler uses it
        for per-step cost accounting); it never influences the draw
        sequence.  Carried through checkpoints.
        """
        return self._steps

    @property
    def last_step_cost(self) -> int:
        """Oracle draws charged by the most recent :meth:`step`.

        Allocation steps cost 0; a draw step costs that stratum's draw
        count.  Summed over all steps this equals ``spent`` (minus any
        initial spend the session was primed with).
        """
        return self._last_step_cost

    # -- Stepping ------------------------------------------------------------------
    def step(self) -> bool:
        """Advance one unit of work; ``False`` once sampling is complete.

        A unit is either one allocation decision (the policy plans the
        next round) or one stratum's draw within the current round.  The
        unit boundaries are part of no contract except granularity: the
        sequence of draws and RNG consumption is identical to
        :meth:`run`'s.  Each executed unit advances :attr:`steps` and
        records its oracle-draw cost in :attr:`last_step_cost` — the
        per-step accounting the serving scheduler charges against tenant
        quotas.
        """
        if self._done:
            return False
        state = self._state
        spent_before = state.spent
        if self._pending is None:
            counts = self._pipeline.policy.next_counts(state)
            if counts is None:
                self._done = True
                return False
            counts = [int(c) for c in counts]
            if len(counts) != state.num_strata:
                raise ValueError(
                    f"policy returned {len(counts)} counts for "
                    f"{state.num_strata} strata"
                )
            state.rounds.append(
                [_empty_stratum_sample(k) for k in range(state.num_strata)]
            )
            self._pending = counts
            self._next_stratum = 0
            self._pipeline.config.notify(
                ProgressEvent(
                    phase="allocate",
                    round_index=state.round_index,
                    stratum=None,
                    drawn=0,
                    spent=state.spent,
                    budget=state.budget,
                )
            )
            self._steps += 1
            self._last_step_cost = state.spent - spent_before
            return True
        k = self._next_stratum
        if self._parkable:
            self._draw_parkable(state, k)
        else:
            self._pipeline.draw(state, k, self._pending[k])
        self._next_stratum += 1
        if self._next_stratum >= state.num_strata:
            self._pending = None
            state.round_index += 1
        self._steps += 1
        self._last_step_cost = state.spent - spent_before
        return True

    def _draw_parkable(self, state: PipelineState, k: int) -> None:
        """One stratum draw against a cooperative (parkable) remote oracle.

        If the oracle's batch is still in flight it raises
        :class:`~repro.oracle.remote.PendingOracleBatch` *before* any
        state mutates — only the session RNG was consumed, selecting the
        records to label.  We rewind that and re-raise, so retrying the
        step re-selects the identical records and the draw sequence stays
        bit-for-bit what a blocking run would produce.  After a draw
        completes, the oracle's per-step replay buffer (which bridges
        chunked multi-batch draws across park/retry cycles) is cleared.
        """
        snapshot = state.rng.generator.bit_generator.state
        try:
            self._pipeline.draw(state, k, self._pending[k])
        except PendingOracleBatch:
            state.rng.generator.bit_generator.state = snapshot
            raise
        if self._step_boundary is not None:
            self._step_boundary()

    def run(self) -> EstimateResult:
        """Drive the session to completion and return the finalized result."""
        while self.step():
            pass
        return self.result()

    # -- Results -------------------------------------------------------------------
    def partial_estimate(self) -> EstimateResult:
        """The best current estimate from the samples accumulated so far.

        Never consumes the session RNG (no bootstrap), so streaming reads
        between steps cannot perturb the draw sequence — the final result
        stays bit-identical to an unobserved run.  The returned result
        carries the cumulative per-stratum samples and marks itself
        partial in ``details``.
        """
        state = self._state
        estimates = estimate_all_strata(state.samples)
        return EstimateResult(
            estimate=self._pipeline.estimator.point_estimate(state, estimates),
            ci=state.ci,
            oracle_calls=state.spent,
            strata_estimates=estimates,
            samples=list(state.samples),
            method=self._pipeline.estimator.method,
            details={
                "partial": True,
                "spent": state.spent,
                "budget": state.budget,
                "rounds_completed": state.round_index,
            },
        )

    def result(self) -> EstimateResult:
        """The finalized result (cached; requires the session to be done)."""
        if not self._done:
            raise RuntimeError(
                "session is not finished; drive it with run() or step() "
                "first, or read partial_estimate() for a streaming value"
            )
        if self._result is None:
            self._result = self._pipeline.finalize(self._state)
        return self._result

    # -- Budget top-ups ------------------------------------------------------------
    def add_budget(self, extra: int) -> None:
        """Grow the session's budget and resume sampling where it stopped.

        The allocation policy decides how the extra budget is spent: loop
        policies (sequential, until-width) simply keep iterating under the
        raised ceiling, while the two-stage policy plans one additional
        exploitation round using the current plug-in estimates.  A
        finished session becomes steppable again; its cached result is
        discarded.  Note a topped-up run is *additional* sampling — it is
        not required (or expected) to match a one-shot run at the larger
        budget, which would have allocated differently from the start.
        """
        if extra <= 0:
            raise ValueError(f"extra budget must be positive, got {extra}")
        self._state.budget += int(extra)
        self._pipeline.policy.extend_budget(self._state, int(extra))
        self._done = False
        self._result = None
        # Any CI computed so far covers the pre-top-up samples only; drop
        # it so the next finalize (or, for until-width, the policy's next
        # round boundary) recomputes over everything drawn.
        self._state.ci = None

    # -- Checkpointing -------------------------------------------------------------
    def checkpoint(self) -> bytes:
        """Serialize the complete execution state to bytes.

        The payload carries the samples, pool, RNG, policy and estimator
        state — everything needed to continue — but deliberately *not* the
        oracle, statistic or config: those may hold unpicklable resources
        (model handles, callbacks) and are re-supplied by the pipeline that
        restores the checkpoint.
        """
        state = self._state
        payload = {
            "version": _CHECKPOINT_VERSION,
            # Structural identity of the run, validated on restore so a
            # checkpoint can only resume on a compatible fresh pipeline.
            "shape": _pipeline_shape(self._pipeline, state),
            "state": {
                "stratification": state.stratification,
                "pool": state.pool,
                "rng": state.rng,
                "budget": state.budget,
                "spent": state.spent,
                "samples": state.samples,
                "rounds": state.rounds,
                "round_index": state.round_index,
                "details": state.details,
                "ci": state.ci,
            },
            "policy": self._pipeline.policy,
            "estimator": self._pipeline.estimator,
            "pending": self._pending,
            "next_stratum": self._next_stratum,
            "done": self._done,
            # Observational per-step accounting; optional on restore so v2
            # checkpoints taken before it existed still resume.
            "steps": self._steps,
        }
        return pickle.dumps(payload)

    @classmethod
    def restore(
        cls, pipeline: SamplingPipeline, checkpoint: bytes
    ) -> "SamplingSession":
        """Rebuild a session from :meth:`checkpoint` bytes.

        ``pipeline`` supplies the live (possibly unpicklable) ingredients —
        oracle, statistic, config — and must be freshly built with the same
        logical parameters as the checkpointed run; the checkpoint's
        policy, estimator and state replace the pipeline's own.  Exposed to
        users as :meth:`SamplingPipeline.resume`.

        Raises :class:`CheckpointError` (a ``ValueError``) when the
        checkpoint cannot safely resume on ``pipeline``: an unsupported
        payload version, a policy or estimator of a different class than
        the pipeline's (e.g. a two-stage checkpoint resumed into a
        uniform pipeline), or a stratification shape (strata count /
        record count) that does not match — any of which would silently
        continue into a corrupt draw sequence if allowed through.
        Truncated or garbage bytes (a torn file, a bad journal frame)
        also raise :class:`CheckpointError` — never a raw
        ``pickle``/``EOFError`` — with the byte length and underlying
        error in the message.
        """
        payload = _decode_checkpoint(checkpoint)
        if payload.get("version") != _CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {payload.get('version')!r}; "
                f"expected {_CHECKPOINT_VERSION}.  Checkpoints do not "
                "migrate across engine versions — re-run the sampling "
                "session under the current engine"
            )
        saved = payload["state"]
        _validate_checkpoint_shape(
            payload.get("shape", {}), pipeline, payload["policy"],
            payload["estimator"],
        )
        state = PipelineState(
            pool=saved["pool"],
            rng=saved["rng"],
            budget=saved["budget"],
            stratification=saved["stratification"],
            initial_samples=saved["samples"],
            initial_spent=saved["spent"],
        )
        state.rounds = saved["rounds"]
        state.round_index = saved["round_index"]
        state.details = saved["details"]
        state.ci = saved["ci"]
        pipeline.policy = payload["policy"]
        pipeline.estimator = payload["estimator"]
        session = cls(pipeline, state)
        session._pending = payload["pending"]
        session._next_stratum = payload["next_stratum"]
        session._done = payload["done"]
        session._steps = int(payload.get("steps", 0))
        pipeline._session = session
        return session


def _decode_checkpoint(checkpoint: bytes) -> dict:
    """Unpickle checkpoint bytes defensively.

    Any corruption — truncation mid-stream, bit flips, bytes that were
    never a checkpoint — surfaces as :class:`CheckpointError` with the
    payload length and the decoder's own error, instead of a raw
    ``pickle.UnpicklingError`` / ``EOFError`` / ``AttributeError`` leaking
    from deep inside the pickle machinery.
    """
    if not isinstance(checkpoint, (bytes, bytearray, memoryview)):
        raise CheckpointError(
            f"checkpoint must be bytes, got {type(checkpoint).__name__}"
        )
    data = bytes(checkpoint)
    try:
        payload = pickle.loads(data)
    except Exception as exc:
        raise CheckpointError(
            f"corrupt checkpoint: {len(data)} byte(s) failed to decode "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"corrupt checkpoint: decoded to {type(payload).__name__}, "
            "expected a payload dict"
        )
    missing = [
        key
        for key in ("version", "state", "policy", "estimator", "pending",
                    "next_stratum", "done")
        if key not in payload
    ]
    if missing:
        raise CheckpointError(
            f"corrupt checkpoint: payload is missing key(s) {missing} "
            f"(decoded from {len(data)} byte(s))"
        )
    state = payload["state"]
    if not isinstance(state, dict):
        raise CheckpointError(
            "corrupt checkpoint: 'state' decoded to "
            f"{type(state).__name__}, expected a dict"
        )
    state_missing = [
        key
        for key in ("stratification", "pool", "rng", "budget", "spent",
                    "samples", "rounds", "round_index", "details", "ci")
        if key not in state
    ]
    if state_missing:
        raise CheckpointError(
            f"corrupt checkpoint: state block is missing key(s) "
            f"{state_missing} (decoded from {len(data)} byte(s))"
        )
    return payload


def _class_name(obj) -> str:
    return f"{type(obj).__module__}.{type(obj).__qualname__}"


def _pipeline_shape(pipeline: SamplingPipeline, state: PipelineState) -> dict:
    """The structural identity a checkpoint must match to resume."""
    stratification = state.stratification
    return {
        "policy_class": _class_name(pipeline.policy),
        "estimator_class": _class_name(pipeline.estimator),
        "num_strata": state.pool.num_strata,
        "num_records": (
            None if stratification is None else stratification.num_records
        ),
    }


def _fresh_pipeline_shape(pipeline: SamplingPipeline) -> dict:
    """The same structural identity, read off a freshly-built pipeline."""
    if pipeline.stratification is not None:
        num_strata = pipeline.stratification.num_strata
        num_records = pipeline.stratification.num_records
    else:
        num_strata = len(pipeline._strata)
        num_records = None
    return {
        "policy_class": _class_name(pipeline.policy),
        "estimator_class": _class_name(pipeline.estimator),
        "num_strata": num_strata,
        "num_records": num_records,
    }


def _validate_checkpoint_shape(
    saved_shape: dict, pipeline: SamplingPipeline, policy, estimator
) -> None:
    """Reject checkpoints that structurally mismatch the fresh pipeline.

    The comparison is deliberately two-layered: the *payload's* recorded
    shape (what the checkpointing session believed) and the *unpickled
    objects'* actual classes both have to line up with the fresh
    pipeline, so neither a stale shape block nor a hand-edited payload
    slips through.
    """
    fresh = _fresh_pipeline_shape(pipeline)
    saved_policy = saved_shape.get("policy_class", _class_name(policy))
    if (
        saved_policy != fresh["policy_class"]
        or _class_name(policy) != fresh["policy_class"]
    ):
        raise CheckpointError(
            f"checkpoint was taken with policy {saved_policy}, but the "
            f"pipeline to resume on uses {fresh['policy_class']}; resuming "
            "would continue a different sampler's draw sequence"
        )
    saved_estimator = saved_shape.get("estimator_class", _class_name(estimator))
    if (
        saved_estimator != fresh["estimator_class"]
        or _class_name(estimator) != fresh["estimator_class"]
    ):
        raise CheckpointError(
            f"checkpoint was taken with estimator {saved_estimator}, but "
            f"the pipeline to resume on uses {fresh['estimator_class']}"
        )
    saved_strata = saved_shape.get("num_strata")
    if saved_strata is not None and saved_strata != fresh["num_strata"]:
        raise CheckpointError(
            f"checkpoint stratification has {saved_strata} strata, the "
            f"fresh pipeline has {fresh['num_strata']}; resuming would "
            "draw from the wrong strata"
        )
    saved_records = saved_shape.get("num_records")
    if (
        saved_records is not None
        and fresh["num_records"] is not None
        and saved_records != fresh["num_records"]
    ):
        raise CheckpointError(
            f"checkpoint covers a dataset of {saved_records} records, the "
            f"fresh pipeline one of {fresh['num_records']}"
        )
