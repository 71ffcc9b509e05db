"""Simulated expensive oracles.

These stand in for the paper's Mask R-CNN / BERT / human-labeler oracles.
Each reads a hidden ground-truth answer column (dense, or served by a
:mod:`repro.data` dataset backend) or applies a user function; the rest
of the system treats them as opaque and expensive.

Answer columns accept either a raw array or a
:class:`~repro.data.backend.ColumnHandle`: with a handle, per-batch
evaluation *gathers* only the queried records through the backend, so an
oracle over an out-of-core dataset never materializes its column — and
answers (hence accounting logs and sampler fingerprints) are
bit-identical to the dense path.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.clock import sleep as _default_sleep
from repro.data.backend import as_dense, is_column_handle
from repro.oracle.base import PredicateOracle
from repro.oracle.remote import RemoteCallError, RemoteCallTimeout
from repro.stats.rng import RandomState

__all__ = [
    "LabelColumnOracle",
    "ThresholdOracle",
    "CallableOracle",
    "NoisyHumanOracle",
    "SimulatedRemoteOracle",
]


class _BoolColumnSource:
    """A boolean answer column, dense or gathered through a backend handle.

    Shared by the label-reading oracles so handle support lives in one
    place.  The dense path stores the bool array exactly as before; the
    backed path keeps only the handle and gathers per request, converting
    to ``bool`` after the gather (a no-op for ``|b1`` columns) so both
    paths log identical value types.
    """

    __slots__ = ("_handle", "_dense")

    def __init__(self, labels):
        if is_column_handle(labels):
            self._handle = labels
            self._dense = None
        else:
            arr = np.asarray(labels)
            if arr.ndim != 1:
                raise ValueError("labels must be one-dimensional")
            self._handle = None
            self._dense = arr.astype(bool)

    def __len__(self) -> int:
        return len(self._handle) if self._dense is None else self._dense.shape[0]

    def scalar(self, record_index: int) -> bool:
        if self._dense is not None:
            return bool(self._dense[record_index])
        return bool(self._handle.gather(np.array([record_index], dtype=np.int64))[0])

    def batch(self, record_indices) -> np.ndarray:
        idx = np.asarray(record_indices, dtype=np.int64)
        if self._dense is not None:
            return self._dense[idx]
        return self._handle.gather(idx).astype(bool)

    def materialize(self) -> np.ndarray:
        """The full column as a dense bool array (copies for backed columns)."""
        if self._dense is not None:
            return self._dense
        return self._handle.to_numpy().astype(bool)


class LabelColumnOracle(PredicateOracle):
    """Oracle that reveals a precomputed boolean label.

    This models running the expensive DNN ahead of time once, during
    dataset construction, and then charging the query per lookup — exactly
    the structure the paper's experiments use (ground-truth labels come
    from Mask R-CNN / human annotation, but the query algorithm is only
    allowed to see a label after "paying" for it).

    ``labels`` may be a dense array or a dataset-backend column handle
    (e.g. ``backend.column("label")``); with a handle every batch gathers
    only the queried records, keeping out-of-core datasets out of RAM.
    """

    def __init__(
        self,
        labels: Sequence,
        name: str = "label_oracle",
        cost_per_call: float = 1.0,
        keep_log: bool = False,
    ):
        super().__init__(name=name, cost_per_call=cost_per_call, keep_log=keep_log)
        self._source = _BoolColumnSource(labels)

    @property
    def labels(self) -> np.ndarray:
        """The full answer column (materializes backed columns)."""
        return self._source.materialize()

    def _evaluate(self, record_index: int) -> bool:
        return self._source.scalar(record_index)

    def _evaluate_batch(self, record_indices) -> np.ndarray:
        return self._source.batch(record_indices)


class ThresholdOracle(PredicateOracle):
    """Oracle defined as ``value_column[i] > threshold`` (or >=, <, <=, ==).

    Used for predicates like ``count_cars(frame) > 0`` where the ground
    truth is a numeric per-record quantity.  ``values`` may be a dense
    array or a dataset-backend column handle (gathered per batch).
    """

    _OPERATORS = {
        ">": np.greater,
        ">=": np.greater_equal,
        "<": np.less,
        "<=": np.less_equal,
        "==": np.equal,
        "!=": np.not_equal,
    }

    def __init__(
        self,
        values: Sequence[float],
        threshold: float,
        op: str = ">",
        name: str = "threshold_oracle",
        cost_per_call: float = 1.0,
    ):
        super().__init__(name=name, cost_per_call=cost_per_call)
        if op not in self._OPERATORS:
            raise ValueError(
                f"unsupported operator {op!r}; expected one of {sorted(self._OPERATORS)}"
            )
        if is_column_handle(values):
            self._handle = values
            self._values = None
        else:
            self._handle = None
            self._values = np.asarray(values, dtype=float)
        self._threshold = float(threshold)
        self._op_name = op
        self._op = self._OPERATORS[op]

    @property
    def threshold(self) -> float:
        return self._threshold

    def _value_batch(self, idx: np.ndarray) -> np.ndarray:
        if self._values is not None:
            return self._values[idx]
        return np.asarray(self._handle.gather(idx), dtype=float)

    def _evaluate(self, record_index: int) -> bool:
        value = self._value_batch(np.array([record_index], dtype=np.int64))[0]
        return bool(self._op(value, self._threshold))

    def _evaluate_batch(self, record_indices) -> np.ndarray:
        values = self._value_batch(np.asarray(record_indices, dtype=np.int64))
        return self._op(values, self._threshold)


class CallableOracle(PredicateOracle):
    """Oracle wrapping an arbitrary ``record_index -> bool`` function."""

    def __init__(
        self,
        fn: Callable[[int], bool],
        name: str = "callable_oracle",
        cost_per_call: float = 1.0,
    ):
        super().__init__(name=name, cost_per_call=cost_per_call)
        self._fn = fn

    def _evaluate(self, record_index: int) -> bool:
        return bool(self._fn(record_index))


class NoisyHumanOracle(PredicateOracle):
    """A human-labeler oracle with a configurable per-call error rate.

    The red-light predicate in the paper's traffic example is computed by a
    human labeler; humans occasionally mislabel.  The error rate defaults to
    zero (a perfect oracle).  Each record's answer is drawn once and then
    fixed, so repeated queries of the same record are consistent — matching
    how a labelling pipeline would store a single human judgement.
    """

    def __init__(
        self,
        labels: Sequence,
        error_rate: float = 0.0,
        rng: Optional[RandomState] = None,
        name: str = "human_oracle",
        cost_per_call: float = 1.0,
    ):
        super().__init__(name=name, cost_per_call=cost_per_call)
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError(f"error_rate must be in [0, 1], got {error_rate}")
        # The per-record error flips are pre-drawn over the whole column,
        # so this oracle materializes backed columns up front.
        truth = as_dense(labels).astype(bool)
        rng = rng or RandomState(0)
        flips = rng.random(truth.shape[0]) < error_rate
        self._answers = np.where(flips, ~truth, truth)
        self._error_rate = error_rate

    @property
    def error_rate(self) -> float:
        return self._error_rate

    def _evaluate(self, record_index: int) -> bool:
        return bool(self._answers[record_index])

    def _evaluate_batch(self, record_indices) -> np.ndarray:
        return self._answers[np.asarray(record_indices, dtype=np.int64)]


class SimulatedRemoteOracle(PredicateOracle):
    """A label-column oracle behaving like a flaky remote scoring service.

    The paper's oracles are DNN inference services or human labelers: each
    request carries a fixed dispatch overhead plus a per-record service
    time, the caller mostly *waits*, and real deployments add partial
    failure — dropped requests, timeout spikes, rate-limit rejections.
    This oracle reproduces that profile hermetically:

    * **Latency** — ``sleep(per_batch_seconds + per_record_seconds*n)``
      per request (releases the GIL, exactly like a network round-trip or
      a GPU kernel launch).
    * **Failure** — each request may raise
      :class:`~repro.oracle.remote.RemoteCallError` (``failure_rate``) or
      :class:`~repro.oracle.remote.RemoteCallTimeout` (``timeout_rate``),
      drawn from a dedicated ``RandomState(seed)``; or follow an explicit
      per-attempt ``script`` of ``"ok"`` / ``"fail"`` / ``"timeout"``
      outcomes (consumed one per request, then falling back to the rates)
      — the fail-then-succeed shapes retry tests need.

    Failures are decided *before* the latency sleep and the label lookup,
    and raising an oracle's ``_evaluate_batch`` charges nothing (base
    accounting runs only on success) — so however flaky the service, the
    answers any caller eventually receives, and all cost accounting, are
    bit-identical to a zero-failure run.  Only time changes.  That makes
    this the honest workload for the retry/timeout machinery of
    :class:`~repro.oracle.remote.RemoteEndpoint` and for measuring the
    batched / parallel / cooperative execution engines.
    """

    def __init__(
        self,
        labels: Sequence,
        *,
        per_record_seconds: float = 0.0,
        per_batch_seconds: float = 0.0,
        failure_rate: float = 0.0,
        timeout_rate: float = 0.0,
        script: Optional[Sequence[str]] = None,
        seed: int = 0,
        name: str = "remote_oracle",
        cost_per_call: float = 1.0,
        sleep: Callable[[float], None] = _default_sleep,
    ):
        super().__init__(name=name, cost_per_call=cost_per_call)
        if per_record_seconds < 0 or per_batch_seconds < 0:
            raise ValueError("latencies must be non-negative")
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError(f"failure_rate must be in [0, 1], got {failure_rate}")
        if not 0.0 <= timeout_rate <= 1.0:
            raise ValueError(f"timeout_rate must be in [0, 1], got {timeout_rate}")
        if failure_rate + timeout_rate > 1.0:
            raise ValueError(
                "failure_rate + timeout_rate must not exceed 1, got "
                f"{failure_rate} + {timeout_rate}"
            )
        self._source = _BoolColumnSource(labels)
        self._per_record_seconds = float(per_record_seconds)
        self._per_batch_seconds = float(per_batch_seconds)
        self._failure_rate = float(failure_rate)
        self._timeout_rate = float(timeout_rate)
        if script is not None:
            script = list(script)
            for outcome in script:
                if outcome not in ("ok", "fail", "timeout"):
                    raise ValueError(
                        f"unknown script outcome {outcome!r}; expected "
                        "'ok', 'fail' or 'timeout'"
                    )
        self._script = script
        self._script_pos = 0
        self._failure_rng = RandomState(seed)
        self._sleep = sleep

    @property
    def labels(self) -> np.ndarray:
        return self._source.materialize()

    @property
    def script_exhausted(self) -> bool:
        """Whether every scripted outcome has been consumed."""
        return self._script is None or self._script_pos >= len(self._script)

    def _maybe_fail(self, batch_size: int) -> None:
        outcome = None
        if self._script is not None and self._script_pos < len(self._script):
            outcome = self._script[self._script_pos]
            self._script_pos += 1
        elif self._failure_rate > 0.0 or self._timeout_rate > 0.0:
            u = float(self._failure_rng.random())
            if u < self._timeout_rate:
                outcome = "timeout"
            elif u < self._timeout_rate + self._failure_rate:
                outcome = "fail"
        if outcome == "timeout":
            raise RemoteCallTimeout(
                f"{self.name}: simulated timeout (batch of {batch_size})"
            )
        if outcome == "fail":
            raise RemoteCallError(
                f"{self.name}: simulated transport failure (batch of {batch_size})"
            )

    def _simulate_latency(self, batch_size: int) -> None:
        delay = self._per_batch_seconds + self._per_record_seconds * batch_size
        if delay > 0:
            self._sleep(delay)

    def _evaluate(self, record_index: int) -> bool:
        self._maybe_fail(1)
        self._simulate_latency(1)
        return self._source.scalar(record_index)

    def _evaluate_batch(self, record_indices) -> np.ndarray:
        idx = np.asarray(record_indices, dtype=np.int64)
        self._maybe_fail(idx.shape[0])
        self._simulate_latency(idx.shape[0])
        return self._source.batch(idx)

