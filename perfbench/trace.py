"""Span recorder that times the library's layers from outside the library.

The benchmark never edits ``src/``.  Instead, when a run is traced, it
replaces the library's public entry points with thin timing wrappers —
module functions are rebound in every module that imported them, methods
and classmethods are rebound on their class — exactly the way
``scripts/profile_hotpath.py`` reroutes ``kernel_set``.  Each wrapped call
records one :class:`Span` (name, layer, start, end, parent span, query
id) in memory; :meth:`Tracer.restore` puts every original back.

A layer's *self time* is its span's duration minus the part covered by
its direct children.  Execution is single-threaded, so children never
overlap and the subtraction is exact.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "qid")

    def __init__(self, sid, name, layer, start, parent, qid):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.qid = qid

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


# A hook run after a wrapped call: (tracer, span, args, kwargs, result).
ExitHook = Callable[["Tracer", Span, tuple, dict, object], None]


class Tracer:
    """In-memory spans and counters, plus the patches that produce them."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        # The query the benchmark is working on; spans inherit it.
        self.qid: Optional[int] = None
        # Sessions created for a query, so served steps can be attributed.
        self.session_qids: Dict[int, int] = {}
        self._stack: List[Span] = []
        self._patches: List[tuple] = []

    # -- Recording --------------------------------------------------------------
    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter_ns(), parent, self.qid)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def timed(self, fn: Callable, name: str, layer: str,
              on_exit: Optional[ExitHook] = None,
              qid_of: Optional[Callable[[tuple], Optional[int]]] = None) -> Callable:
        """``fn`` wrapped so every call records one span.

        ``qid_of(args)``, when given, names the query the call works for;
        the span and everything called beneath it are attributed to it.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_qid = tracer.qid
            if qid_of is not None:
                tracer.qid = qid_of(args)
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counters[f"{name}.raised"] += 1
                raise
            finally:
                tracer._close(span)
                tracer.qid = outer_qid
            if on_exit is not None:
                on_exit(tracer, span, args, kwargs, result)
            return result

        return wrapper

    # -- Patching ---------------------------------------------------------------
    def patch_function(self, modules, attr: str, name: str, layer: str,
                       on_exit: Optional[ExitHook] = None) -> None:
        """Rebind module-level function ``attr`` in each of ``modules``.

        The first module is the one defining the function; the others
        imported it by name and hold their own binding, which is why each
        must be patched (function-local imports read the first module).
        """
        original = getattr(modules[0], attr)
        wrapped = self.timed(original, name, layer, on_exit)
        for module in modules:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not the same function")
            self._patches.append((module, attr, original))
            setattr(module, attr, wrapped)

    def patch_method(self, cls, attr: str, name: str, layer: str,
                     on_exit: Optional[ExitHook] = None,
                     qid_of: Optional[Callable[[tuple], Optional[int]]] = None) -> None:
        """Rebind a method (or classmethod) defined on ``cls``."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(
                self.timed(original.__func__, name, layer, on_exit, qid_of)
            )
        else:
            wrapped = self.timed(original, name, layer, on_exit, qid_of)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- Analysis ---------------------------------------------------------------
    def self_ns(self) -> List[int]:
        """Each span's duration minus its direct children's durations."""
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def layer_self_ms(self) -> Dict[str, float]:
        """Total self time per layer, in milliseconds."""
        totals: Dict[str, float] = defaultdict(float)
        for span, ns in zip(self.spans, self.self_ns()):
            totals[span.layer] += ns / 1e6
        return dict(totals)

    def name_ms(self, name: str, inclusive: bool = False) -> float:
        """Total time of spans called ``name`` (self time unless inclusive)."""
        if inclusive:
            return sum(s.end - s.start for s in self.spans if s.name == name) / 1e6
        return sum(
            ns for s, ns in zip(self.spans, self.self_ns()) if s.name == name
        ) / 1e6

    def query_self_ms(self) -> Dict[int, float]:
        """Summed self time of every span attributed to each query."""
        totals: Dict[int, float] = defaultdict(float)
        for span, ns in zip(self.spans, self.self_ns()):
            if span.qid is not None:
                totals[span.qid] += ns / 1e6
        return dict(totals)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
