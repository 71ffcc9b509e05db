"""Static and dynamic enforcement of the repo's concurrency and
determinism contracts.

Two halves:

* **repro-lint** (:mod:`repro.analysis.linter` + :mod:`repro.analysis.rules`)
  — an AST invariant checker for the contracts ordinary linters cannot
  see: all randomness through ``repro.stats.rng``, all wall-clock reads
  through ``repro.clock``, guarded state only mutated under its declared
  lock (``@guarded_by``), and ``__all__``/docs consistency.  CLI:
  ``scripts/lint_repro.py``.
* **lockwatch** (:mod:`repro.analysis.lockwatch`) — a runtime
  acquisition-order detector that runs the real serve / remote / chaos
  suites under instrumented locks and raises on lock-order cycles before
  they become production deadlocks.

See docs/STATIC_ANALYSIS.md for the rule catalog and workflow.
"""

from repro.analysis.annotations import guard_module_globals, guarded_by
from repro.analysis.linter import (
    FileContext,
    Finding,
    LintEngine,
    Project,
    Rule,
    default_rules,
    findings_to_json,
    lint_tree,
)
from repro.analysis.lockwatch import (
    LockOrderViolation,
    LockWatcher,
    WatchedLock,
    active_watcher,
)

__all__ = [
    "FileContext",
    "Finding",
    "LintEngine",
    "LockOrderViolation",
    "LockWatcher",
    "Project",
    "Rule",
    "WatchedLock",
    "active_watcher",
    "default_rules",
    "findings_to_json",
    "guard_module_globals",
    "guarded_by",
    "lint_tree",
]
