"""Static analysis and runtime race detection for this repository.

Two halves:

* :mod:`repro.lint.engine` + :mod:`repro.lint.rules` — a pluggable AST
  rule engine (:data:`RULES` registry, per-line ``# lint: disable=<rule>``
  suppressions with an unused-suppression check) enforcing the repo's own
  invariants: lock discipline, seeded RNG on golden paths, dtype
  discipline, picklable sweep points, frozen-array integrity,
  registry/README consistency, mutable defaults, ``__all__`` hygiene,
  socket discipline, ``with``-scoped trace spans and unused imports.
* :mod:`repro.lint.locktrace` — a runtime lock-order tracer
  (:class:`LockTracer`) detecting acquisition-order cycles (potential
  deadlocks) and unguarded shared-state access in the live serving stack.

Run it: ``python -m repro.cli check`` (or ``tools/check.py``); tier-1
wiring lives in ``tools/smoke.py``'s ``check`` step and ``tests/lint/``.
"""

from .engine import (
    CheckResult,
    Finding,
    ParsedModule,
    Project,
    RULES,
    Rule,
    UNUSED_SUPPRESSION,
    check_project,
    fix_suppressions,
    load_project,
    register,
)
from . import rules  # noqa: F401  (importing registers the rule set)
from .locktrace import (
    GuardedMapping,
    LockOrderError,
    LockTracer,
    TracedLock,
    UnguardedAccessError,
    instrument_collector,
    instrument_server,
)

__all__ = [
    "CheckResult",
    "Finding",
    "GuardedMapping",
    "LockOrderError",
    "LockTracer",
    "ParsedModule",
    "Project",
    "RULES",
    "Rule",
    "TracedLock",
    "UNUSED_SUPPRESSION",
    "UnguardedAccessError",
    "check_project",
    "fix_suppressions",
    "instrument_collector",
    "instrument_server",
    "load_project",
    "register",
]
