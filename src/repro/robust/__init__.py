"""Robustness layer: validation, numerical guards, faults, degradation.

The flow stack's defensive perimeter.  Four parts:

* :mod:`repro.robust.validate` -- pre-flight lint passes over netlists
  and libraries returning structured :class:`Diagnostic` records;
* :mod:`repro.robust.guards` -- convergence and NaN/Inf guards around
  the iterative solvers (period solving, sizing), switched by name in
  the import-free :mod:`repro.robust.switches`;
* :mod:`repro.robust.faults` -- a deterministic fault-injection harness
  backing ``repro-gap selftest`` and the error-path test suite,
  including process-level sweep chaos (:class:`SweepChaos`);
* :mod:`repro.robust.retry` -- the per-task retry/timeout/quarantine
  policy the fault-tolerant sweep supervisor runs under;
* :mod:`repro.robust.degrade` -- stage-level failure capture so flows
  run under ``on_error="keep_going"`` return partial results with
  diagnostics instead of aborting.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.robust.degrade": (
        "ON_ERROR_POLICIES", "StageRunner", "fallback_timing",
    ),
    "repro.robust.faults": (
        "FaultInjectionError", "FaultInjector", "FaultReport", "SweepChaos",
        "maybe_trip", "run_chaos_selftest", "run_selftest",
    ),
    "repro.robust.retry": (
        "RetryError", "RetryPolicy", "TaskFailure", "attempt_seed",
        "is_task_failure",
    ),
    "repro.robust.guards": (
        "NonFiniteError", "ensure_finite", "guarded_size_for_speed",
        "guarded_solve_min_period",
    ),
    "repro.robust.switches": (
        "GuardError", "disable_guard", "enable_all_guards", "guard_enabled",
    ),
    "repro.robust.validate": (
        "Diagnostic", "Severity", "ValidationError", "has_errors", "preflight",
        "require_clean", "validate_library", "validate_module",
    ),
})
