"""Stage-level failure capture and graceful degradation for the flows.

Real sign-off flows survive non-convergent stages by reporting
violations and continuing; this module gives the reproduction's flows
the same property.  A :class:`StageRunner` wraps each flow stage:

* under the default ``on_error="raise"`` policy a stage failure is
  re-raised as a :class:`~repro.flows.results.FlowError` carrying the
  stage name and chaining the original exception;
* under ``on_error="keep_going"`` the failure is recorded as a
  :class:`~repro.robust.validate.Diagnostic` (code
  ``"flow.stage_failed"``), the ``robust.stage_failures`` obs counter
  is bumped, and the flow continues on best-effort fallback values
  (unsized netlist, no parasitics, clock-period timing estimate).

The nothing-fails path through a stage is one try/except frame, so the
nominal flow pays effectively nothing for the capture machinery.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro import obs
from repro.cells.library import CellLibrary
from repro.flows.results import FlowError
from repro.netlist.module import Module
from repro.robust.validate import Diagnostic, Severity
from repro.sta.clocking import Clock
from repro.sta.engine import analyze

#: Accepted failure policies for the flows.
ON_ERROR_POLICIES = ("raise", "keep_going")

#: Per-stage fix hints attached to stage-failure diagnostics.
_STAGE_HINTS = {
    "map": "check the workload/library combination",
    "place": "continuing without wire parasitics; placement quality "
             "and wire delays are not reflected in the result",
    "cts": "continuing without fanout buffering",
    "size": "continuing with the unsized netlist; expect a slower "
            "period",
    "sta": "continuing with a clock-period timing estimate; the "
           "frequency numbers are a floor, not a measurement",
    "quote": "continuing with the typical frequency as the quote",
}


class StageRunner:
    """Runs named flow stages under a failure policy.

    Args:
        flow: flow label for messages (``"asic"`` / ``"custom"``).
        on_error: ``"raise"`` (default) or ``"keep_going"``.

    Attributes:
        diagnostics: accumulated findings (stage failures and notes);
            handed to ``FlowResult.diagnostics`` by the flows.
        failed_stages: names of failed stages in run order.
    """

    def __init__(self, flow: str, on_error: str = "raise") -> None:
        if on_error not in ON_ERROR_POLICIES:
            raise FlowError(
                f"unknown on_error policy {on_error!r}; "
                f"known: {list(ON_ERROR_POLICIES)}"
            )
        self.flow = flow
        self.on_error = on_error
        self.diagnostics: list[Diagnostic] = []
        self.failed_stages: list[str] = []

    @property
    def keep_going(self) -> bool:
        return self.on_error == "keep_going"

    def failed(self, stage: str) -> bool:
        """Whether a named stage failed."""
        return stage in self.failed_stages

    def note(self, stage: str, message: str, hint: str = "") -> None:
        """Record a non-fatal warning against a stage."""
        self.diagnostics.append(Diagnostic(
            code="flow.stage_warning",
            severity=Severity.WARNING,
            message=message,
            subject=stage,
            hint=hint,
        ))

    @contextmanager
    def stage(self, name: str, critical: bool = False) -> Iterator[None]:
        """Run one stage body under the failure policy.

        Args:
            name: stage name recorded on failures.
            critical: a stage the flow cannot continue without (map);
                failures always raise, even under ``keep_going``.
        """
        try:
            yield
        except Exception as exc:  # fault-isolation boundary
            self.failed_stages.append(name)
            self.diagnostics.append(Diagnostic(
                code="flow.stage_failed",
                severity=Severity.ERROR,
                message=f"{type(exc).__name__}: {exc}",
                subject=name,
                hint=_STAGE_HINTS.get(name, ""),
            ))
            obs.count("robust.stage_failures", stage=name)
            if self.on_error == "raise" or critical:
                if isinstance(exc, FlowError):
                    if exc.stage is None:
                        exc.stage = name
                    raise
                raise FlowError(
                    f"{self.flow} flow stage {name!r} failed: {exc}",
                    stage=name,
                ) from exc


def fallback_timing(
    module: Module, library: CellLibrary, clock: Clock
) -> tuple[float, float]:
    """Best-effort ``(period_ps, logic_ps)`` after the STA stage failed.

    First retry is a single :func:`analyze` pass without wire
    parasitics (the usual failure mode is corrupted parasitics or
    non-convergence of the period iteration, not the netlist itself);
    if even that fails, fall back to the analysed clock's own period
    with no logic share -- a floor, not a measurement, but enough for
    downstream stages to produce their part of the record.
    """
    try:
        report = analyze(module, library, clock)
        return report.min_period_ps, report.logic_delay_ps
    except Exception:  # fault-isolation boundary
        return clock.period_ps, 0.0
