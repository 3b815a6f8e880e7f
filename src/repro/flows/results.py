"""Flow result records shared by the ASIC and custom flows."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.tech.process import ProcessTechnology

if TYPE_CHECKING:
    from repro.robust.validate import Diagnostic


class FlowError(ValueError):
    """Raised when a flow cannot complete.

    Attributes:
        stage: the flow stage that failed (``"map"``, ``"place"``,
            ``"cts"``, ``"size"``, ``"sta"``, ``"quote"``), or None when
            the failure is not tied to one stage.  Stage failures chain
            the underlying exception (``raise ... from exc``), so
            tracebacks name both the stage and the root cause.
    """

    def __init__(self, message: str, stage: str | None = None) -> None:
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class StageRecord:
    """Execution record of one engine stage within a flow run.

    Attributes:
        name: stage name.
        status: ``"ok"`` (ran), ``"cached"`` (replayed from the
            fingerprint cache), ``"resumed"`` (restored from a
            checkpoint), ``"failed"`` (degraded under ``keep_going``),
            or ``"skipped"`` (cut off by ``--until``).
        wall_s: wall time the stage took in this run (a cache hit
            reports the replay cost, a resumed stage the wall of the
            run that checkpointed it).
        fingerprint: input fingerprint the stage ran (or would run)
            under; the stage-cache key.
        cpu_s: CPU seconds the stage burned (``time.process_time``
            delta), or None when profiling was off.  Only populated by
            ``obs.profile``; never part of the fingerprint.
        peak_mem_kb: peak traced heap (KiB) inside the stage, or None
            when memory profiling was off.
    """

    name: str
    status: str
    wall_s: float
    fingerprint: str = ""
    cpu_s: float | None = None
    peak_mem_kb: float | None = None

    @property
    def cache_hit(self) -> bool:
        """Whether the stage's work was reused rather than done."""
        return self.status in ("cached", "resumed")

    def to_dict(self) -> dict:
        # Profile fields are emitted only when measured, so with
        # profiling off the serialized form is byte-identical to the
        # pre-profiling schema (goldens, sweep-resume ledgers).
        payload = {
            "name": self.name,
            "status": self.status,
            "wall_s": self.wall_s,
            "cache_hit": self.cache_hit,
            "fingerprint": self.fingerprint,
        }
        if self.cpu_s is not None:
            payload["cpu_s"] = self.cpu_s
        if self.peak_mem_kb is not None:
            payload["peak_mem_kb"] = self.peak_mem_kb
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "StageRecord":
        """Rebuild a stage record from its :meth:`to_dict` form."""
        cpu_s = payload.get("cpu_s")
        peak_mem_kb = payload.get("peak_mem_kb")
        return cls(
            name=str(payload.get("name", "")),
            status=str(payload.get("status", "")),
            wall_s=float(payload.get("wall_s", 0.0)),
            fingerprint=str(payload.get("fingerprint", "")),
            cpu_s=None if cpu_s is None else float(cpu_s),
            peak_mem_kb=(None if peak_mem_kb is None
                         else float(peak_mem_kb)),
        )


@dataclass
class FlowResult:
    """Outcome of one end-to-end implementation flow.

    Attributes:
        name: flow label.
        style: name of the implementation style that produced the
            result -- any key of the backend registry
            (``"asic"``, ``"custom"``, ``"structured"``, ...).
        technology: process the flow targeted.
        library_name: cell library used.
        typical_frequency_mhz: frequency of median silicon (from STA at
            the typical corner).
        quoted_frequency_mhz: the marketable number -- worst-case quote
            for an ASIC, flagship bin for a custom part (Section 8).
        min_period_ps: STA minimum period at the typical corner.
        fo4_depth: cycle depth in FO4 of the flow's technology.
        logic_fo4: combinational portion of the cycle.
        overhead_fraction: non-logic share of the cycle.
        pipeline_stages: stage count implemented.
        gate_count: instances in the final netlist.
        area_um2: total cell area.
        notes: per-stage annotations (placement wirelength, sizing moves,
            domino factor, quote ratios...).
        diagnostics: structured findings collected during the run --
            stage failures captured under ``on_error="keep_going"`` and
            pre-flight validation warnings.  Empty for a clean run.
        stage_records: per-stage execution records (wall time, cache-hit
            status, fingerprint) from the stage-graph engine, in run
            order.
    """

    name: str
    style: str
    technology: ProcessTechnology
    library_name: str
    typical_frequency_mhz: float
    quoted_frequency_mhz: float
    min_period_ps: float
    fo4_depth: float
    logic_fo4: float
    overhead_fraction: float
    pipeline_stages: int
    gate_count: int
    area_um2: float
    notes: dict[str, float] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    stage_records: list[StageRecord] = field(default_factory=list)

    @property
    def quote_factor(self) -> float:
        """Quoted over typical frequency (ASIC < 1, custom flagship > 1)."""
        return self.quoted_frequency_mhz / self.typical_frequency_mhz

    @property
    def degraded(self) -> bool:
        """True when any stage failed and a fallback value was used."""
        return any(d.code == "flow.stage_failed" for d in self.diagnostics)

    def failed_stages(self) -> list[str]:
        """Stages that failed and were skipped/degraded, in run order."""
        return [
            d.subject for d in self.diagnostics
            if d.code == "flow.stage_failed"
        ]

    def to_dict(self) -> dict:
        """JSON-ready form of the result.

        The technology collapses to its name and FO4 delay; everything
        else is the scalar fields plus the notes dict, so traces, metric
        dumps and the CLI's ``--json`` output all share one shape.
        """
        return {
            "name": self.name,
            "style": self.style,
            "technology": self.technology.name,
            "fo4_delay_ps": self.technology.fo4_delay_ps,
            "library_name": self.library_name,
            "typical_frequency_mhz": self.typical_frequency_mhz,
            "quoted_frequency_mhz": self.quoted_frequency_mhz,
            "quote_factor": self.quote_factor,
            "min_period_ps": self.min_period_ps,
            "fo4_depth": self.fo4_depth,
            "logic_fo4": self.logic_fo4,
            "overhead_fraction": self.overhead_fraction,
            "pipeline_stages": self.pipeline_stages,
            "gate_count": self.gate_count,
            "area_um2": self.area_um2,
            "notes": dict(self.notes),
            "degraded": self.degraded,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "stages": [r.to_dict() for r in self.stage_records],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FlowResult":
        """Rebuild a result from its :meth:`to_dict` form.

        The inverse of :meth:`to_dict` up to the technology object,
        which is resolved back through the
        :data:`~repro.tech.process.TECHNOLOGIES` registry by name --
        the same objects every flow run uses, so a replayed result is
        ``==``-comparable (and ``to_dict``-identical) to a freshly
        computed one.  This is what ledger-backed sweep resume rests
        on.

        Raises:
            FlowError: when the payload names an unknown technology.
        """
        from repro.robust.validate import Diagnostic
        from repro.tech.process import get_technology

        tech_name = str(payload.get("technology", ""))
        try:
            technology = get_technology(tech_name)
        except KeyError as exc:
            raise FlowError(
                f"cannot rebuild flow result: {exc.args[0]}"
            ) from None
        return cls(
            name=str(payload.get("name", "")),
            style=str(payload.get("style", "")),
            technology=technology,
            library_name=str(payload.get("library_name", "")),
            typical_frequency_mhz=float(
                payload.get("typical_frequency_mhz", 0.0)
            ),
            quoted_frequency_mhz=float(
                payload.get("quoted_frequency_mhz", 0.0)
            ),
            min_period_ps=float(payload.get("min_period_ps", 0.0)),
            fo4_depth=float(payload.get("fo4_depth", 0.0)),
            logic_fo4=float(payload.get("logic_fo4", 0.0)),
            overhead_fraction=float(
                payload.get("overhead_fraction", 0.0)
            ),
            pipeline_stages=int(payload.get("pipeline_stages", 0)),
            gate_count=int(payload.get("gate_count", 0)),
            area_um2=float(payload.get("area_um2", 0.0)),
            notes=dict(payload.get("notes") or {}),
            diagnostics=[
                Diagnostic.from_dict(d)
                for d in payload.get("diagnostics") or []
            ],
            stage_records=[
                StageRecord.from_dict(s)
                for s in payload.get("stages") or []
            ],
        )

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"{self.name:<24s} {self.style:<7s} "
            f"typ {self.typical_frequency_mhz:7.1f} MHz  "
            f"quote {self.quoted_frequency_mhz:7.1f} MHz  "
            f"{self.fo4_depth:5.1f} FO4 "
            f"({self.pipeline_stages} stages, {self.gate_count} gates)"
        )
