"""Pluggable implementation-style backends: the ``BACKENDS`` registry.

The paper frames its argument as ASIC vs custom, but the factor
decomposition applies to *any* implementation style.  This module makes
styles first-class: a :class:`Backend` bundles everything the engine,
the sweep runner, the gap analysis and the CLI need to drive one style
-- its stage graph, its option record class and its default technology
-- and ``BACKENDS`` maps style names to registered backends.  Every
style's graph meets the artifact contract of :mod:`repro.flows.stages`,
whose one finalizer turns any completed context into a
:class:`FlowResult`.  :meth:`Backend.options` is the one path from
caller knobs (CLI flags, the gap design point) to an option record.

The built-in styles (``asic``, ``custom``, ``structured``) register
themselves at import time from their own modules; the registry imports
them lazily the first time an actual :class:`Backend` is needed, so
consulting :func:`backend_names` (e.g. to build CLI ``choices``) stays
cheap.  Third-party styles only need to construct a :class:`Backend`
and call :func:`register_backend` before the registry is consulted.

Everything downstream is generic in the style name: stage cache
fingerprints hash ``graph.flow``, the engine's ledger records carry it,
:mod:`repro.flows.sweep` resolves a point's backend from its options
class, and the CLI derives its ``choices`` lists from here.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.flows.options import FlowOptions
from repro.flows.results import FlowError, FlowResult

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps imports light
    from repro.flows.engine import StageGraph
    from repro.tech.process import ProcessTechnology

#: Built-in style name -> defining module.  Imported on first lookup;
#: listed here (not discovered) so :func:`backend_names` can answer
#: without paying for the whole flow stack.
_BUILTIN_MODULES = {
    "asic": "repro.flows.asic_flow",
    "custom": "repro.flows.custom",
    "structured": "repro.flows.structured",
}

#: Style name -> registered backend.  Populated by the style modules'
#: :func:`register_backend` calls.
BACKENDS: dict[str, "Backend"] = {}


@dataclass(frozen=True)
class Backend:
    """Everything needed to run one implementation style.

    Attributes:
        name: style name (must equal ``graph.flow``).
        graph: the style's declarative stage graph.
        options_cls: option record class; sweep points resolve their
            backend from this (see :func:`backend_for_options`).
        default_tech: technology used when the caller passes none.
        description: one-line summary for CLI/help surfaces.
    """

    name: str
    graph: "StageGraph"
    options_cls: type[FlowOptions]
    default_tech: "ProcessTechnology"
    description: str = ""

    def options(self, **knobs) -> FlowOptions:
        """Build this style's option record from the knobs it has.

        ``None`` values and names ``options_cls`` lacks are dropped, so
        one call site can pass every style's knobs (``flow custom
        --poor-library`` ignores the flag) and an unset knob keeps the
        class default (the style's default workload, for one).
        """
        names = {f.name for f in dataclasses.fields(self.options_cls)}
        return self.options_cls(**{
            name: value for name, value in knobs.items()
            if value is not None and name in names
        })

    def gap_options(self, *, bits: int, sizing_moves: int,
                    target_fo4: float | None,
                    on_error: str) -> FlowOptions:
        """The design point the ``gap`` comparison runs this style at."""
        return self.options(bits=bits, sizing_moves=sizing_moves,
                            target_cycle_fo4=target_fo4, on_error=on_error)


def register_backend(backend: Backend) -> Backend:
    """Register a backend under its style name; returns it for reuse.

    Raises:
        FlowError: on a name/graph mismatch or a conflicting duplicate.
    """
    if backend.graph.flow != backend.name:
        raise FlowError(
            f"backend {backend.name!r} wraps a graph named "
            f"{backend.graph.flow!r}; they must match"
        )
    existing = BACKENDS.get(backend.name)
    if existing is not None and existing is not backend:
        raise FlowError(
            f"implementation style {backend.name!r} is already registered"
        )
    BACKENDS[backend.name] = backend
    return backend


def load_builtin_backends() -> None:
    """Import the built-in style modules (idempotent)."""
    for module in _BUILTIN_MODULES.values():
        importlib.import_module(module)


def backend_names() -> list[str]:
    """Registered style names, built-ins first, without forcing imports."""
    names = list(_BUILTIN_MODULES)
    names.extend(name for name in BACKENDS if name not in names)
    return names


def get_backend(name: str) -> Backend:
    """Look up a registered backend by style name.

    Raises:
        FlowError: for unknown styles.
    """
    load_builtin_backends()
    try:
        return BACKENDS[name]
    except KeyError:
        raise FlowError(
            f"unknown implementation style {name!r}; registered: "
            f"{', '.join(backend_names())}"
        ) from None


def backend_for_options(options: FlowOptions) -> Backend:
    """Resolve the backend a sweep point or flow run should use.

    Resolution walks the options record's class MRO so subclasses of a
    registered options class inherit its backend; a plain
    :class:`FlowOptions` record falls back to the ASIC flow, preserving
    the historical sweep contract ("CustomFlowOptions run the custom
    flow, everything else the ASIC flow").

    Raises:
        FlowError: when no registered backend matches.
    """
    load_builtin_backends()
    for cls in type(options).__mro__:
        for backend in BACKENDS.values():
            if backend.options_cls is cls:
                return backend
    if isinstance(options, FlowOptions) and "asic" in BACKENDS:
        return BACKENDS["asic"]
    raise FlowError(
        f"no registered backend for options of type "
        f"{type(options).__name__}"
    )


def registered_stage_names() -> tuple[str, ...]:
    """Union of stage names across every registered graph, in order.

    Drives fault-injection validation (``--inject-fault``) generically
    instead of hardcoding one flow's stage list.
    """
    load_builtin_backends()
    names: list[str] = []
    for backend in BACKENDS.values():
        for stage in backend.graph.stages:
            if stage.name not in names:
                names.append(stage.name)
    return tuple(names)


def run_backend_flow(
    style: str | Backend,
    options: FlowOptions | None = None,
    tech: "ProcessTechnology | None" = None,
    checkpoint: str | None = None,
    resume: bool = False,
    from_stage: str | None = None,
) -> FlowResult:
    """Run any registered style end-to-end through the shared engine.

    The generic entry point behind ``run_asic_flow`` /
    ``run_custom_flow`` / ``run_structured_flow``: stage caching,
    checkpoint/resume, ``keep_going`` degradation and ledger records
    all come from :class:`~repro.flows.engine.FlowEngine`, so a new
    backend gets them by registering, not by reimplementing.

    Args:
        style: style name or an already-resolved :class:`Backend`.
        options: flow knobs (default: the backend's options class with
            its defaults).
        tech: process technology (default: the backend's).
        checkpoint: snapshot the context here after every stage.
        resume: restore completed stages from ``checkpoint``.
        from_stage: with ``resume``, re-run from this stage onward.

    Raises:
        FlowError: for unknown styles/workloads or -- under
            ``on_error="raise"`` -- any stage failure.
    """
    backend = style if isinstance(style, Backend) else get_backend(style)
    if options is None:
        options = backend.options_cls()
    # Deferred: the workload table builds netlists (cells, numpy), which
    # consulting the registry for style names (``--help``) must not load.
    from repro.flows.asic import check_workload
    from repro.flows.engine import FlowEngine
    from repro.flows.stages import finalize

    check_workload(options)
    if tech is None:
        tech = backend.default_tech
    ctx = FlowEngine(backend.graph).run(
        options, tech, checkpoint=checkpoint, resume=resume,
        from_stage=from_stage,
    )
    return finalize(ctx, tech)
