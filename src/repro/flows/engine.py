"""Declarative stage-graph engine behind the implementation flows.

The paper's argument is a *composition of stages* -- microarchitecture,
floorplanning, sizing, circuit style and process variation multiply into
the ASIC/custom gap -- and the flows mirror that: each flow is a
:class:`StageGraph` of first-class :class:`Stage` objects with declared
inputs/outputs over a shared :class:`FlowContext`, and one
:class:`FlowEngine` runs any graph with

* deterministic topological ordering (declaration order breaks ties, and
  a stage that rewrites a key runs after every earlier-declared reader of
  that key, so in-place netlist mutation keeps its sequencing);
* engine-level span instrumentation (``flow.<flow>`` and
  ``flow.<flow>.<stage>`` spans, replacing per-flow obs plumbing);
* engine-level degradation: stage bodies run under a
  :class:`~repro.robust.degrade.StageRunner`, failures become
  diagnostics under ``on_error="keep_going"``, and a failed stage's
  declared ``recover`` hook installs its fallback artifacts;
* per-stage result caching keyed on input fingerprints
  (:mod:`repro.flows.cache`), so sweep points sharing a stage prefix
  replay the prefix from the cache;
* checkpoint/resume: after every completed stage the context is
  snapshotted to an optional checkpoint file, and an interrupted flow
  picks up from the last snapshot (``repro-gap flow --resume``).

Fingerprints chain: a stage's fingerprint hashes its name, the
technology, the option fields it declares as ``params``, and the
fingerprints of whichever stages last wrote its inputs -- so changing a
sizing knob invalidates sizing and everything downstream while the
map/place prefix keeps hitting.
"""

from __future__ import annotations

import pickle
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

import os

from repro import obs
from repro.obs import ledger as run_ledger
from repro.obs import live as obs_live
from repro.obs import profile as obs_profile
from repro.flows import cache as stage_cache
from repro.flows.options import FlowOptions, digest, options_fingerprint
from repro.flows.results import FlowError, StageRecord
from repro.robust.degrade import StageRunner
from repro.robust.faults import maybe_trip
from repro.robust.validate import Diagnostic
from repro.tech.process import ProcessTechnology

#: Fingerprint-scheme version; bump to invalidate every existing cache.
#: Version 2 stores one blob per artifact key (see repro.flows.cache);
#: version 3 entries of ``sta`` hold ``period_ps``/``logic_ps``, not a
#: whole timing report.
FINGERPRINT_VERSION = 3

#: Checkpoint file format version; version 2 snapshots carry the
#: ``period_ps``/``logic_ps`` artifacts of every style's ``sta``.
CHECKPOINT_VERSION = 2


class FlowContext:
    """Typed shared state one flow run threads through its stages.

    Artifacts (netlist, library, parasitics, cycle...) live
    in a key/value store the stages read and write through their
    declared inputs/outputs; ``notes`` is the scalar annotation dict
    that ends up on :class:`~repro.flows.results.FlowResult`.

    Attributes:
        flow: flow label (``"asic"`` / ``"custom"``).
        options: the option record of the run.
        tech: process technology of the run.
        artifacts: named stage products.
        notes: scalar annotations for the result record.
        stage_records: per-stage execution records, in run order.
        diagnostics: structured findings (filled from the stage runner).
        span: the live span of the currently executing stage (engine-set;
            a no-op object when observability is off).
        handover: in-process values one stage passes to a later stage
            of the same run (``size`` hands ``sta`` its propagated
            timing).  Never cached, checkpointed or resumed, so a reader
            must do without them.
        cache: while a stage body runs, the stage cache it may keep its
            own records in (``size`` keeps sizing trajectories, keyed
            through :meth:`stage_key`); None when the stage runs
            uncached (cache off, fault injection, an earlier failure).

    While a stage body runs, reading an artifact it declares neither as
    an input nor as an output raises :class:`FlowError`: an undeclared
    read would escape the stage's fingerprint, and a cache hit would
    replay another design point's result.  Hooks, recover callbacks and
    finalizers run outside a stage and read freely.
    """

    def __init__(self, flow: str, options: FlowOptions,
                 tech: ProcessTechnology) -> None:
        self.flow = flow
        self.options = options
        self.tech = tech
        self.artifacts: dict[str, Any] = {}
        self.notes: dict[str, float] = {}
        self.stage_records: list[StageRecord] = []
        self.diagnostics: list[Diagnostic] = []
        self.span = obs.NOOP_SPAN
        self.handover: dict[str, Any] = {}
        self.cache: stage_cache.StageCache | None = None
        self._runner: StageRunner | None = None
        self._stage: str | None = None
        self._declared: frozenset[str] | None = None
        self._keying: tuple | None = None

    def _check_declared(self, key: str) -> None:
        if self._declared is not None and key not in self._declared:
            raise FlowError(
                f"stage {self._stage!r} reads artifact {key!r} without "
                f"declaring it as an input or output",
                stage=self._stage,
            )

    def __getitem__(self, key: str) -> Any:
        self._check_declared(key)
        try:
            return self.artifacts[key]
        except KeyError:
            stage = f" (stage {self._stage!r})" if self._stage else ""
            raise FlowError(
                f"flow context has no artifact {key!r}{stage}; "
                f"present: {sorted(self.artifacts)}",
                stage=self._stage,
            ) from None

    def __setitem__(self, key: str, value: Any) -> None:
        self.artifacts[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self.artifacts

    def get(self, key: str, default: Any = None) -> Any:
        self._check_declared(key)
        return self.artifacts.get(key, default)

    def stage_key(self, *without: str) -> str:
        """The running stage's fingerprint without the ``without``
        params (set only while :attr:`cache` is)."""
        graph, stage, earlier_fps = self._keying
        upstream = {key: fp for prior, fp in zip(graph.order(), earlier_fps)
                    for key in prior.outputs}
        return stage_fingerprint(graph, stage, self.options, self.tech,
                                 upstream, without=without)

    @property
    def keep_going(self) -> bool:
        """Whether the run degrades through failures instead of raising."""
        return self._runner is not None and self._runner.keep_going

    def note(self, message: str, hint: str = "") -> None:
        """Record a non-fatal warning against the current stage."""
        if self._runner is not None and self._stage is not None:
            self._runner.note(self._stage, message, hint=hint)


@dataclass(frozen=True)
class Stage:
    """One first-class flow stage.

    Attributes:
        name: stage name (span suffix, checkpoint key, CLI argument).
        run: stage body; reads/writes ``ctx`` artifacts and notes, may
            set span attributes through ``ctx.span``.
        inputs: artifact keys the stage reads (dependency edges).
        outputs: artifact keys the stage writes; a key in both inputs
            and outputs marks in-place mutation and sequences the stage
            after earlier-declared readers.
        params: option-field names that feed the stage's fingerprint.
        critical: the flow cannot continue without this stage; failures
            raise even under ``keep_going``.
        cacheable: snapshot the outputs under the input fingerprint.
        recover: fallback installed when the stage fails under
            ``keep_going`` (e.g. clock-period timing after an STA loss).
    """

    name: str
    run: Callable[[FlowContext], None]
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    params: tuple[str, ...] = ()
    critical: bool = False
    cacheable: bool = True
    recover: Callable[[FlowContext], None] | None = None


class StageGraph:
    """A named, declaratively ordered set of stages.

    Args:
        flow: flow label; span names are ``flow.<flow>.<stage>``.
        stages: the stage set, in declaration order (used as the
            deterministic tie-break of the topological order).
        hooks: optional per-stage callbacks ``(ctx, runner) -> None``
            run after the named stage completes (also on cache hits and
            recovered failures) -- the engine-level guard hook, e.g. the
            post-CTS pre-flight lint.
        root_attrs: attributes for the flow-level span.
        summary_attrs: attributes set on the flow-level span at the end.
    """

    def __init__(
        self,
        flow: str,
        stages: Sequence[Stage],
        hooks: Mapping[str, Callable[[FlowContext, StageRunner], None]]
        | None = None,
        root_attrs: Callable[[FlowContext], dict] | None = None,
        summary_attrs: Callable[[FlowContext], dict] | None = None,
    ) -> None:
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise FlowError(f"duplicate stage names in {flow!r} graph: "
                            f"{names}")
        self.flow = flow
        self.stages = tuple(stages)
        self.hooks = dict(hooks or {})
        self.root_attrs = root_attrs or (lambda ctx: {})
        self.summary_attrs = summary_attrs or (lambda ctx: {})
        unknown = set(self.hooks) - set(names)
        if unknown:
            raise FlowError(
                f"hooks reference unknown stages: {sorted(unknown)}"
            )
        self._order = self._topological_order()

    def _edges(self) -> dict[int, set[int]]:
        """Dependency edges between stage declaration indices.

        Producer-before-consumer for every input key, plus
        anti-dependencies: a stage that (re)writes a key runs after the
        key's previous producer and after every earlier-declared reader,
        so in-place mutation cannot leapfrog a reader of the old value.

        A consumer's producer is the last one declared before it; a
        consumer declared ahead of every producer of its key reads the
        first-declared one (the original value -- any rewrite is
        sequenced after it by the reader anti-dependency).  Keys nobody
        produces are external seeds and add no edge.
        """
        edges: dict[int, set[int]] = {i: set() for i in
                                      range(len(self.stages))}
        first_producer: dict[str, int] = {}
        for index, stage in enumerate(self.stages):
            for key in stage.outputs:
                first_producer.setdefault(key, index)
        producer: dict[str, int] = {}
        readers: dict[str, list[int]] = {}
        for index, stage in enumerate(self.stages):
            for key in stage.inputs:
                source = producer.get(key, first_producer.get(key))
                if source is not None and source != index:
                    edges[source].add(index)
            for key in stage.outputs:
                if key in producer and producer[key] != index:
                    edges[producer[key]].add(index)
                if first_producer[key] != index:
                    # A rewriter, not the original producer: earlier
                    # readers see the old value, so they run first.
                    for reader in readers.get(key, ()):
                        if reader != index:
                            edges[reader].add(index)
            for key in stage.inputs:
                readers.setdefault(key, []).append(index)
            for key in stage.outputs:
                producer[key] = index
        for index in edges:
            edges[index].discard(index)
        return edges

    def _topological_order(self) -> tuple[Stage, ...]:
        """Deterministic Kahn ordering; declaration index breaks ties."""
        edges = self._edges()
        indegree = {i: 0 for i in range(len(self.stages))}
        for targets in edges.values():
            for target in targets:
                indegree[target] += 1
        ready = sorted(i for i, deg in indegree.items() if deg == 0)
        order: list[Stage] = []
        while ready:
            index = ready.pop(0)
            order.append(self.stages[index])
            inserted = False
            for target in sorted(edges[index]):
                indegree[target] -= 1
                if indegree[target] == 0:
                    ready.append(target)
                    inserted = True
            if inserted:
                ready.sort()
        if len(order) != len(self.stages):
            stuck = sorted(
                self.stages[i].name for i, deg in indegree.items()
                if deg > 0
            )
            raise FlowError(
                f"stage graph {self.flow!r} has a dependency cycle "
                f"through: {stuck}"
            )
        return tuple(order)

    def order(self) -> tuple[Stage, ...]:
        """Stages in execution order (computed once, deterministic)."""
        return self._order

    def stage_names(self) -> list[str]:
        return [stage.name for stage in self._order]

    def __iter__(self) -> Iterator[Stage]:
        return iter(self._order)

    def get(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise FlowError(
            f"unknown stage {name!r} in {self.flow!r} flow; "
            f"known: {self.stage_names()}"
        )

    def describe(self) -> str:
        """Human-readable table of the graph (``--list-stages``)."""
        lines = [f"{self.flow} flow stages (execution order):"]
        for stage in self._order:
            flags = []
            if stage.critical:
                flags.append("critical")
            if stage.cacheable:
                flags.append("cacheable")
            if stage.recover is not None:
                flags.append("recoverable")
            lines.append(
                f"  {stage.name:<8s} in: {', '.join(stage.inputs) or '-':<32s}"
                f" out: {', '.join(stage.outputs) or '-'}"
            )
            lines.append(
                f"  {'':<8s} params: {', '.join(stage.params) or '-'}"
                f"   [{', '.join(flags) or '-'}]"
            )
        return "\n".join(lines)


def stage_fingerprint(
    graph: StageGraph,
    stage: Stage,
    options: FlowOptions,
    tech: ProcessTechnology,
    key_fingerprints: Mapping[str, str],
    without: tuple[str, ...] = (),
) -> str:
    """Fingerprint of one stage invocation.

    Hashes the stage identity, the technology, the declared option
    params, and -- recursively, through ``key_fingerprints`` -- the
    fingerprints of whichever stages last wrote this stage's inputs.
    An input no stage has produced hashes as an external seed key.
    Params named in ``without`` are left out, and the payload marks
    it, so such a key never equals a stage fingerprint.
    """
    payload = {
        "v": FINGERPRINT_VERSION,
        "flow": graph.flow,
        "stage": stage.name,
        "tech": tech.name,
        "params": {name: getattr(options, name) for name in stage.params
                   if name not in without},
        "upstream": {
            key: key_fingerprints.get(key, f"seed:{key}")
            for key in stage.inputs
        },
    }
    if without:
        payload["without"] = sorted(without)
    return digest(payload)


def graph_fingerprints(
    graph: StageGraph,
    options: FlowOptions,
    tech: ProcessTechnology,
) -> list[str]:
    """Every stage's fingerprint, in execution order, before any runs."""
    key_fingerprints: dict[str, str] = {}
    fingerprints = []
    for stage in graph.order():
        fp = stage_fingerprint(graph, stage, options, tech,
                               key_fingerprints)
        fingerprints.append(fp)
        for key in stage.outputs:
            key_fingerprints[key] = fp
    return fingerprints


@dataclass
class _Snapshot:
    """Post-stage context snapshot stored in a checkpoint file."""

    stage: str
    record: StageRecord
    blob: bytes  # pickle of (artifacts, notes, diagnostics)


@dataclass
class _Checkpoint:
    """On-disk resume state of one flow run."""

    flow: str
    options_fp: str
    snapshots: list[_Snapshot] = field(default_factory=list)

    def stage_names(self) -> list[str]:
        return [snap.stage for snap in self.snapshots]

    def save(self, path: str) -> None:
        payload = {
            "version": CHECKPOINT_VERSION,
            "flow": self.flow,
            "options_fp": self.options_fp,
            "snapshots": self.snapshots,
        }
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp",
            dir=directory,
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str) -> "_Checkpoint":
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError) as exc:
            raise FlowError(
                f"cannot load flow checkpoint {path!r}: {exc}"
            ) from exc
        if payload.get("version") != CHECKPOINT_VERSION:
            raise FlowError(
                f"checkpoint {path!r} has version "
                f"{payload.get('version')!r}; expected "
                f"{CHECKPOINT_VERSION}"
            )
        return cls(
            flow=payload["flow"],
            options_fp=payload["options_fp"],
            snapshots=list(payload["snapshots"]),
        )


def _observe(
    ctx: FlowContext,
    name: str,
    status: str,
    fp: str,
    wall_s: float,
    cpu_s: float | None = None,
    peak_mem_kb: float | None = None,
) -> StageRecord:
    """Record one stage outcome; every per-stage view derives from it.

    The record lands on ``ctx.stage_records`` (and from there in the
    result, the ledger and the checkpoint); the live bus gets one
    ``stage.done`` event carrying the record's fields.  A cache replay
    also bumps ``flows.engine.cache_hits`` and leaves an empty
    ``cached=True`` span, so metric dumps and span trees show the hit.
    """
    record = StageRecord(name=name, status=status, wall_s=wall_s,
                         fingerprint=fp, cpu_s=cpu_s,
                         peak_mem_kb=peak_mem_kb)
    ctx.stage_records.append(record)
    if status == "cached":
        with obs.span(f"flow.{ctx.flow}.{name}", cached=True):
            pass
        obs.count("flows.engine.cache_hits", stage=name)
    if obs_live.enabled():
        attrs = record.to_dict()
        attrs["stage"] = attrs.pop("name")
        obs_live.emit("stage.done", f"flow.{ctx.flow}.{name}",
                      flow=ctx.flow, **attrs)
    return record


class FlowEngine:
    """Runs a :class:`StageGraph` with caching, degradation and resume.

    Args:
        graph: the stage graph to execute.
        cache: stage cache override (None = the process-global cache of
            :mod:`repro.flows.cache`, honouring its enable switch).
    """

    def __init__(self, graph: StageGraph,
                 cache: stage_cache.StageCache | None = None) -> None:
        self.graph = graph
        self._cache = cache

    def _active_cache(self) -> stage_cache.StageCache | None:
        if self._cache is not None:
            return self._cache
        if stage_cache.enabled():
            return stage_cache.get_cache()
        return None

    def run(
        self,
        options: FlowOptions,
        tech: ProcessTechnology,
        checkpoint: str | None = None,
        resume: bool = False,
        from_stage: str | None = None,
        until: str | None = None,
    ) -> FlowContext:
        """Execute the graph and return the final context.

        Args:
            options: flow options (policy fields drive degradation and
                fault injection; the rest drive fingerprints).
            tech: process technology.
            checkpoint: path to snapshot the context to after every
                completed stage (also the resume source).
            resume: restore the longest usable prefix from
                ``checkpoint`` instead of recomputing it.
            from_stage: with ``resume``, re-run from this stage even if
                the checkpoint already covers it.
            until: stop after this stage (later stages are recorded as
                skipped); the partial context is checkpointed, so a
                later ``resume`` completes the flow.

        Raises:
            FlowError: unknown stage names, checkpoint mismatches, or --
                under ``on_error="raise"`` -- any stage failure.
        """
        order = self.graph.order()
        names = [stage.name for stage in order]
        if until is not None and until not in names:
            raise FlowError(f"unknown --until stage {until!r}; "
                            f"known: {names}")
        if from_stage is not None and from_stage not in names:
            raise FlowError(f"unknown --from stage {from_stage!r}; "
                            f"known: {names}")
        if from_stage is not None and not resume:
            raise FlowError("--from requires resuming from a checkpoint")
        if resume and not checkpoint:
            raise FlowError("resume requested without a checkpoint path")

        runner = StageRunner(flow=self.graph.flow, on_error=options.on_error)
        ctx = FlowContext(self.graph.flow, options, tech)
        ctx._runner = runner
        options_fp = options_fingerprint(options)
        state = _Checkpoint(flow=self.graph.flow, options_fp=options_fp)

        completed: list[str] = []
        if resume:
            state = self._load_resume_state(
                checkpoint, options_fp, names, from_stage
            )
            completed = state.stage_names()
            if state.snapshots:
                artifacts, notes, diagnostics = pickle.loads(
                    state.snapshots[-1].blob
                )
                ctx.artifacts.update(artifacts)
                ctx.notes.update(notes)
                runner.diagnostics.extend(diagnostics)

        fps = graph_fingerprints(self.graph, options, tech)
        cache = self._active_cache() if options.fault is None else None
        stop_index = names.index(until) if until is not None else None
        replay: dict[int, tuple[str, ...]] = {}

        run_started = time.perf_counter()
        with obs.span(f"flow.{self.graph.flow}",
                      **self.graph.root_attrs(ctx)) as flow_span:
            for index, stage in enumerate(order):
                fp = fps[index]
                if stage.name in completed:
                    snap = state.snapshots[completed.index(stage.name)]
                    _observe(ctx, stage.name, "resumed", fp,
                             snap.record.wall_s)
                    # Hooks already ran before the snapshot's successor
                    # was written; re-running them would duplicate their
                    # diagnostics.
                    continue
                if stop_index is not None and index > stop_index:
                    _observe(ctx, stage.name, "skipped", fp, 0.0)
                    continue
                obs_live.emit(
                    "stage.start", f"flow.{ctx.flow}.{stage.name}",
                    flow=ctx.flow, stage=stage.name, index=index,
                    total=len(order),
                )
                usable = (cache if stage.cacheable
                          and not runner.failed_stages else None)
                record = None
                if usable is not None:
                    if index not in replay:
                        replay = self._plan_replay(
                            fps, index, stop_index, cache,
                            whole=checkpoint is not None,
                        )
                    record = self._replay(ctx, stage, fp, cache,
                                          replay.get(index))
                    if record is None and index in replay:
                        self._restore_deferred(ctx, cache, fps, replay,
                                               index)
                        replay = {}
                if record is None:
                    record = self._run_stage(ctx, runner, stage, fp,
                                             usable, fps[:index])
                hook = self.graph.hooks.get(stage.name)
                if hook is not None:
                    hook(ctx, runner)
                self._checkpoint(ctx, state, stage, record, checkpoint)
            flow_span.set(**self.graph.summary_attrs(ctx))

        ctx.diagnostics = runner.diagnostics
        # Finalizer hook: every completed engine run leaves one ledger
        # record (a single flag check when recording is off).
        if run_ledger.enabled():
            run_ledger.record(run_ledger.flow_record(
                ctx, tech, wall_s=time.perf_counter() - run_started,
                root_span=flow_span if isinstance(flow_span, obs.Span)
                else None,
            ))
        return ctx

    def _load_resume_state(
        self,
        checkpoint: str,
        options_fp: str,
        names: list[str],
        from_stage: str | None,
    ) -> _Checkpoint:
        state = _Checkpoint.load(checkpoint)
        if state.flow != self.graph.flow:
            raise FlowError(
                f"checkpoint {checkpoint!r} is for flow "
                f"{state.flow!r}, not {self.graph.flow!r}"
            )
        if state.options_fp != options_fp:
            raise FlowError(
                f"checkpoint {checkpoint!r} was written for a different "
                f"design point (options fingerprint {state.options_fp} "
                f"!= {options_fp}); refusing to resume"
            )
        done = state.stage_names()
        if done != names[:len(done)]:
            raise FlowError(
                f"checkpoint stages {done} are not a prefix of the "
                f"graph's order {names}; the graph changed -- re-run "
                "from scratch"
            )
        if from_stage is not None:
            cut = names.index(from_stage)
            state.snapshots = [
                snap for snap in state.snapshots
                if names.index(snap.stage) < cut
            ]
        return state

    def _plan_replay(
        self,
        fps: list[str],
        start: int,
        stop_index: int | None,
        cache: stage_cache.StageCache,
        whole: bool,
    ) -> dict[int, tuple[str, ...]]:
        """The run of cache hits from ``start``, and what each decodes.

        Probes the cache by fingerprint alone, so nothing is decoded to
        find the run.  Maps each stage index of the run to the output
        keys it is the run's last writer of: only those are decoded, so
        a module that map, place and cts replay in a row is unpickled
        once, from cts.  The run ends at ``until``, at a hooked stage
        (its hook reads that stage's artifacts), and -- ``whole``, when
        every stage is checkpointed -- after each stage.
        """
        order = self.graph.order()
        end = len(order) if stop_index is None else stop_index + 1
        run: list[int] = []
        for index in range(start, end):
            stage = order[index]
            if not stage.cacheable or fps[index] not in cache:
                break
            run.append(index)
            if whole or stage.name in self.graph.hooks:
                break
        last = {key: index for index in run for key in order[index].outputs}
        return {
            index: tuple(key for key in order[index].outputs
                         if last[key] == index)
            for index in run
        }

    def _replay(
        self,
        ctx: FlowContext,
        stage: Stage,
        fp: str,
        cache: stage_cache.StageCache,
        keys: tuple[str, ...] | None,
    ) -> StageRecord | None:
        """Replay one stage from the cache (only ``keys``, if planned)."""
        started = time.perf_counter()
        payload = cache.get(fp, keys)
        if payload is None:
            return None
        ctx.artifacts.update(payload["artifacts"])
        ctx.notes.update(payload["notes"])
        return _observe(ctx, stage.name, "cached", fp,
                        time.perf_counter() - started)

    def _restore_deferred(
        self,
        ctx: FlowContext,
        cache: stage_cache.StageCache,
        fps: list[str],
        replay: dict[int, tuple[str, ...]],
        failed: int,
    ) -> None:
        """Re-read the run's earlier hits whole, after an unreadable entry.

        A planned run skips keys that a later stage of the run rewrites.
        When that stage's entry proves unreadable (a corrupt or vanished
        spill blob), the stage must run on the artifacts the earlier
        hits left, so they are decoded again in order, each counting as
        another hit.
        """
        for index in sorted(i for i in replay if i < failed):
            payload = cache.get(fps[index])
            if payload is None:
                raise FlowError(
                    f"stage cache entry of {self.graph.order()[index].name!r}"
                    " became unreadable during a replay",
                    stage=self.graph.order()[failed].name,
                )
            ctx.artifacts.update(payload["artifacts"])

    def _run_stage(
        self,
        ctx: FlowContext,
        runner: StageRunner,
        stage: Stage,
        fp: str,
        cache: stage_cache.StageCache | None,
        earlier_fps: list[str],
    ) -> StageRecord:
        """Run one stage, storing its outputs in ``cache`` if given
        (``earlier_fps``: those of the stages before it, in order)."""
        options = ctx.options
        diagnostics_before = len(runner.diagnostics)
        notes_before = dict(ctx.notes)
        ctx._stage = stage.name
        ctx._declared = frozenset(stage.inputs + stage.outputs)
        if cache is not None:
            ctx.cache = cache
            ctx._keying = (self.graph, stage, earlier_fps)
        probe = obs_profile.stage_probe()
        try:
            with runner.stage(stage.name, critical=stage.critical):
                with obs.span(f"flow.{ctx.flow}.{stage.name}") as sp:
                    ctx.span = sp
                    with probe:
                        maybe_trip(options.fault, stage.name)
                        stage.run(ctx)
                    sp.set(**probe.span_attrs())
        finally:
            ctx.span = obs.NOOP_SPAN
            ctx._stage = None
            ctx._declared = None
            ctx.cache = None
            ctx._keying = None

        if runner.failed(stage.name):
            status = "failed"
            if stage.recover is not None:
                stage.recover(ctx)
        else:
            status = "ok"
            if (cache is not None
                    and len(runner.diagnostics) == diagnostics_before):
                notes_delta = {
                    key: value for key, value in ctx.notes.items()
                    if key not in notes_before or notes_before[key] != value
                }
                cache.put(fp, {
                    "artifacts": {
                        key: ctx.artifacts[key] for key in stage.outputs
                        if key in ctx.artifacts
                    },
                    "notes": notes_delta,
                })
        return _observe(ctx, stage.name, status, fp, probe.wall_s,
                        probe.cpu_s, probe.peak_mem_kb)

    def _checkpoint(
        self,
        ctx: FlowContext,
        state: _Checkpoint,
        stage: Stage,
        record: StageRecord,
        checkpoint: str | None,
    ) -> None:
        if checkpoint is None:
            return
        blob = pickle.dumps((
            ctx.artifacts, ctx.notes,
            ctx._runner.diagnostics if ctx._runner else [],
        ))
        state.snapshots.append(
            _Snapshot(stage=stage.name, record=record, blob=blob)
        )
        try:
            state.save(checkpoint)
        except OSError as exc:
            raise FlowError(
                f"cannot write flow checkpoint {checkpoint!r}: {exc}"
            ) from exc
