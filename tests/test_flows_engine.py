"""Engine semantics: ordering, fingerprints, caching, resume, degrade.

The flow engine is declarative -- stages declare inputs/outputs/params
and the engine derives execution order, cache keys and resume points --
so these tests pin the *semantics* of that derivation: deterministic
topological order, fingerprint sensitivity (and insensitivity to policy
fields), cache hit/miss and isolation, checkpoint/resume after an
injected fault, and degraded-stage propagation into diagnostics.
"""

import dataclasses
import pickle

import pytest

from repro.flows import (
    ASIC_GRAPH,
    AsicFlowOptions,
    CustomFlowOptions,
    FlowEngine,
    FlowError,
    Stage,
    StageGraph,
    options_fingerprint,
    run_asic_flow,
    run_custom_flow,
    stage_fingerprint,
)
from repro.flows import cache as stage_cache
from repro.flows.engine import CHECKPOINT_VERSION, FlowContext
from repro.tech.process import CMOS250_ASIC

SMALL = dict(bits=4, sizing_moves=3)


def _noop(ctx):
    pass


def _statuses(result):
    return [(r.name, r.status) for r in result.stage_records]


def _comparable(result):
    payload = result.to_dict()
    payload.pop("stages")
    return payload


class TestTopologicalOrder:
    def test_asic_graph_order(self):
        assert ASIC_GRAPH.stage_names() == [
            "map", "place", "cts", "size", "sta", "quote"
        ]

    def test_declaration_order_breaks_ties(self):
        # b and c both depend only on a; declaration order decides.
        graph = StageGraph("t", (
            Stage("a", _noop, outputs=("x",)),
            Stage("c", _noop, inputs=("x",)),
            Stage("b", _noop, inputs=("x",)),
        ))
        assert graph.stage_names() == ["a", "c", "b"]

    def test_producer_before_consumer(self):
        # Declared consumer-first; the topo order flips them.
        graph = StageGraph("t", (
            Stage("use", _noop, inputs=("x",)),
            Stage("make", _noop, outputs=("x",)),
            Stage("seed", _noop, outputs=("y",)),
        ))
        order = graph.stage_names()
        assert order.index("make") < order.index("use")

    def test_rewriter_runs_after_earlier_readers(self):
        # "mut" rewrites x in place; the earlier-declared reader must
        # see the pre-mutation value, so mut sequences after it.
        graph = StageGraph("t", (
            Stage("make", _noop, outputs=("x",)),
            Stage("read", _noop, inputs=("x",)),
            Stage("mut", _noop, inputs=("x",), outputs=("x",)),
            Stage("late", _noop, inputs=("x",)),
        ))
        order = graph.stage_names()
        assert order.index("read") < order.index("mut") < order.index("late")

    def test_cycle_detected(self):
        with pytest.raises(FlowError, match="cycle"):
            StageGraph("t", (
                Stage("a", _noop, inputs=("y",), outputs=("x",)),
                Stage("b", _noop, inputs=("x",), outputs=("y",)),
            ))

    def test_duplicate_names_rejected(self):
        with pytest.raises(FlowError, match="duplicate"):
            StageGraph("t", (Stage("a", _noop), Stage("a", _noop)))

    def test_hook_for_unknown_stage_rejected(self):
        with pytest.raises(FlowError, match="unknown stages"):
            StageGraph("t", (Stage("a", _noop),),
                       hooks={"ghost": lambda ctx, runner: None})

    def test_get_unknown_stage(self):
        with pytest.raises(FlowError, match="unknown stage 'ghost'"):
            ASIC_GRAPH.get("ghost")

    def test_describe_lists_every_stage(self):
        text = ASIC_GRAPH.describe()
        for name in ASIC_GRAPH.stage_names():
            assert name in text


class TestFingerprints:
    def test_declared_param_changes_fingerprint(self):
        stage = ASIC_GRAPH.get("size")
        a = stage_fingerprint(ASIC_GRAPH, stage,
                              AsicFlowOptions(sizing_moves=5),
                              CMOS250_ASIC, {})
        b = stage_fingerprint(ASIC_GRAPH, stage,
                              AsicFlowOptions(sizing_moves=6),
                              CMOS250_ASIC, {})
        assert a != b

    def test_undeclared_field_does_not_change_fingerprint(self):
        # speed_test is a quote-stage param, invisible to sizing.
        stage = ASIC_GRAPH.get("size")
        a = stage_fingerprint(ASIC_GRAPH, stage, AsicFlowOptions(),
                              CMOS250_ASIC, {})
        b = stage_fingerprint(ASIC_GRAPH, stage,
                              AsicFlowOptions(speed_test=True),
                              CMOS250_ASIC, {})
        assert a == b

    def test_upstream_fingerprint_chains(self):
        stage = ASIC_GRAPH.get("sta")
        a = stage_fingerprint(ASIC_GRAPH, stage, AsicFlowOptions(),
                              CMOS250_ASIC, {"module": "fp1"})
        b = stage_fingerprint(ASIC_GRAPH, stage, AsicFlowOptions(),
                              CMOS250_ASIC, {"module": "fp2"})
        assert a != b

    def test_options_fingerprint_ignores_policy_fields(self):
        base = AsicFlowOptions(**SMALL)
        faulted = dataclasses.replace(base, fault="sta",
                                      on_error="keep_going")
        assert options_fingerprint(base) == options_fingerprint(faulted)
        assert (options_fingerprint(base)
                != options_fingerprint(AsicFlowOptions(bits=5)))


class TestStageCache:
    def test_identical_rerun_hits_every_stage(self):
        first = run_asic_flow(AsicFlowOptions(**SMALL))
        second = run_asic_flow(AsicFlowOptions(**SMALL))
        assert all(r.status == "ok" for r in first.stage_records)
        assert all(r.status == "cached" for r in second.stage_records)
        assert _comparable(first) == _comparable(second)

    def test_shared_prefix_reused_suffix_recomputed(self):
        run_asic_flow(AsicFlowOptions(**SMALL))
        other = run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=2))
        assert _statuses(other) == [
            ("map", "cached"), ("place", "cached"), ("cts", "cached"),
            ("size", "ok"), ("sta", "ok"), ("quote", "ok"),
        ]

    def test_cached_results_are_isolated_copies(self):
        first = run_asic_flow(AsicFlowOptions(**SMALL))
        second = run_asic_flow(AsicFlowOptions(**SMALL))
        # Same content, distinct object graphs: a consumer mutating one
        # result's notes must not leak into later cache replays.
        assert first.notes == second.notes
        assert first.notes is not second.notes

    def test_disabled_cache_recomputes(self):
        run_asic_flow(AsicFlowOptions(**SMALL))
        stage_cache.set_enabled(False)
        rerun = run_asic_flow(AsicFlowOptions(**SMALL))
        assert all(r.status == "ok" for r in rerun.stage_records)

    def test_fault_run_bypasses_cache_entirely(self):
        # On a warm cache: a faulted run neither reads nor writes it
        # (fault injection may edit cells, which cached libraries share).
        run_asic_flow(AsicFlowOptions(**SMALL))
        before = stage_cache.stats()
        result = run_asic_flow(
            AsicFlowOptions(bits=4, sizing_moves=3,
                            on_error="keep_going", fault="size")
        )
        assert any(r.status == "failed" for r in result.stage_records)
        assert stage_cache.stats() == before

    def test_failed_stage_outputs_never_cached(self):
        run_asic_flow(
            AsicFlowOptions(bits=4, sizing_moves=3,
                            on_error="keep_going", fault="sta")
        )
        clean = run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=3))
        # The degraded run left nothing behind: the clean run computes
        # every stage itself.
        assert all(r.status == "ok" for r in clean.stage_records)

    def test_custom_flow_caches_too(self):
        opts = CustomFlowOptions(bits=4, pipeline_stages=2, sizing_moves=3)
        first = run_custom_flow(opts)
        second = run_custom_flow(opts)
        assert all(r.status == "cached" for r in second.stage_records)
        assert _comparable(first) == _comparable(second)


class TestCheckpointResume:
    def test_resume_after_injected_fault(self, tmp_path):
        ck = str(tmp_path / "flow.ck")
        clean = run_asic_flow(AsicFlowOptions(**SMALL))
        stage_cache.reset()  # make the resumed run prove itself uncached

        with pytest.raises(FlowError) as excinfo:
            run_asic_flow(AsicFlowOptions(fault="sta", **SMALL),
                          checkpoint=ck)
        assert excinfo.value.stage == "sta"

        stage_cache.set_enabled(False)
        resumed = run_asic_flow(AsicFlowOptions(**SMALL),
                                checkpoint=ck, resume=True)
        assert _statuses(resumed) == [
            ("map", "resumed"), ("place", "resumed"), ("cts", "resumed"),
            ("size", "resumed"), ("sta", "ok"), ("quote", "ok"),
        ]
        assert _comparable(resumed) == _comparable(clean)

    def test_from_stage_recomputes_tail(self, tmp_path):
        ck = str(tmp_path / "flow.ck")
        clean = run_asic_flow(AsicFlowOptions(**SMALL), checkpoint=ck)
        stage_cache.set_enabled(False)
        redo = run_asic_flow(AsicFlowOptions(**SMALL), checkpoint=ck,
                             resume=True, from_stage="size")
        assert _statuses(redo) == [
            ("map", "resumed"), ("place", "resumed"), ("cts", "resumed"),
            ("size", "ok"), ("sta", "ok"), ("quote", "ok"),
        ]
        assert _comparable(redo) == _comparable(clean)

    def test_until_then_resume_completes(self, tmp_path):
        ck = str(tmp_path / "flow.ck")
        options = AsicFlowOptions(**SMALL)
        engine = FlowEngine(ASIC_GRAPH)
        partial = engine.run(options, CMOS250_ASIC, checkpoint=ck,
                             until="cts")
        statuses = {r.name: r.status for r in partial.stage_records}
        assert statuses["cts"] == "ok"
        assert statuses["size"] == statuses["quote"] == "skipped"
        assert "period_ps" not in partial and "logic_ps" not in partial

        stage_cache.set_enabled(False)
        finished = run_asic_flow(options, checkpoint=ck, resume=True)
        assert _statuses(finished)[:3] == [
            ("map", "resumed"), ("place", "resumed"), ("cts", "resumed"),
        ]
        assert finished.quoted_frequency_mhz > 0

    def test_resume_rejects_other_design_point(self, tmp_path):
        ck = str(tmp_path / "flow.ck")
        run_asic_flow(AsicFlowOptions(**SMALL), checkpoint=ck)
        with pytest.raises(FlowError, match="different design point"):
            run_asic_flow(AsicFlowOptions(bits=6, sizing_moves=3),
                          checkpoint=ck, resume=True)

    def test_resume_rejects_other_flow(self, tmp_path):
        ck = str(tmp_path / "flow.ck")
        run_asic_flow(AsicFlowOptions(**SMALL), checkpoint=ck)
        with pytest.raises(FlowError, match="is for flow"):
            run_custom_flow(
                CustomFlowOptions(bits=4, pipeline_stages=2,
                                  sizing_moves=3),
                checkpoint=ck, resume=True,
            )

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(FlowError, match="without a checkpoint"):
            run_asic_flow(AsicFlowOptions(**SMALL), resume=True)

    def test_from_requires_resume(self):
        with pytest.raises(FlowError, match="requires resuming"):
            run_asic_flow(AsicFlowOptions(**SMALL), from_stage="size")

    def test_unknown_stage_names_rejected(self, tmp_path):
        engine = FlowEngine(ASIC_GRAPH)
        with pytest.raises(FlowError, match="unknown --until"):
            engine.run(AsicFlowOptions(**SMALL), CMOS250_ASIC,
                       until="ghost")
        with pytest.raises(FlowError, match="unknown --from"):
            engine.run(AsicFlowOptions(**SMALL), CMOS250_ASIC,
                       checkpoint=str(tmp_path / "ck"), resume=True,
                       from_stage="ghost")

    def test_corrupt_checkpoint_is_a_flow_error(self, tmp_path):
        ck = tmp_path / "flow.ck"
        ck.write_bytes(b"not a pickle")
        with pytest.raises(FlowError, match="cannot load"):
            run_asic_flow(AsicFlowOptions(**SMALL),
                          checkpoint=str(ck), resume=True)

    def test_version_1_checkpoint_is_a_flow_error(self, tmp_path):
        # A version-1 snapshot of ``sta`` holds a whole timing report,
        # not the period_ps/logic_ps pair ``quote`` reads now.
        ck = tmp_path / "flow.ck"
        run_asic_flow(AsicFlowOptions(**SMALL), checkpoint=str(ck))
        payload = pickle.loads(ck.read_bytes())
        assert payload["version"] == CHECKPOINT_VERSION == 2
        ck.write_bytes(pickle.dumps(dict(payload, version=1)))
        with pytest.raises(FlowError,
                           match="has version 1; expected 2$"):
            run_asic_flow(AsicFlowOptions(**SMALL),
                          checkpoint=str(ck), resume=True)


class TestDegradation:
    def test_failed_stage_lands_in_diagnostics_and_records(self):
        result = run_asic_flow(
            AsicFlowOptions(bits=4, sizing_moves=3,
                            on_error="keep_going", fault="sta")
        )
        statuses = {r.name: r.status for r in result.stage_records}
        assert statuses["sta"] == "failed"
        assert statuses["quote"] == "ok"  # recovered timing fed onward
        assert any(d.code == "flow.stage_failed" and d.subject == "sta"
                   for d in result.diagnostics)
        assert result.quoted_frequency_mhz > 0

    def test_critical_stage_raises_even_when_keep_going(self):
        with pytest.raises(FlowError) as excinfo:
            run_asic_flow(
                AsicFlowOptions(bits=4, sizing_moves=3,
                                on_error="keep_going", fault="map")
            )
        assert excinfo.value.stage == "map"

    def test_stage_records_reach_to_dict(self):
        result = run_asic_flow(AsicFlowOptions(**SMALL))
        stages = result.to_dict()["stages"]
        assert [s["name"] for s in stages] == ASIC_GRAPH.stage_names()
        for entry in stages:
            assert entry["status"] == "ok"
            assert entry["wall_s"] >= 0.0
            assert entry["cache_hit"] is False
            assert len(entry["fingerprint"]) == 16


class TestFlowContext:
    def test_missing_artifact_names_stage_and_keys(self):
        ctx = FlowContext("asic", AsicFlowOptions(), CMOS250_ASIC)
        ctx["module"] = object()
        with pytest.raises(FlowError, match="no artifact 'period_ps'"):
            ctx["period_ps"]

    def test_get_with_default(self):
        ctx = FlowContext("asic", AsicFlowOptions(), CMOS250_ASIC)
        assert ctx.get("wire") is None
        assert "wire" not in ctx
