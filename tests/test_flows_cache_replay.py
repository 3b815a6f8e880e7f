"""Stage-cache replay: what a hit decodes, shares and keys on.

A run of consecutive cache hits decodes each artifact once, from the
run's last writer of it.  Libraries travel as container snapshots that
share their frozen cells, and every hit still hands out objects no other
design point holds.  Replay is only as good as the fingerprints behind
it, so a stage body may read only the artifacts it declares.
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
    StructuredFlowOptions,
    run_asic_flow,
    run_custom_flow,
    run_flow_sweep,
    run_structured_flow,
)
from repro.flows import cache as stage_cache
from repro.flows import engine as flow_engine
from repro.flows.custom import CUSTOM_GRAPH
from repro.tech.process import CMOS250_ASIC, CMOS250_CUSTOM

SMALL = dict(bits=4, sizing_moves=3)


def _comparable(result):
    payload = result.to_dict()
    payload.pop("stages")
    return payload


def _statuses(records):
    return {r.name: r.status for r in records}


def _uncached(run, *args, **kwargs):
    stage_cache.set_enabled(False)
    try:
        return run(*args, **kwargs)
    finally:
        stage_cache.set_enabled(True)


@pytest.fixture
def requested(monkeypatch):
    """The ``keys`` argument of every ``StageCache.get``, in call order."""
    calls = []
    original = stage_cache.StageCache.get

    def spy(self, fingerprint, keys=None):
        calls.append(keys)
        return original(self, fingerprint, keys)

    monkeypatch.setattr(stage_cache.StageCache, "get", spy)
    return calls


class TestDeclaredReads:
    def test_structured_cts_keys_on_the_fabric(self):
        # cts sizes the prefab clock tree from the fabric; before it
        # declared that input, the second point replayed the first
        # point's tree skew from the cache.
        points = [
            StructuredFlowOptions(bits=4, sizing_moves=2,
                                  fabric_utilization=utilization)
            for utilization in (0.3, 0.95)
        ]
        for options, result in zip(points, run_flow_sweep(points)):
            alone = _uncached(run_structured_flow, options)
            assert _comparable(result) == _comparable(alone)

    def test_undeclared_read_in_a_stage_raises(self):
        def write(ctx):
            ctx["x"] = 1
            ctx["y"] = 2

        graph = StageGraph("t", (
            Stage("a", write, outputs=("x", "y")),
            Stage("b", lambda ctx: ctx.get("y"), inputs=("x",)),
        ))
        with pytest.raises(FlowError, match="'y'") as excinfo:
            FlowEngine(graph).run(AsicFlowOptions(), CMOS250_ASIC)
        assert excinfo.value.stage == "b"

    def test_hooks_read_outside_the_check(self):
        seen = []

        def write(ctx):
            ctx["x"] = 1

        graph = StageGraph(
            "t",
            (Stage("a", write, outputs=("x",)), Stage("b", lambda ctx: None)),
            hooks={"b": lambda ctx, runner: seen.append(ctx["x"])},
        )
        ctx = FlowEngine(graph).run(AsicFlowOptions(), CMOS250_ASIC)
        assert seen == [1] and ctx["x"] == 1


class TestReplayDecodes:
    def test_prefix_replay_decodes_each_artifact_once(self, requested):
        run_asic_flow(AsicFlowOptions(**SMALL))
        requested.clear()
        before = stage_cache.stats()["decodes"]
        result = run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=2))
        assert [_statuses(result.stage_records)[s]
                for s in ("map", "place", "cts", "size")] == [
            "cached", "cached", "cached", "ok"]
        # The module comes from cts, its last writer; the library is a
        # snapshot, never unpickled.
        assert requested[:3] == [
            ("library", "stages", "clock"), ("wire",), ("module",),
        ]
        assert stage_cache.stats()["decodes"] - before == 4

    def test_hooked_stage_ends_a_run(self):
        # The preflight hook after cts lints cts's netlist under
        # keep_going, so a replay of cts and size must decode cts's
        # module too; linting size's module finds other problems.
        options = CustomFlowOptions(bits=4, sizing_moves=6,
                                    on_error="keep_going")
        alone = _uncached(run_custom_flow, options)
        assert alone.diagnostics
        run_custom_flow(options)
        replayed = run_custom_flow(options)
        assert all(r.status == "cached" for r in replayed.stage_records)
        assert _comparable(replayed) == _comparable(alone)

    def test_checkpointed_replay_decodes_whole_stages(
            self, requested, tmp_path):
        ck = str(tmp_path / "flow.ck")
        clean = run_asic_flow(AsicFlowOptions(**SMALL))
        requested.clear()
        run_asic_flow(AsicFlowOptions(**SMALL), checkpoint=ck)
        assert requested == [stage.outputs for stage in ASIC_GRAPH]
        resumed = _uncached(run_asic_flow, AsicFlowOptions(**SMALL),
                            checkpoint=ck, resume=True, from_stage="size")
        assert _comparable(resumed) == _comparable(clean)

    def test_unreadable_entry_mid_run_is_recomputed(self, tmp_path):
        stage_cache.configure(str(tmp_path))
        clean = run_asic_flow(AsicFlowOptions(**SMALL))
        cts_fp = {r.name: r.fingerprint for r in clean.stage_records}["cts"]
        (tmp_path / (cts_fp + stage_cache.BLOB_SUFFIX)).write_bytes(b"junk")
        stage_cache.get_cache().clear()
        again = run_asic_flow(AsicFlowOptions(**SMALL))
        assert _statuses(again.stage_records) == {
            "map": "cached", "place": "cached", "cts": "ok",
            "size": "cached", "sta": "cached", "quote": "cached",
        }
        assert _comparable(again) == _comparable(clean)


class TestIsolation:
    def test_no_two_hits_share_a_module_or_library(self):
        engine = FlowEngine(ASIC_GRAPH)
        options = AsicFlowOptions(**SMALL)
        first = engine.run(options, CMOS250_ASIC)
        second = engine.run(options, CMOS250_ASIC)
        third = engine.run(options, CMOS250_ASIC)
        assert all(r.status == "cached" for r in second.stage_records)
        cells = len(first["library"])
        gates = first["module"].instance_count()
        for a, b in ((first, second), (second, third), (first, third)):
            assert a["module"] is not b["module"]
            assert a["library"] is not b["library"]
            assert a["library"]._cells is not b["library"]._cells
        # Mutating one point's replayed objects leaves later hits alone.
        second["library"].add(dataclasses.replace(
            second["library"].inverter(), name="INV_X999"))
        second["module"].remove_instance(
            next(iter(second["module"].iter_instances())).name)
        fourth = engine.run(options, CMOS250_ASIC)
        assert len(fourth["library"]) == cells
        assert fourth["module"].instance_count() == gates

    def test_custom_generated_cells_stay_private(self):
        engine = FlowEngine(CUSTOM_GRAPH)
        sized = CustomFlowOptions(bits=4, pipeline_stages=2, sizing_moves=6)
        unsized = dataclasses.replace(sized, sizing_moves=0)
        a = engine.run(sized, CMOS250_CUSTOM)
        b = engine.run(unsized, CMOS250_CUSTOM)
        assert [_statuses(b.stage_records)[s]
                for s in ("map", "place", "cts", "size")] == [
            "cached", "cached", "cached", "ok"]
        alone = _uncached(engine.run, unsized, CMOS250_CUSTOM)
        names = {cell.name for cell in b["library"]}
        assert names == {cell.name for cell in alone["library"]}
        # a's sizing generated cells of its own, and b never saw them.
        assert {cell.name for cell in a["library"]} - names
        # The snapshot shares the frozen cells instead of copying them.
        inverter = a["library"].inverter()
        assert b["library"].inverter() is inverter


class TestFormat:
    def test_old_format_blobs_are_misses(self, tmp_path, monkeypatch):
        options = AsicFlowOptions(**SMALL)
        fps = flow_engine.graph_fingerprints(ASIC_GRAPH, options,
                                             CMOS250_ASIC)
        monkeypatch.setattr(flow_engine, "FINGERPRINT_VERSION",
                            flow_engine.FINGERPRINT_VERSION - 1)
        old_fps = flow_engine.graph_fingerprints(ASIC_GRAPH, options,
                                                 CMOS250_ASIC)
        monkeypatch.undo()
        assert not set(fps) & set(old_fps)
        # Even under a current name, a previous-format blob (one pickle
        # per stage) is a miss, never a replayed result.
        old_blob = pickle.dumps({"artifacts": {"module": None},
                                 "notes": {"wirelength_um": -1.0}})
        for fp in fps + old_fps:
            (tmp_path / (fp + stage_cache.BLOB_SUFFIX)).write_bytes(old_blob)
        stage_cache.configure(str(tmp_path))
        result = run_asic_flow(options)
        assert all(r.status == "ok" for r in result.stage_records)
        assert _comparable(result) == _comparable(
            _uncached(run_asic_flow, options))
