"""The ``size`` -> ``sta`` timing handover: one compile per flow.

``size`` hands ``sta`` its sizing session's compiled timing and final
propagated state through ``FlowContext.handover``, so a flow that sizes
compiles its netlist once.  The handover lives only in the process: a
replayed, resumed or failed ``size`` leaves none, ``sta`` compiles the
netlist it was given, and the result is the clean run's.  Stage-cache
payloads and checkpoint blobs do not carry it.
"""

import pickle

import pytest

from repro import obs
from repro.flows import (
    ASIC_GRAPH,
    AsicFlowOptions,
    FlowEngine,
    FlowError,
    run_asic_flow,
)
from repro.flows import cache as stage_cache
from repro.robust import guards
from repro.tech.process import CMOS250_ASIC

SMALL = dict(bits=4, sizing_moves=3)


def _comparable(result):
    payload = result.to_dict()
    payload.pop("stages")
    return payload


def _compiles(run):
    """``(result, sta.array.compile.calls)`` of ``run()``."""
    obs.enable()
    try:
        result = run()
        calls = obs.get_metrics().counter("sta.array.compile.calls").value()
    finally:
        obs.disable()
        obs.reset()
    return result, calls


@pytest.fixture
def clean():
    result = run_asic_flow(AsicFlowOptions(**SMALL))
    stage_cache.reset()
    return result


def test_sized_flow_compiles_once():
    result, calls = _compiles(
        lambda: run_asic_flow(AsicFlowOptions(**SMALL))
    )
    assert result.notes["sizing_moves"] > 0
    assert calls == 1


def test_handover_is_consumed_and_verified():
    checked, calls = _compiles(
        lambda: run_asic_flow(AsicFlowOptions(check_array=True, **SMALL))
    )
    stage_cache.reset()
    oracle = run_asic_flow(AsicFlowOptions(use_array=False, **SMALL))
    assert calls == 1
    assert _comparable(checked) == _comparable(oracle)
    ctx = FlowEngine(ASIC_GRAPH).run(AsicFlowOptions(bits=4, sizing_moves=2),
                                     CMOS250_ASIC)
    assert ctx.handover == {}


def test_resume_after_sta_fault_compiles_fresh(tmp_path, clean):
    ck = str(tmp_path / "flow.ck")
    with pytest.raises(FlowError):
        run_asic_flow(AsicFlowOptions(fault="sta", **SMALL), checkpoint=ck)
    stage_cache.set_enabled(False)
    resumed, calls = _compiles(
        lambda: run_asic_flow(AsicFlowOptions(**SMALL), checkpoint=ck,
                              resume=True)
    )
    assert [r.status for r in resumed.stage_records][3:5] == [
        "resumed", "ok"
    ]
    assert calls == 1
    assert _comparable(resumed) == _comparable(clean)


def test_failed_size_hands_nothing_over(monkeypatch):
    """A size stage whose session finished but whose pass is rejected
    rolls the netlist back; sta must time that unsized netlist, not the
    session's sized state."""

    def reject(context, **values):
        if context == "size_for_speed":
            raise guards.NonFiniteError("rejected for the test")

    monkeypatch.setattr(guards, "ensure_finite", reject)
    failed, calls = _compiles(
        lambda: run_asic_flow(
            AsicFlowOptions(on_error="keep_going", **SMALL)
        )
    )
    statuses = {r.name: r.status for r in failed.stage_records}
    assert statuses["size"] == "failed" and statuses["sta"] == "ok"
    assert calls == 2  # the sizing session's, then sta's own
    monkeypatch.undo()
    stage_cache.reset()
    unsized = run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=0))
    assert failed.min_period_ps == unsized.min_period_ps
    assert failed.quoted_frequency_mhz == unsized.quoted_frequency_mhz
    assert failed.area_um2 == unsized.area_um2


def test_cache_replayed_size_compiles_fresh(clean):
    options = AsicFlowOptions(**SMALL)
    FlowEngine(ASIC_GRAPH).run(options, CMOS250_ASIC, until="size")
    replayed, calls = _compiles(lambda: run_asic_flow(options))
    statuses = {r.name: r.status for r in replayed.stage_records}
    assert statuses["size"] == "cached" and statuses["sta"] == "ok"
    assert calls == 1
    assert _comparable(replayed) == _comparable(clean)


def _size_blobs(tmp_path, **policy):
    """The size stage's cache payload and checkpoint blob, as bytes."""
    stage_cache.reset()
    ck = str(tmp_path / f"flow{len(policy)}.ck")
    result = run_asic_flow(AsicFlowOptions(**SMALL, **policy),
                           checkpoint=ck)
    (record,) = [r for r in result.stage_records if r.name == "size"]
    payload = stage_cache.get_cache().get(record.fingerprint)
    with open(ck, "rb") as handle:
        snapshots = pickle.load(handle)["snapshots"]
    (snap,) = [s for s in snapshots if s.stage == "size"]
    return pickle.dumps(payload), snap.blob


def test_cache_payload_and_checkpoint_blob_unchanged(tmp_path):
    """The handover is not persisted: the size stage stores the same
    bytes as on the object engine, which has nothing to hand over."""
    payload, blob = _size_blobs(tmp_path)
    assert set(pickle.loads(payload)["artifacts"]) == {"module"}
    assert _size_blobs(tmp_path, use_array=False) == (payload, blob)
