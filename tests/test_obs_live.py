"""Tests for the live telemetry layer (repro.obs.live + transport).

The contracts under test: bus sequencing and delivery (subscriptions,
callbacks, forward hook, JSONL sink), the tracer listener integration,
the declared event kinds, heartbeats and stall detection, the sweep
runner's cross-process event streaming (events from pool workers
arrive *while* ``run_sweep`` is still running, the same events arrive
for one worker or two, and the merged trace/metrics/run records are
byte-identical with the bus on or off), and the dashboard's state
folding.
"""

import collections
import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.obs import TickClock, metrics_to_flat, trace_to_jsonl
from repro.obs import ledger, live
from repro.obs.events import (
    EVENT_KINDS,
    Event,
    EventError,
    parse_event,
    read_events,
)
from repro.obs.ledger import RunRecord
from repro.par.sweep import (
    SweepError,
    SweepStallError,
    run_sweep,
    run_sweep_report,
)
from repro.robust.retry import RetryPolicy


@pytest.fixture(autouse=True)
def _clean_live_and_obs():
    """Every test starts and ends with both layers off and empty."""
    live.disable()
    live.configure_watch()
    obs.disable()
    obs.reset()
    yield
    live.disable()
    live.configure_watch()
    obs.disable()
    obs.reset()


def _ev(kind, name, source="main", **attrs):
    return Event(kind=kind, name=name, source=source, attrs=attrs)


class TestEvent:
    def test_round_trip_and_json(self):
        event = Event(kind="task.done", name="s", seq=4, ts=1.25,
                      source="worker-7", source_seq=2,
                      attrs={"index": 1, "wall_s": 0.5})
        again = Event.from_dict(event.to_dict())
        assert again == event
        assert parse_event(event.to_json()) == event

    def test_source_seq_omitted_when_native(self):
        event = Event(kind="log", name="x", seq=3, source_seq=3)
        assert "source_seq" not in event.to_dict()
        assert Event.from_dict(event.to_dict()).source_seq == 3

    def test_malformed_payloads_rejected(self):
        with pytest.raises(EventError):
            Event.from_dict({"name": "no kind"})
        with pytest.raises(EventError):
            Event.from_dict("not a dict")
        with pytest.raises(EventError):
            parse_event("{broken json")

    def test_read_events_skips_bad_and_partial_tail(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text(
            Event(kind="log", name="ok", seq=1).to_json() + "\n"
            + "{not json}\n"
            + '{"kind": "log", "name": "mid-write tail"'
        )
        assert [e.name for e in read_events(str(path))] == ["ok"]
        with pytest.raises(EventError):
            list(read_events(str(path), skip_bad=False))


class TestEventBus:
    def test_publish_assigns_monotonic_seq_and_clock(self):
        bus = live.EventBus(clock=TickClock())
        sub = bus.subscribe()
        bus.publish("log", "a")
        bus.publish("log", "b", note=1)
        events = sub.drain()
        assert [e.seq for e in events] == [1, 2]
        assert [e.ts for e in events] == [0.0, 1.0]
        assert events[1].attrs == {"note": 1}
        assert events[0].source_seq == events[0].seq

    def test_subscription_bounded_drops_oldest(self):
        bus = live.EventBus()
        sub = bus.subscribe(maxlen=3)
        for i in range(5):
            bus.publish("log", f"e{i}")
        assert sub.dropped == 2
        assert [e.name for e in sub.drain()] == ["e2", "e3", "e4"]
        assert len(sub) == 0
        assert bus.stats()["dropped"] == 2

    def test_ingest_resequences_but_keeps_origin(self):
        bus = live.EventBus()
        bus.publish("log", "local")
        event = bus.ingest({"kind": "task.done", "name": "s", "seq": 7,
                            "source": "worker-9", "ts": 1.5})
        assert event.seq == 2
        assert event.source == "worker-9"
        assert event.source_seq == 7
        assert bus.ingest({"name": "kindless"}) is None

    def test_broken_callback_does_not_break_publish(self):
        bus = live.EventBus()
        bus.add_callback(lambda e: 1 / 0)
        sub = bus.subscribe()
        bus.publish("log", "x")
        assert len(sub) == 1

    def test_forward_hook_gets_dicts_and_dies_on_error(self):
        bus = live.EventBus()
        seen = []
        bus.set_forward(seen.append)
        bus.publish("log", "a")

        def broken(payload):
            raise OSError("queue gone")

        bus.set_forward(broken)
        bus.publish("log", "b")  # hook raises once, then is dropped
        bus.publish("log", "c")
        assert [p["name"] for p in seen] == ["a"]
        assert isinstance(seen[0], dict)

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        bus = live.EventBus(clock=TickClock())
        bus.attach_jsonl(path)
        assert bus.sink_path == path
        bus.publish("log", "one", note="a")
        bus.publish("log", "two")
        bus.detach_jsonl()
        assert bus.sink_path is None
        events = list(read_events(path))
        assert [e.name for e in events] == ["one", "two"]
        assert [e.seq for e in events] == [1, 2]
        assert events[0].attrs == {"note": "a"}


class TestListenerIntegration:
    def test_span_events_published_and_metrics_are_not(self):
        obs.enable()
        sub = live.enable().subscribe()
        with obs.span("stage.x", cells=4):
            obs.count("calls", 2.0)
        obs.gauge("speed", 5.0)
        obs.observe("latency", 0.5)
        events = sub.drain()
        kinds = [(e.kind, e.name) for e in events]
        assert kinds == [("span.open", "stage.x"),
                         ("span.close", "stage.x")]
        close = next(e for e in events if e.kind == "span.close")
        assert "duration_ms" in close.attrs

    def test_disable_unhooks_listeners(self):
        obs.enable()
        sub = live.enable().subscribe()
        live.disable()
        with obs.span("quiet"):
            obs.count("calls")
        assert sub.drain() == []
        assert not live.enabled()
        live.emit("log", "nothing")  # no-op when off, must not raise

    def test_cross_thread_spans_interleave_with_consistent_stacks(self):
        obs.enable()
        sub = live.enable().subscribe()
        barrier = threading.Barrier(2)

        def work(tag):
            barrier.wait()
            for _ in range(10):
                with obs.span(f"{tag}.outer"):
                    with obs.span(f"{tag}.inner"):
                        pass

        threads = [
            threading.Thread(target=work, args=(f"t{i}",),
                             name=f"lane-{i}")
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = sub.drain()
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)  # strictly monotonic merge
        opens = [e for e in events if e.kind == "span.open"]
        assert len(opens) == 40
        for lane in ("lane-0", "lane-1"):
            depths = [e.attrs["depth"] for e in opens
                      if e.attrs["thread"] == lane]
            # Each thread's own stack stays outer(0)/inner(1) however
            # the two streams interleave on the shared bus.
            assert depths == [0, 1] * 10
        assert len(obs.get_tracer().finished()) == 40


class TestFlowEngineEvents:
    def test_stages_publish_start_done_and_cache(self):
        from repro.flows import AsicFlowOptions, run_asic_flow

        sub = live.enable().subscribe()
        options = AsicFlowOptions(bits=4, sizing_moves=2)
        run_asic_flow(options)
        events = sub.drain()
        starts = [e for e in events if e.kind == "stage.start"]
        dones = [e for e in events if e.kind == "stage.done"]
        assert len(starts) == len(dones) >= 6
        assert starts[0].attrs["flow"] == "asic"
        assert starts[0].attrs["total"] == len(starts)
        assert all(e.attrs["status"] == "ok" for e in dones)
        # Same options again: the stage cache replays, and each replay
        # announces itself once, as a stage.done with status "cached".
        run_asic_flow(options)
        events = sub.drain()
        replayed = [e for e in events if e.kind == "stage.done"]
        assert len(replayed) == len(dones)
        assert all(e.attrs["status"] == "cached" and e.attrs["cache_hit"]
                   for e in replayed)
        assert not [e for e in events if e.kind == "stage.cache"]

    def test_stage_done_carries_the_stage_record(self, tmp_path):
        from repro.flows import (
            ASIC_GRAPH,
            AsicFlowOptions,
            FlowEngine,
            run_asic_flow,
        )
        from repro.tech.process import CMOS250_ASIC

        sub = live.enable().subscribe(maxlen=100_000)
        options = AsicFlowOptions(bits=4, sizing_moves=2)
        checkpoint = str(tmp_path / "flow.ck")
        engine = FlowEngine(ASIC_GRAPH)
        records = []
        # ok + skipped, then resumed + ok, then all cached, then a
        # degraded run (fault runs bypass the cache) with one failure.
        records += engine.run(options, CMOS250_ASIC, checkpoint=checkpoint,
                              until="place").stage_records
        records += engine.run(options, CMOS250_ASIC, checkpoint=checkpoint,
                              resume=True).stage_records
        records += run_asic_flow(options).stage_records
        records += run_asic_flow(AsicFlowOptions(
            bits=4, sizing_moves=2, on_error="keep_going", fault="sta",
        )).stage_records
        assert {r.status for r in records} == {
            "ok", "cached", "resumed", "skipped", "failed",
        }

        dones = [e.attrs for e in sub.drain() if e.kind == "stage.done"]
        assert sub.dropped == 0
        expected = []
        for record in records:
            attrs = record.to_dict()
            attrs["stage"] = attrs.pop("name")
            expected.append({**attrs, "flow": "asic"})
        assert dones == expected
        for record in records:
            assert record.cache_hit == (record.status
                                        in {"cached", "resumed"})


class TestHeartbeat:
    def test_beacon_reports_task_and_busy_time(self):
        bus = live.EventBus(source="w")
        sub = bus.subscribe()
        beacon = live.Heartbeat(bus, 0.02).start()
        try:
            beacon.set_task(3)
            time.sleep(0.1)
        finally:
            beacon.stop()
        beats = [e for e in sub.drain() if e.kind == "heartbeat"]
        assert beats
        tasked = [b for b in beats if b.attrs.get("task") == "3"]
        assert tasked
        assert tasked[-1].attrs["busy_s"] >= 0.0
        count = len(beats)
        time.sleep(0.06)  # stopped: no further beats
        assert len([e for e in sub.drain()
                    if e.kind == "heartbeat"]) == 0
        assert count >= 2


class TestStallDetector:
    def test_flags_silent_busy_worker_worst_first(self):
        now = [0.0]
        detector = live.StallDetector(1.0, clock=lambda: now[0])
        detector.note(_ev("task.start", "s", source="w1", index=5))
        detector.note(_ev("task.start", "s", source="w2", index=6))
        now[0] = 0.5
        detector.note(_ev("heartbeat", "w2", source="w2", task="6"))
        now[0] = 1.2
        reports = detector.check()  # w1 silent 1.2 s; w2 only 0.7 s
        assert [r.source for r in reports] == ["w1"]
        assert reports[0].task == "5"
        assert reports[0].last_kind == "task.start"
        assert "w1" in reports[0].describe()
        now[0] = 2.0
        assert [r.source for r in detector.check()] == ["w1", "w2"]

    def test_idle_workers_never_stall(self):
        now = [0.0]
        detector = live.StallDetector(0.5, clock=lambda: now[0])
        detector.note(_ev("task.start", "s", source="w1", index=0))
        detector.note(_ev("task.done", "s", source="w1", index=0))
        now[0] = 10.0
        assert detector.check() == []

    @pytest.mark.parametrize("timeout_s", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_timeout(self, timeout_s):
        with pytest.raises(ValueError):
            live.StallDetector(timeout_s)


class TestWatchValues:
    @pytest.mark.parametrize("interval_s", [0.0, -1.0, float("nan")])
    def test_heartbeat_rejects_nonpositive_interval(self, interval_s):
        with pytest.raises(ValueError):
            live.Heartbeat(live.EventBus(), interval_s)

    def test_heartbeat_floors_small_intervals(self):
        assert live.Heartbeat(live.EventBus(), 0.005).interval_s == 0.01

    @pytest.mark.parametrize("knob", ["heartbeat_s", "stall_timeout_s"])
    @pytest.mark.parametrize("value", [0.0, float("nan")])
    def test_sweep_rejects_nonpositive_watch_values(self, knob, value):
        with pytest.raises(SweepError):
            run_sweep(square, [1, 2], **{knob: value})


def square(x):
    """Top-level so it pickles into pool workers."""
    return x * x


def deterministic_traced(x):
    """Worker task with a fake clock and a fixed run identity: spans and
    run records are byte-reproducible."""
    obs.get_tracer().clock = TickClock(start=1000.0 * x)
    with obs.span("det.task", x=x):
        obs.count("det.calls")
    ledger.record(RunRecord(
        kind="det", label=f"det.{x}", fingerprint=f"fp{x}",
        run_id=f"det-{x:02d}", created_s=float(x), git_rev="",
        host={"node": "det"}, metrics={"x": x},
    ))
    return x


def slow_second_task(x):
    if x == 1:
        time.sleep(0.5)
    return x


#: One worker sleeps in task 1 while the other finishes the rest and
#: sits idle, beating every 10 ms (the beacon's floor).  Its beats share
#: the pipe with 8 MiB replies, which take many writes each: a beat
#: spliced into one desynchronises the pipe, which shows as a retry, a
#: wrong result or a hang.
IDLE_BEATS = """
import json, time
from repro.obs import live
from repro.par.sweep import run_sweep_report
from repro.robust.retry import RetryPolicy

def slow_second_bulky(x):
    if x == 1:
        time.sleep(0.5)
    return x, bytes(8 << 20)

bus = live.enable()
report = run_sweep_report(
    slow_second_bulky, [0, 1, 2, 3], workers=2, label="beat.sweep",
    heartbeat_s=0.005, stall_timeout_s=5.0,
    retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
)
print(json.dumps({
    "values": [value for value, _ in report.results],
    "sizes": sorted({len(blob) for _, blob in report.results}),
    "ok": report.ok, "retries": report.retries,
    "lost": report.workers_lost,
    "beats": bus.stats()["by_kind"].get("heartbeat", 0),
}))
"""


class TestEventKinds:
    def test_every_published_kind_is_declared(self):
        from repro.flows import AsicFlowOptions, run_asic_flow

        obs.enable()
        sub = live.enable().subscribe(maxlen=100_000)
        run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=2))
        run_sweep_report(square, list(range(4)), workers=2,
                         label="kinds.sweep", heartbeat_s=0.01,
                         retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
                         chaos="kill-worker:1", precomputed={3: 9})
        seen = {event.kind for event in sub.drain()}
        assert {"span.open", "stage.done", "task.retry", "worker.lost",
                "task.replay"} <= seen
        assert seen <= set(EVENT_KINDS)
        assert "metric.delta" not in EVENT_KINDS


class TestSweepStreaming:
    def test_serial_sweep_publishes_progress(self):
        sub = live.enable().subscribe()
        run_sweep(square, [1, 2, 3], workers=1, label="s")
        kinds = [e.kind for e in sub.drain()]
        assert kinds.count("task.start") == 3
        assert kinds.count("task.done") == 3
        assert kinds.count("sweep.progress") == 3

    def test_worker_events_arrive_before_run_sweep_returns(self):
        bus = live.enable()
        streamed_during_run = []

        def witness(event):
            if event.source.startswith("worker-"):
                streamed_during_run.append(event.kind)

        bus.add_callback(witness)
        results = run_sweep(square, list(range(8)), workers=2,
                            label="live.sweep", heartbeat_s=0.02)
        # The callback only ever fires inside run_sweep's drain loop --
        # anything recorded proves streaming, not post-hoc merging.
        assert results == [x * x for x in range(8)]
        assert "task.done" in streamed_during_run
        stats = bus.stats()["by_kind"]
        assert stats["task.done"] == 8
        assert stats["sweep.progress"] >= 1

    def test_trace_and_metrics_identical_with_bus_on_and_off(
            self, tmp_path):
        def run_once(directory):
            obs.enable()
            obs.get_tracer().clock = TickClock()
            ledger.configure(str(directory))
            ledger.set_enabled(True)
            try:
                results = run_sweep(deterministic_traced, [1, 2, 3, 4],
                                    workers=2, label="det.sweep")
                records = [record.to_dict() for record
                           in ledger.get_ledger().records()]
            finally:
                ledger.reset_state()
            trace = trace_to_jsonl(obs.get_tracer())
            flat = metrics_to_flat(obs.get_metrics())
            obs.disable()
            obs.reset()
            return results, trace, flat, records

        baseline = run_once(tmp_path / "off")  # bus off: replies only
        live.enable()
        with_bus = run_once(tmp_path / "on")   # bus on: events on the pipe
        live.disable()
        assert with_bus == baseline
        assert '"det.task"' in baseline[1]
        assert [r["run_id"] for r in baseline[3]] == [
            "det-01", "det-02", "det-03", "det-04"
        ]
        assert all(r["worker"] for r in baseline[3])

    def test_events_identical_for_one_and_two_workers(self):
        from repro.flows import AsicFlowOptions, cache, run_flow_sweep

        def events(workers):
            cache.reset()  # both start cold; forks inherit warm stages
            sub = live.enable().subscribe(maxlen=100_000)
            points = [AsicFlowOptions(bits=4, sizing_moves=moves)
                      for moves in (1, 2, 3)]
            run_flow_sweep(points, workers=workers, label="parity.sweep")
            live.disable()
            return collections.Counter(
                (e.kind, e.name, e.attrs.get("index"))
                for e in sub.drain() if e.kind != "heartbeat"
            )

        serial, pool = events(1), events(2)
        assert pool == serial
        assert serial[("task.done", "parity.sweep", 2)] == 1
        assert any(kind == "stage.done" for kind, _, _ in serial)

    def test_idle_worker_heartbeats_never_corrupt_replies(self):
        # A fresh interpreter under a timeout, so a desynchronised pipe
        # fails this test instead of hanging the suite.
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", IDLE_BEATS],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        assert got["values"] == [0, 1, 2, 3]
        assert got["sizes"] == [8 << 20]
        assert got["ok"] and got["retries"] == 0 and got["lost"] == 0
        assert got["beats"] > 0

    def test_stall_raises_structured_error(self):
        with pytest.raises(SweepStallError) as info:
            run_sweep(slow_second_task, [0, 1, 2, 3], workers=2,
                      label="stall.sweep", heartbeat_s=None,
                      stall_timeout_s=0.12)
        report = info.value.reports[0]
        assert report["source"].startswith("worker-")
        assert report["silent_s"] > 0.12
        assert "silent" in str(info.value)

    def test_heartbeat_keeps_slow_worker_alive(self):
        # Same slow task, longer than the stall timeout -- but the
        # beacon thread beats through the sleep, so no stall fires.
        results = run_sweep(slow_second_task, [0, 1, 2, 3], workers=2,
                            label="alive.sweep", heartbeat_s=0.05,
                            stall_timeout_s=0.3)
        assert results == [0, 1, 2, 3]

    def test_watch_config_supplies_defaults(self):
        live.configure_watch(heartbeat_s=None, stall_timeout_s=0.1)
        with pytest.raises(SweepStallError):
            run_sweep(slow_second_task, [0, 1, 2, 3], workers=2,
                      label="cfg.sweep")


class TestDashboard:
    def test_folds_progress_cache_lanes_and_stalls(self):
        dash = live.Dashboard(stream=io.StringIO(), refresh_s=999.0)
        dash.feed(_ev("stage.start", "flow.asic.map", flow="asic",
                      stage="map", index=0, total=6), paint=False)
        dash.feed(_ev("stage.done", "flow.asic.map", flow="asic",
                      stage="map", status="ok", wall_s=0.1,
                      cache_hit=False), paint=False)
        dash.feed(_ev("task.start", "sweep", source="worker-1",
                      index=0), paint=False)
        dash.feed(_ev("heartbeat", "worker-1", source="worker-1",
                      task="0", busy_s=2.0), paint=False)
        dash.feed(_ev("sweep.progress", "sweep", done=2, total=8,
                      eta_s=3.5), paint=False)
        dash.feed(_ev("stall", "worker-2",
                      detail="worker worker-2 silent for 1.00 s"),
                  paint=False)
        frame = dash.render()
        assert "flow asic" in frame
        assert "1/6" in frame
        assert "2/8" in frame and "eta" in frame
        assert "worker-1" in frame and "busy" in frame
        assert "STALL: worker worker-2" in frame

    def test_cache_replay_counted_once(self):
        # Streams written before stage.done carried the whole stage
        # record also had a stage.cache event per replay; ``top``
        # replays them with the hit counted once, not twice.
        dash = live.Dashboard(stream=io.StringIO(), refresh_s=999.0)
        dash.feed(_ev("stage.start", "flow.asic.map", flow="asic",
                      stage="map", index=0, total=1), paint=False)
        dash.feed(_ev("stage.cache", "flow.asic.map", flow="asic",
                      stage="map", fingerprint="f"), paint=False)
        dash.feed(_ev("stage.done", "flow.asic.map", flow="asic",
                      stage="map", status="cached", wall_s=0.0,
                      cache_hit=True), paint=False)
        assert "stage cache: 1 hits / 1 stages (100%)" in dash.render()

    def test_cached_stage_done_counts_the_hit(self):
        # A resumed stage reused checkpointed work but never hit the
        # cache, so only the cached stage.done counts.
        dash = live.Dashboard(stream=io.StringIO(), refresh_s=999.0)
        dash.feed(_ev("stage.done", "flow.asic.map", flow="asic",
                      stage="map", status="resumed", wall_s=0.1,
                      cache_hit=True, fingerprint="f"), paint=False)
        dash.feed(_ev("stage.start", "flow.asic.place", flow="asic",
                      stage="place", index=1, total=2), paint=False)
        dash.feed(_ev("stage.done", "flow.asic.place", flow="asic",
                      stage="place", status="cached", wall_s=0.0,
                      cache_hit=True, fingerprint="g"), paint=False)
        assert "stage cache: 1 hits / 1 stages (100%)" in dash.render()

    def test_log_mode_appends_compact_lines(self):
        buffer = io.StringIO()
        dash = live.Dashboard(stream=buffer, refresh_s=0.0)
        for i in range(3):
            dash.feed(_ev("sweep.progress", "s", done=i + 1, total=3))
        output = buffer.getvalue()
        assert output.count("live telemetry") >= 1
        assert "\x1b[" not in output  # no ANSI when not a TTY
        assert "tasks 3/3" in output.splitlines()[-1]

    def test_final_frame_is_full_view(self):
        dash = live.Dashboard(stream=io.StringIO(), refresh_s=999.0)
        dash.feed(_ev("sweep.progress", "s", done=3, total=3),
                  paint=False)
        assert "3/3" in dash.final()
