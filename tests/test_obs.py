"""Tests for the observability subsystem (repro.obs)."""

import json
import threading

import pytest

from repro import obs
from repro.obs import (
    MetricsRegistry,
    ObsError,
    TickClock,
    Tracer,
    metrics_to_flat,
    trace_to_jsonl,
)
from repro.obs.profile import self_time_rollup
from repro.obs.render import aggregate_spans


@pytest.fixture(autouse=True)
def _clean_global_obs():
    """Every test starts and ends with the global layer off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestTracer:
    def test_nested_spans_depth_and_parent(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.depth == 0
        assert outer.parent is None
        assert inner.depth == 1
        assert inner.parent == outer.index
        assert len(tracer.finished()) == 2

    def test_self_time_excludes_children(self):
        clock = TickClock(tick=1.0)
        tracer = Tracer(clock=clock)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        # outer: start=0 end=3 (4 ticks consumed); inner: start=1 end=2.
        assert inner.duration_s == pytest.approx(1.0)
        assert outer.duration_s == pytest.approx(3.0)
        assert outer.self_s == pytest.approx(2.0)

    def test_attributes_attach(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("stage", cells=10) as sp:
            sp.set(period_ps=123.4)
        span = tracer.finished()[0]
        assert span.attributes == {"cells": 10, "period_ps": 123.4}

    def test_call_counts_and_aggregate(self):
        tracer = Tracer(clock=TickClock())
        for _ in range(3):
            with tracer.span("hot"):
                pass
        with tracer.span("cold"):
            pass
        assert tracer.call_counts() == {"hot": 3, "cold": 1}
        rollup = {
            h.name: h
            for h in self_time_rollup(aggregate_spans(tracer.finished()))
        }
        assert rollup["hot"].calls == 3
        assert rollup["hot"].total_ms == pytest.approx(3000.0)

    def test_wrap_decorator(self):
        tracer = Tracer(clock=TickClock())

        @tracer.wrap("work")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert tracer.call_counts() == {"work": 1}

    def test_empty_name_rejected(self):
        tracer = Tracer()
        with pytest.raises(ObsError):
            tracer.span("")

    def test_threads_trace_independently(self):
        tracer = Tracer()
        errors = []

        def flow(name):
            try:
                with tracer.span(name):
                    with tracer.span(name + ".inner"):
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=flow, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        spans = tracer.finished()
        assert len(spans) == 8
        # Each inner span's parent is its own thread's outer span.
        by_index = {s.index: s for s in spans}
        for span in spans:
            if span.name.endswith(".inner"):
                assert by_index[span.parent].name == span.name[:-6]


class TestMetrics:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        counter = reg.counter("calls")
        counter.inc()
        counter.inc(2.0)
        assert counter.value() == pytest.approx(3.0)

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ObsError):
            reg.counter("calls").inc(-1.0)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("speed")
        gauge.set(1.0)
        gauge.set(5.0)
        assert gauge.value() == pytest.approx(5.0)

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        counter = reg.counter("calls")
        counter.inc(1.0, stage="map")
        counter.inc(4.0, stage="place")
        assert counter.value(stage="map") == pytest.approx(1.0)
        assert counter.value(stage="place") == pytest.approx(4.0)
        assert counter.value() == pytest.approx(0.0)

    def test_histogram_percentiles(self):
        reg = MetricsRegistry()
        hist = reg.histogram("ms")
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.count() == 100
        assert hist.mean() == pytest.approx(50.5)
        assert hist.percentile(0) == pytest.approx(1.0)
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(95) == pytest.approx(95.05)
        assert hist.percentile(100) == pytest.approx(100.0)

    def test_histogram_percentile_bounds(self):
        reg = MetricsRegistry()
        hist = reg.histogram("ms")
        hist.observe(1.0)
        with pytest.raises(ObsError):
            hist.percentile(101)

    def test_histogram_percentile_empty_is_nan_with_warning(self):
        import math

        reg = MetricsRegistry()
        hist = reg.histogram("ms")
        with pytest.warns(RuntimeWarning, match="no observations"):
            value = hist.percentile(50)
        assert math.isnan(value)
        # An unseen label series is just as empty.
        hist.observe(1.0)
        with pytest.warns(RuntimeWarning):
            assert math.isnan(hist.percentile(50, missing="label"))

    def test_histogram_percentile_single_sample(self):
        reg = MetricsRegistry()
        hist = reg.histogram("ms")
        hist.observe(7.5)
        assert hist.percentile(0) == 7.5
        assert hist.percentile(50) == 7.5
        assert hist.percentile(100) == 7.5

    def test_label_cardinality_bounded(self):
        reg = MetricsRegistry(max_series=4)
        counter = reg.counter("calls")
        for i in range(4):
            counter.inc(1.0, key=str(i))
        with pytest.raises(ObsError):
            counter.inc(1.0, key="overflow")
        hist = reg.histogram("ms")
        for i in range(4):
            hist.observe(1.0, key=str(i))
        with pytest.raises(ObsError):
            hist.observe(1.0, key="overflow")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObsError):
            reg.gauge("x")

    def test_get_or_create_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")


class TestExport:
    def _traced_run(self):
        tracer = Tracer(clock=TickClock())
        reg = MetricsRegistry()
        with tracer.span("flow", bits=8):
            with tracer.span("flow.map") as sp:
                sp.set(cells=42)
            with tracer.span("flow.sta"):
                reg.histogram("sta.ms").observe(1.5)
        reg.counter("sta.calls").inc(3.0, stage="size")
        reg.gauge("samples_per_sec").set(1e6)
        return tracer, reg

    def test_jsonl_valid_and_deterministic(self):
        first = trace_to_jsonl(self._traced_run()[0])
        second = trace_to_jsonl(self._traced_run()[0])
        assert first == second  # fake clock => byte-identical
        lines = first.strip().splitlines()
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == [
            "flow", "flow.map", "flow.sta",
        ]
        assert records[1]["attrs"] == {"cells": 42}
        assert records[1]["parent"] == records[0]["index"]

    def test_metrics_flat_shape(self):
        _, reg = self._traced_run()
        flat = metrics_to_flat(reg)
        assert flat["sta.calls{stage=size}"] == pytest.approx(3.0)
        assert flat["samples_per_sec"] == pytest.approx(1e6)
        assert flat["sta.ms.count"] == 1
        assert flat["sta.ms.p50"] == pytest.approx(1.5)
        assert metrics_to_flat(self._traced_run()[1]) == flat

    def test_write_trace_and_metrics(self, tmp_path):
        tracer, reg = self._traced_run()
        trace_file = tmp_path / "t.jsonl"
        metrics_file = tmp_path / "m.json"
        assert obs.write_trace(tracer, str(trace_file)) == 3
        assert obs.write_metrics(reg, str(metrics_file)) > 0
        for line in trace_file.read_text().strip().splitlines():
            json.loads(line)
        json.loads(metrics_file.read_text())

    def test_report_renders_spans_and_metrics(self):
        tracer, reg = self._traced_run()
        text = obs.report(tracer, reg)
        assert "flow.map" in text
        assert "sta.calls{stage=size}" in text

    def test_empty_report(self):
        text = obs.report(Tracer(), MetricsRegistry())
        assert "no observability data" in text

    def test_chrome_trace_shape(self):
        tracer, _ = self._traced_run()
        doc = json.loads(obs.trace_to_chrome(tracer))
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        assert [e["name"] for e in complete] == [
            "flow", "flow.map", "flow.sta",
        ]
        # TickClock ticks once per start/stop: flow spans ticks 0..5.
        flow = complete[0]
        assert flow["ts"] == 0
        assert flow["dur"] == pytest.approx(5e6)  # 5 s in microseconds
        assert flow["args"]["bits"] == 8
        # Self-describing args: depth and exclusive self time ride
        # every event (flow holds 5 s total, children 2 s).
        assert flow["args"]["depth"] == 0
        assert flow["args"]["self_ms"] == pytest.approx(3e3)
        assert all(e["pid"] == 0 for e in complete)
        meta_names = {e["name"] for e in meta}
        assert {"process_name", "process_sort_index", "thread_name",
                "thread_sort_index"} <= meta_names
        assert meta[0]["args"] == {"name": "repro-gap"}

    def test_chrome_trace_deterministic_and_written(self, tmp_path):
        first = obs.trace_to_chrome(self._traced_run()[0])
        second = obs.trace_to_chrome(self._traced_run()[0])
        assert first == second
        out = tmp_path / "trace.json"
        assert obs.write_chrome_trace(self._traced_run()[0],
                                      str(out)) == 3
        json.loads(out.read_text())


class TestGlobalSwitch:
    def test_disabled_by_default_fast_path(self):
        assert not obs.enabled()
        handle = obs.span("anything", cells=1)
        assert handle is obs.NOOP_SPAN  # shared singleton, nothing allocated
        with handle as sp:
            sp.set(more=2)
        obs.count("calls")
        obs.observe("ms", 1.0)
        obs.gauge("speed", 2.0)
        assert obs.get_tracer().finished() == []
        assert obs.get_metrics().all_metrics() == []

    def test_enable_records_and_disable_stops(self):
        obs.enable()
        with obs.span("stage"):
            obs.count("calls")
        assert obs.get_tracer().call_counts() == {"stage": 1}
        obs.disable()
        with obs.span("stage"):
            obs.count("calls")
        assert obs.get_tracer().call_counts() == {"stage": 1}
        assert obs.get_metrics().counter("calls").value() == 1.0

    def test_enable_fresh_resets(self):
        obs.enable()
        with obs.span("old"):
            pass
        obs.enable()  # fresh=True default
        assert obs.get_tracer().finished() == []

    def test_traced_decorator_checks_at_call_time(self):
        @obs.traced("worker")
        def worker():
            return 7

        assert worker() == 7
        assert obs.get_tracer().finished() == []
        obs.enable()
        assert worker() == 7
        assert obs.get_tracer().call_counts() == {"worker": 1}

    def test_enable_with_fake_clock(self):
        obs.enable(clock=TickClock())
        with obs.span("a"):
            pass
        span = obs.get_tracer().finished()[0]
        assert span.start_s == 0.0
        assert span.end_s == 1.0


class TestInstrumentedHotPaths:
    def test_flow_emits_stage_spans_and_sta_metrics(self):
        from repro.flows import AsicFlowOptions, run_asic_flow

        obs.enable()
        run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=2))
        counts = obs.get_tracer().call_counts()
        for stage in ("map", "place", "cts", "size", "sta", "quote"):
            assert counts[f"flow.asic.{stage}"] == 1
        assert counts["flow.asic"] == 1
        assert counts["sizing.tilos"] >= 1
        reg = obs.get_metrics()
        assert reg.counter("sta.array.analyze.calls").value() > 0
        assert reg.counter("sta.solve_min_period.calls").value() >= 1
        assert reg.histogram("sta.solve_min_period.iterations").count() >= 1
        assert reg.counter("variation.montecarlo.samples").value() == 4000
        assert reg.histogram("sizing.tilos.moves").count() == 1

    def test_flow_records_nothing_when_disabled(self):
        from repro.flows import AsicFlowOptions, run_asic_flow

        run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=1))
        assert obs.get_tracer().finished() == []
        assert obs.get_metrics().all_metrics() == []

    def test_joint_sizing_metrics(self):
        from repro.sizing.joint import joint_size
        from repro.tech import CMOS250_ASIC

        obs.enable()
        joint_size(CMOS250_ASIC, length_um=500.0, load_ff=20.0)
        reg = obs.get_metrics()
        assert reg.counter("sizing.joint.calls").value() == 1
        assert reg.histogram("sizing.joint.rounds").count() == 1
