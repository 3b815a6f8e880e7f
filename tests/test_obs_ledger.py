"""Tests for the persistent run ledger, regression engine, and renderers."""

import json
import os

import pytest

from repro.obs import ledger, regress, render
from repro.obs.ledger import RunLedger, RunRecord
from repro.obs.regress import Thresholds
from repro.obs import TickClock, Tracer


def make_record(run_id="", kind="flow", fingerprint="fp0", wall_s=1.0,
                stages=None, metrics=None, claims=None, **kwargs):
    return RunRecord(
        kind=kind, label="test.run", fingerprint=fingerprint,
        run_id=run_id, created_s=1.0 if run_id else 0.0,
        git_rev=kwargs.pop("git_rev", "abc123"),
        wall_s=wall_s, stages=stages or [], metrics=metrics or {},
        claims=claims or {}, **kwargs,
    )


def stage(name, wall_s, cache_hit=False, status="ok"):
    return {"name": name, "status": status, "wall_s": wall_s,
            "cache_hit": cache_hit, "fingerprint": f"st-{name}"}


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.json"
        ledger._atomic_write_text(str(target), "hello\n")
        assert target.read_text() == "hello\n"

    def test_overwrites_whole_file(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("a much longer previous payload")
        ledger._atomic_write_text(str(target), "short")
        assert target.read_text() == "short"

    def test_no_temp_litter(self, tmp_path):
        target = tmp_path / "out.json"
        ledger._atomic_write_text(str(target), "x")
        assert os.listdir(tmp_path) == ["out.json"]


class TestRunRecord:
    def test_round_trip(self):
        rec = make_record(run_id="0001", stages=[stage("map", 0.5)],
                          metrics={"a": 1}, claims={"c": {"value": 2.0}})
        clone = RunRecord.from_dict(
            json.loads(json.dumps(rec.to_dict()))
        )
        assert clone == rec

    def test_foreign_schema_rejected(self):
        payload = make_record(run_id="0001").to_dict()
        payload["schema"] = 99
        with pytest.raises(ledger.LedgerError):
            RunRecord.from_dict(payload)

    def test_non_dict_rejected(self):
        with pytest.raises(ledger.LedgerError):
            RunRecord.from_dict([1, 2, 3])

    def test_stage_summary(self):
        rec = make_record(stages=[
            stage("map", 0.1, cache_hit=True),
            stage("place", 0.2),
            stage("size", 0.3, status="failed"),
        ])
        assert rec.stage_summary() == "3 stages (1 cached, 1 failed)"
        assert make_record().stage_summary() == "-"


class TestRunLedger:
    def test_append_assigns_identity(self, tmp_path):
        led = RunLedger(str(tmp_path / "runs"))
        rec = RunRecord(kind="flow", label="x", fingerprint="f")
        path = led.append(rec)
        assert rec.run_id and rec.created_s > 0
        assert os.path.basename(path) == f"run-{rec.run_id}.json"

    def test_write_list_show_diff_round_trip(self, tmp_path):
        led = RunLedger(str(tmp_path / "runs"))
        first = make_record(stages=[stage("map", 0.1)])
        second = make_record(stages=[stage("map", 0.2)])
        first.run_id = ""
        second.run_id = ""
        led.append(first)
        led.append(second)
        # list: oldest first, both readable
        records = led.records()
        assert [r.run_id for r in records] == [first.run_id,
                                               second.run_id]
        # show: load by unique prefix and by "last"
        assert led.load(first.run_id).run_id == first.run_id
        assert led.load("last").run_id == second.run_id
        # diff: renders the stage delta between the two loaded records
        text = render.diff_runs(led.load(first.run_id), led.load("last"))
        assert "map" in text and "+100%" in text

    def test_load_unknown_and_ambiguous(self, tmp_path):
        led = RunLedger(str(tmp_path / "runs"))
        led.append(make_record(run_id="aa01"))
        led.append(make_record(run_id="aa02"))
        with pytest.raises(ledger.LedgerError):
            led.load("zz")
        with pytest.raises(ledger.LedgerError):
            led.load("aa")
        assert led.load("aa01").run_id == "aa01"

    def test_empty_ledger_load_raises(self, tmp_path):
        with pytest.raises(ledger.LedgerError):
            RunLedger(str(tmp_path / "runs")).load("last")

    def test_corrupt_record_skipped(self, tmp_path):
        led = RunLedger(str(tmp_path / "runs"))
        led.append(make_record(run_id="good"))
        (tmp_path / "runs" / "run-bad.json").write_text("{trunca")
        assert [r.run_id for r in led.records()] == ["good"]

    def test_kind_and_fingerprint_filters(self, tmp_path):
        led = RunLedger(str(tmp_path / "runs"))
        led.append(make_record(run_id="01", kind="flow",
                               fingerprint="a"))
        led.append(make_record(run_id="02", kind="bench",
                               fingerprint="a"))
        led.append(make_record(run_id="03", kind="flow",
                               fingerprint="b"))
        assert len(led.records(kind="flow")) == 2
        assert len(led.records(kind="flow", fingerprint="a")) == 1
        assert led.latest(kind="bench").run_id == "02"


class TestModuleState:
    def test_disabled_record_is_noop(self, tmp_path):
        assert not ledger.enabled()
        assert ledger.record(make_record()) is None
        assert ledger.get_ledger().records() == []

    def test_enabled_record_persists(self):
        ledger.set_enabled(True)
        path = ledger.record(RunRecord(kind="flow", label="x",
                                       fingerprint="f"))
        assert path is not None and os.path.exists(path)
        assert len(ledger.get_ledger().records()) == 1

    def test_configure_overrides_env(self, tmp_path):
        explicit = tmp_path / "elsewhere"
        ledger.configure(str(explicit))
        assert ledger.runs_dir() == str(explicit)
        ledger.configure(None)
        assert ledger.runs_dir() == os.environ[ledger.ENV_DIR]

    def test_buffering_and_adopt(self):
        ledger.enable_buffering()
        ledger.record(RunRecord(kind="flow", label="w", fingerprint="f"))
        buffered = ledger.drain_buffer()
        assert len(buffered) == 1
        assert buffered[0]["run_id"]          # identity assigned worker-side
        assert ledger.drain_buffer() == []    # drained
        assert ledger.get_ledger().records() == []  # nothing on disk yet
        # Parent side: direct mode again, merge the worker batch.
        ledger.set_enabled(True)
        assert ledger.adopt(buffered) == 1
        records = ledger.get_ledger().records()
        assert len(records) == 1
        assert records[0].worker is True
        assert records[0].run_id == buffered[0]["run_id"]

    def test_adopt_skips_malformed(self):
        ledger.set_enabled(True)
        assert ledger.adopt([{"schema": 99}, "nonsense"]) == 0


class TestRegress:
    def test_no_baseline_returns_none(self):
        assert regress.regress([]) is None
        only = make_record(run_id="01")
        assert regress.regress([only]) is None
        other = make_record(run_id="00", fingerprint="different")
        assert regress.regress([other, only]) is None

    def test_identical_runs_pass(self):
        records = [make_record(run_id=f"0{i}", wall_s=1.0,
                               stages=[stage("map", 0.5)])
                   for i in range(3)]
        report = regress.regress(records)
        assert report is not None and report.ok
        assert report.checks >= 2 and report.findings == []

    def test_total_wall_regression_fails(self):
        records = [make_record(run_id="01", wall_s=1.0),
                   make_record(run_id="02", wall_s=2.0)]
        report = regress.regress(records)
        assert not report.ok
        assert report.failures[0].kind == "total_wall"

    def test_absolute_floor_suppresses_noise(self):
        # +100% relative but only 10 ms absolute: under the 20 ms floor.
        records = [make_record(run_id="01", wall_s=0.010),
                   make_record(run_id="02", wall_s=0.020)]
        assert regress.regress(records).ok

    def test_relative_floor_suppresses_large_slow_runs(self):
        # +0.2 s absolute but only +20% relative: under the 50% bar.
        records = [make_record(run_id="01", wall_s=1.0),
                   make_record(run_id="02", wall_s=1.2)]
        assert regress.regress(records).ok

    def test_stage_wall_like_for_like(self):
        # The only prior run of the size stage was a cache replay; the
        # current uncached execution must not be compared against it.
        records = [
            make_record(run_id="01", wall_s=1.0,
                        stages=[stage("size", 0.001, cache_hit=True)]),
            make_record(run_id="02", wall_s=1.0,
                        stages=[stage("size", 0.4)]),
        ]
        report = regress.regress(records)
        assert report.ok
        # An uncached peer exists -> the comparison happens and fails.
        records.insert(0, make_record(run_id="00", wall_s=1.0,
                                      stages=[stage("size", 0.05)]))
        report = regress.regress(records)
        assert [f.kind for f in report.failures] == ["stage_wall"]
        assert report.failures[0].key == "size"

    def test_hit_rate_drop_fails(self):
        records = [
            make_record(run_id="01",
                        metrics={"cache.stage.hit_rate": 0.9}),
            make_record(run_id="02",
                        metrics={"cache.stage.hit_rate": 0.5}),
        ]
        report = regress.regress(records)
        assert [f.kind for f in report.failures] == ["cache_hit_rate"]

    def test_hit_rate_only_in_baseline_is_no_finding(self):
        # Bench records from before the delay memo was retired carry
        # cache.sta.arc.* keys; they must stay comparable with new ones.
        records = [
            make_record(run_id="01",
                        metrics={"cache.sta.arc.hit_rate": 0.99,
                                 "cache.stage.hit_rate": 0.5}),
            make_record(run_id="02",
                        metrics={"cache.stage.hit_rate": 0.5}),
        ]
        report = regress.regress(records)
        assert not [f for f in report.findings
                    if f.kind == "cache_hit_rate"]

    def test_claim_band_escape_fails(self):
        records = [
            make_record(run_id="01",
                        claims={"gap": {"value": 3.0, "lo": 2.0,
                                        "hi": 4.0, "ok": True}}),
            make_record(run_id="02",
                        claims={"gap": {"value": 5.0, "lo": 2.0,
                                        "hi": 4.0, "ok": False}}),
        ]
        report = regress.regress(records)
        assert [f.kind for f in report.failures] == ["claim_band"]

    def test_in_band_drift_warns(self):
        records = [
            make_record(run_id="01",
                        claims={"gap": {"value": 3.0, "lo": 2.0,
                                        "hi": 4.0, "ok": True}}),
            make_record(run_id="02",
                        claims={"gap": {"value": 3.5, "lo": 2.0,
                                        "hi": 4.0, "ok": True}}),
        ]
        report = regress.regress(records)
        assert report.ok                      # warns do not fail the gate
        assert [f.kind for f in report.findings] == ["claim_drift"]
        assert report.findings[0].severity == "warn"

    def test_baseline_is_median_of_last_n(self):
        # One slow outlier among the baselines must not poison the
        # median; and only the last N feed it.
        records = [make_record(run_id=f"{i:02d}", wall_s=w)
                   for i, w in enumerate([9.0, 1.0, 1.0, 5.0, 1.0, 1.0])]
        current = make_record(run_id="99", wall_s=1.1)
        report = regress.regress(
            records + [current], thresholds=Thresholds(baseline_n=5)
        )
        assert report.ok
        assert len(report.baseline_ids) == 5
        assert "00" not in report.baseline_ids  # outside the window

    def test_explicit_current_run(self):
        records = [make_record(run_id="01", wall_s=1.0),
                   make_record(run_id="02", wall_s=3.0),
                   make_record(run_id="03", wall_s=1.0)]
        report = regress.regress(records, current=records[1])
        assert not report.ok   # 02 vs baseline {01}

    def test_render_mentions_findings(self):
        records = [make_record(run_id="01", wall_s=1.0),
                   make_record(run_id="02", wall_s=2.5)]
        report = regress.regress(records)
        text = report.render()
        assert "FAIL" in text and "total_wall" in text
        assert json.dumps(report.to_dict())   # JSON-clean


class TestSpanTreeRendering:
    def _nested_tracer(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("flow.asic"):
            with tracer.span("flow.asic.map"):
                pass
            with tracer.span("flow.asic.size", cached=True):
                pass
        return tracer

    def test_nested_tree_indented(self):
        entries = render.aggregate_spans(self._nested_tracer().finished())
        assert [e["path"] for e in entries] == [
            "flow.asic",
            "flow.asic > flow.asic.map",
            "flow.asic > flow.asic.size",
        ]
        text = render.render_span_entries(entries)
        assert "  flow.asic.map" in text       # depth-1 indent
        assert "[cached]" in text

    def test_adopted_worker_spans_join_the_tree(self):
        tracer = Tracer(clock=TickClock())
        worker = Tracer(clock=TickClock())
        with worker.span("flow.asic"):
            with worker.span("flow.asic.map"):
                pass
        with tracer.span("par.sweep"):
            tracer.adopt(worker.finished())
        entries = render.aggregate_spans(tracer.finished())
        paths = [e["path"] for e in entries]
        assert "par.sweep > flow.asic > flow.asic.map" in paths

    def test_self_time_excludes_children(self):
        entries = render.aggregate_spans(self._nested_tracer().finished())
        root = entries[0]
        assert root["total_ms"] > root["self_ms"]

    def test_waterfall_bars_and_hits(self):
        text = render.render_waterfall([
            stage("map", 0.5),
            stage("size", 0.5, cache_hit=True),
        ])
        assert "stage waterfall (total 1.0000 s)" in text
        lines = text.splitlines()
        assert "#" in lines[1]
        assert lines[2].endswith(" hit")

    def test_render_run_sections(self):
        rec = make_record(
            run_id="01",
            stages=[stage("map", 0.5)],
            metrics={"note.x": 1.0},
            claims={"gap": {"value": 3.0, "lo": 2.0, "hi": 4.0,
                            "ok": True}},
        )
        text = render.render_run(rec)
        assert "run 01" in text
        assert "stage waterfall" in text
        assert "note.x" in text
        assert "gap" in text


class TestFlowLedgerIntegration:
    def _run(self, fault=None):
        from repro.flows import AsicFlowOptions, run_asic_flow

        run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=2,
                                      fault=fault))

    def test_two_runs_share_a_fingerprint(self):
        ledger.set_enabled(True)
        self._run()
        self._run()
        records = ledger.get_ledger().records(kind="flow")
        assert len(records) == 2
        assert records[0].fingerprint == records[1].fingerprint
        assert records[0].run_id < records[1].run_id
        assert {s["name"] for s in records[0].stages} >= {"map", "size"}
        report = regress.regress(records)
        assert report is not None
        assert report.baseline_ids == [records[0].run_id]

    def test_slow_fault_trips_the_gate(self):
        # The acceptance scenario: two clean runs build the baseline,
        # then a slow:size fault run must regress. The fault is a
        # policy field, so the fingerprint still matches the baseline.
        ledger.set_enabled(True)
        self._run()
        self._run()
        self._run(fault="slow:size")
        records = ledger.get_ledger().records(kind="flow")
        assert len({r.fingerprint for r in records}) == 1
        report = regress.regress(records)
        assert not report.ok
        assert any(f.kind == "stage_wall" and f.key == "size"
                   for f in report.failures)

    def test_disabled_by_default_writes_nothing(self):
        self._run()
        assert ledger.get_ledger().records() == []
