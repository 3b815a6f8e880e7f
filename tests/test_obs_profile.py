"""Tests for the deep-profiling layer (repro.obs.profile)."""

import json

import pytest

from repro import obs
from repro.flows import AsicFlowOptions, run_asic_flow
from repro.flows.results import StageRecord
from repro.obs import ObsError, Span, TickClock, Tracer, aggregate_spans
from repro.obs import ledger as run_ledger
from repro.obs import profile as obs_profile
from repro.obs import regress
from repro.obs.render import render_metrics


@pytest.fixture(autouse=True)
def _clean_profile_state():
    """Every test starts and ends with profiling off."""
    obs_profile.reset_state()
    obs.disable()
    obs.reset()
    yield
    obs_profile.reset_state()
    obs.disable()
    obs.reset()


# ---------------------------------------------------------------------------
# Module switch.


class TestSwitch:
    def test_off_by_default(self):
        assert not obs_profile.enabled()
        assert obs_profile.stage_probe() is obs_profile.NOOP_PROBE

    def test_configure_each_axis_independently(self):
        obs_profile.configure(cpu=True)
        assert obs_profile.cpu_enabled()
        assert not obs_profile.mem_enabled()
        obs_profile.configure(mem=True)
        assert obs_profile.cpu_enabled()  # unchanged by mem flip
        assert obs_profile.mem_mode() == "sampled"
        obs_profile.configure(mem="trace")
        assert obs_profile.mem_mode() == "trace"
        obs_profile.configure(mem=False)
        assert obs_profile.mem_mode() is None

    def test_unknown_mem_mode_rejected(self):
        with pytest.raises(ObsError, match="memory-profiling mode"):
            obs_profile.configure(mem="rss")

    def test_snapshot_apply_round_trip(self):
        obs_profile.configure(cpu=True, mem="trace")
        cfg = obs_profile.snapshot()
        obs_profile.reset_state()
        assert not obs_profile.enabled()
        obs_profile.apply(cfg)
        assert obs_profile.cpu_enabled()
        assert obs_profile.mem_mode() == "trace"

    def test_apply_none_is_noop(self):
        obs_profile.apply(None)
        assert not obs_profile.enabled()

    def test_apply_off_snapshot_disables_mem(self):
        obs_profile.configure(mem="sampled")
        obs_profile.apply((False, None))
        assert obs_profile.mem_mode() is None


# ---------------------------------------------------------------------------
# Stage probe.


class TestStageProbe:
    def test_noop_probe_contract(self):
        probe = obs_profile.NOOP_PROBE
        with probe:
            pass
        assert probe.active is False
        assert probe.cpu_s is None
        assert probe.peak_mem_kb is None
        assert probe.span_attrs() == {}

    def test_cpu_only(self):
        probe = obs_profile.StageProbe(cpu=True, mem=None)
        with probe:
            sum(range(10000))
        assert probe.cpu_s is not None and probe.cpu_s >= 0.0
        assert probe.peak_mem_kb is None
        assert probe.span_attrs() == {"cpu_s": probe.cpu_s}

    def test_trace_mode_measures_allocation(self):
        probe = obs_profile.StageProbe(cpu=False, mem="trace")
        with probe:
            block = bytearray(2 * 1024 * 1024)  # 2 MiB
            del block
        assert probe.cpu_s is None
        assert probe.peak_mem_kb is not None
        assert probe.peak_mem_kb >= 2048.0

    def test_trace_mode_nests_under_outer_tracing(self):
        import tracemalloc

        tracemalloc.start()
        try:
            probe = obs_profile.StageProbe(cpu=False, mem="trace")
            with probe:
                block = bytearray(1024 * 1024)
                del block
            # The probe must not stop tracing it did not start.
            assert tracemalloc.is_tracing()
            assert probe.peak_mem_kb is not None
            assert probe.peak_mem_kb >= 1024.0
        finally:
            tracemalloc.stop()

    def test_sampled_mode_reports_process_rss(self):
        if not obs_profile._RSS_AVAILABLE:
            pytest.skip("no /proc/self/statm on this platform")
        probe = obs_profile.StageProbe(cpu=True, mem="sampled")
        with probe:
            block = bytearray(8 * 1024 * 1024)
            del block
        # Absolute resident size: at least the interpreter's footprint.
        assert probe.peak_mem_kb is not None
        assert probe.peak_mem_kb > 1024.0
        assert set(probe.span_attrs()) == {"cpu_s", "peak_mem_kb"}

    def test_stage_probe_follows_configuration(self):
        obs_profile.configure(cpu=True)
        probe = obs_profile.stage_probe()
        assert isinstance(probe, obs_profile.StageProbe)
        assert probe.active is True


# ---------------------------------------------------------------------------
# Self-time rollup and critical path.


def _entries(tracer: Tracer) -> list[dict]:
    return aggregate_spans(tracer.finished())


class TestSelfTime:
    def test_rollup_math_on_synthetic_tree(self):
        # TickClock: every clock read advances 1s.
        tracer = Tracer(clock=TickClock())
        with tracer.span("flow"):           # start=0
            with tracer.span("place"):      # 1..2
                pass
            with tracer.span("sta"):        # 3..4
                pass
        # flow: 0..5 total 5s, children 2s, self 3s.
        spots = obs_profile.self_time_rollup(_entries(tracer))
        by_name = {s.name: s for s in spots}
        assert by_name["flow"].self_ms == pytest.approx(3000.0)
        assert by_name["flow"].total_ms == pytest.approx(5000.0)
        assert by_name["place"].self_ms == pytest.approx(1000.0)
        assert by_name["sta"].self_ms == pytest.approx(1000.0)
        # Self times add up to the run's wall time, no double counting.
        assert sum(s.self_ms for s in spots) == pytest.approx(5000.0)
        assert sum(s.self_pct for s in spots) == pytest.approx(100.0)

    def test_rollup_merges_same_label_across_paths(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("a"):
            with tracer.span("sta"):
                pass
        with tracer.span("b"):
            with tracer.span("sta"):
                pass
        spots = obs_profile.self_time_rollup(_entries(tracer))
        sta = next(s for s in spots if s.name == "sta")
        assert sta.calls == 2
        assert sta.self_ms == pytest.approx(2000.0)

    def test_rollup_sorted_hottest_first(self):
        entries = [
            {"name": "cold", "calls": 1, "self_ms": 1.0, "total_ms": 1.0},
            {"name": "hot", "calls": 1, "self_ms": 9.0, "total_ms": 9.0},
        ]
        spots = obs_profile.self_time_rollup(entries)
        assert [s.name for s in spots] == ["hot", "cold"]

    def test_rollup_empty(self):
        assert obs_profile.self_time_rollup([]) == []

    def test_hotspot_to_dict(self):
        spot = obs_profile.self_time_rollup(
            [{"name": "x", "calls": 2, "self_ms": 5.0, "total_ms": 7.0}]
        )[0]
        assert spot.to_dict() == {
            "name": "x", "calls": 2, "self_ms": 5.0, "total_ms": 7.0,
            "self_pct": 100.0,
        }


class TestCriticalPath:
    def test_descends_heaviest_chain(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("flow"):
            with tracer.span("place"):      # heavier: has a child
                with tracer.span("anneal"):
                    pass
            with tracer.span("cts"):
                pass
        chain = obs_profile.critical_path(_entries(tracer))
        assert [e["name"] for e in chain] == ["flow", "place", "anneal"]

    def test_picks_heaviest_root(self):
        entries = [
            {"path": "light", "name": "light", "total_ms": 1.0},
            {"path": "heavy", "name": "heavy", "total_ms": 9.0},
        ]
        chain = obs_profile.critical_path(entries)
        assert [e["name"] for e in chain] == ["heavy"]

    def test_empty(self):
        assert obs_profile.critical_path([]) == []

    def test_render_critical_path(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("flow"):
            with tracer.span("place"):
                pass
        text = obs_profile.render_critical_path(_entries(tracer))
        assert "critical path" in text
        assert "flow" in text and "place" in text
        assert "100.0%" in text

    def test_render_self_report_combines_both(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("flow"):
            pass
        text = obs_profile.render_self_report(_entries(tracer))
        assert "span (by self time)" in text
        assert "critical path" in text

    def test_render_empty(self):
        assert "no spans" in obs_profile.render_self_report([])


# ---------------------------------------------------------------------------
# Flame graphs.


def _span(name, index, start, end, parent=None, child_s=0.0):
    return Span(name=name, index=index, start_s=start, end_s=end,
                parent=parent, child_s=child_s)


class TestCollapsedStacks:
    def test_stacks_follow_parent_links(self):
        spans = [
            _span("root", 0, 0.0, 10.0, child_s=4.0),
            _span("leaf", 1, 1.0, 5.0, parent=0),
        ]
        lines = obs_profile.spans_to_collapsed(spans)
        assert lines == ["root 6000000", "root;leaf 4000000"]

    def test_frames_sanitized(self):
        spans = [_span("with space;semi", 0, 0.0, 1.0)]
        lines = obs_profile.spans_to_collapsed(spans)
        assert lines == ["with_space_semi 1000000"]

    def test_open_and_zero_self_spans_skipped(self):
        spans = [
            _span("open", 0, 0.0, None),
            _span("zero", 1, 0.0, 2.0, child_s=2.0),
        ]
        assert obs_profile.spans_to_collapsed(spans) == []

    def test_same_path_weights_aggregate(self):
        spans = [
            _span("work", 0, 0.0, 1.0),
            _span("work", 1, 2.0, 3.0),
        ]
        assert obs_profile.spans_to_collapsed(spans) == ["work 2000000"]

    def test_cprofile_collapse(self):
        import cProfile

        def busy():
            return sum(range(50000))

        profiler = cProfile.Profile()
        profiler.enable()
        busy()
        profiler.disable()
        lines = obs_profile.cprofile_to_collapsed(profiler)
        assert lines, "expected at least one collapsed stack"
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack and int(weight) > 0
        assert any("busy" in line for line in lines)

    def test_write_collapsed(self, tmp_path):
        target = tmp_path / "flame.txt"
        count = obs_profile.write_collapsed(["a;b 10", "a 5"],
                                            str(target))
        assert count == 2
        assert target.read_text() == "a;b 10\na 5\n"
        assert obs_profile.write_collapsed([], str(target)) == 0
        assert target.read_text() == ""


# ---------------------------------------------------------------------------
# Stage records and the flow engine.


class TestStageRecordProfileFields:
    LEGACY_KEYS = {"name", "status", "wall_s", "fingerprint",
                   "cache_hit"}

    def test_unprofiled_to_dict_is_legacy_shape(self):
        record = StageRecord(name="sta", status="ok", wall_s=0.1,
                             fingerprint="f", cache_hit=False)
        assert set(record.to_dict()) == self.LEGACY_KEYS

    def test_profiled_round_trip(self):
        record = StageRecord(name="sta", status="ok", wall_s=0.1,
                             fingerprint="f", cache_hit=False,
                             cpu_s=0.25, peak_mem_kb=512.5)
        payload = record.to_dict()
        assert payload["cpu_s"] == 0.25
        assert payload["peak_mem_kb"] == 512.5
        back = StageRecord.from_dict(json.loads(json.dumps(payload)))
        assert back.cpu_s == 0.25
        assert back.peak_mem_kb == 512.5

    def test_legacy_payload_still_parses(self):
        back = StageRecord.from_dict(
            {"name": "sta", "status": "ok", "wall_s": 0.1,
             "fingerprint": "f", "cache_hit": False})
        assert back.cpu_s is None
        assert back.peak_mem_kb is None


class TestEngineIntegration:
    OPTIONS = AsicFlowOptions(bits=4, sizing_moves=2)

    def test_profiling_off_leaves_stage_records_bare(self):
        result = run_asic_flow(self.OPTIONS)
        for record in result.stage_records:
            assert record.cpu_s is None
            assert record.peak_mem_kb is None

    def test_profiled_flow_prices_every_stage(self):
        obs_profile.configure(cpu=True, mem="trace")
        result = run_asic_flow(self.OPTIONS)
        assert result.stage_records
        for record in result.stage_records:
            assert record.cpu_s is not None, record.name
            assert record.peak_mem_kb is not None, record.name
            assert record.peak_mem_kb > 0.0

    def test_profiling_does_not_change_the_answer(self):
        baseline = run_asic_flow(self.OPTIONS).to_dict()
        obs_profile.configure(cpu=True, mem="trace")
        from repro.flows import cache as stage_cache

        stage_cache.reset()
        profiled = run_asic_flow(self.OPTIONS).to_dict()
        baseline.pop("stages")
        profiled.pop("stages")
        assert baseline == profiled

    def test_profiled_spans_carry_attribution(self):
        obs.enable()
        obs_profile.configure(cpu=True, mem="trace")
        run_asic_flow(self.OPTIONS)
        spans = obs.get_tracer().finished()
        stage_spans = [s for s in spans
                       if s.name.startswith("flow.asic.")]
        assert stage_spans
        for span in stage_spans:
            assert "cpu_s" in span.attributes, span.name
            assert "peak_mem_kb" in span.attributes, span.name


class TestSweepAggregation:
    def test_sweep_record_aggregates_profile_metrics(self):
        from repro.flows.sweep import run_flow_sweep_report

        run_ledger.set_enabled(True)
        obs_profile.configure(cpu=True, mem="trace")
        option_sets = [AsicFlowOptions(bits=4, sizing_moves=2),
                       AsicFlowOptions(bits=5, sizing_moves=2)]
        run_flow_sweep_report(option_sets, workers=1)
        sweeps = run_ledger.get_ledger().records(kind="sweep")
        assert sweeps
        metrics = sweeps[-1].metrics
        assert metrics["profile.cpu_s"] >= 0.0
        assert metrics["profile.peak_mem_kb"] > 0.0

    def test_unprofiled_sweep_record_has_no_profile_metrics(self):
        from repro.flows.sweep import run_flow_sweep_report

        run_ledger.set_enabled(True)
        run_flow_sweep_report([AsicFlowOptions(bits=4, sizing_moves=2)],
                              workers=1)
        metrics = run_ledger.get_ledger().records(kind="sweep")[-1].metrics
        assert "profile.cpu_s" not in metrics
        assert "profile.peak_mem_kb" not in metrics


# ---------------------------------------------------------------------------
# Host context.


class TestHostContext:
    def test_host_context_shape(self):
        host = run_ledger.host_context()
        assert host["python"]
        assert host["platform"]
        assert isinstance(host["cpu_count"], int)
        assert set(host) == {"python", "numpy", "platform", "machine",
                             "node", "cpu_count", "git_dirty"}

    def test_finalize_identity_stamps_host(self):
        record = run_ledger.RunRecord(kind="flow", label="x",
                                      fingerprint="fp")
        run_ledger.finalize_identity(record)
        assert record.host["python"] == run_ledger.host_context()["python"]

    def test_host_round_trips_through_dict(self):
        record = run_ledger.RunRecord(kind="flow", label="x",
                                      fingerprint="fp")
        run_ledger.finalize_identity(record)
        back = run_ledger.RunRecord.from_dict(record.to_dict())
        assert back.host == record.host

    def test_regress_warns_on_cross_host_baselines(self):
        current = run_ledger.RunRecord(kind="flow", label="x",
                                       fingerprint="fp", wall_s=1.0)
        run_ledger.finalize_identity(current)
        foreign = run_ledger.RunRecord.from_dict(current.to_dict())
        foreign.run_id = "baseline-1"
        foreign.host = dict(foreign.host)
        foreign.host["python"] = "2.7.18"
        foreign.host["node"] = "other-box"
        report = regress.compare(current, [foreign])
        mismatches = [f for f in report.findings
                      if f.kind == "host_mismatch"]
        assert len(mismatches) == 1
        assert mismatches[0].severity == "warn"
        assert "node" in mismatches[0].key
        assert "python" in mismatches[0].key

    def test_regress_same_host_has_no_mismatch(self):
        current = run_ledger.RunRecord(kind="flow", label="x",
                                       fingerprint="fp", wall_s=1.0)
        run_ledger.finalize_identity(current)
        twin = run_ledger.RunRecord.from_dict(current.to_dict())
        twin.run_id = "baseline-1"
        report = regress.compare(current, [twin])
        assert not [f for f in report.findings
                    if f.kind == "host_mismatch"]


# ---------------------------------------------------------------------------
# Perf budgets.


BUDGET_TOML = """\
# ceilings
[wall]
"bench.flow.s" = 2.0
plain_key = 1.5

[mem]
"bench.peak_kb" = 1024.0
"""


class TestBudgets:
    def test_load_budgets(self, tmp_path):
        path = tmp_path / "PERF_BUDGETS.toml"
        path.write_text(BUDGET_TOML)
        budgets = obs_profile.load_budgets(str(path))
        assert budgets == {
            "wall": {"bench.flow.s": 2.0, "plain_key": 1.5},
            "mem": {"bench.peak_kb": 1024.0},
        }

    def test_fallback_parser_matches_tomllib(self, tmp_path):
        doc = obs_profile._parse_budget_toml(BUDGET_TOML)
        assert doc == {
            "wall": {"bench.flow.s": 2.0, "plain_key": 1.5},
            "mem": {"bench.peak_kb": 1024.0},
        }

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('[disk]\n"bench.x" = 1.0\n')
        with pytest.raises(ObsError, match="unknown section"):
            obs_profile.load_budgets(str(path))

    def test_non_positive_ceiling_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('[wall]\n"bench.x" = 0.0\n')
        with pytest.raises(ObsError, match="positive number"):
            obs_profile.load_budgets(str(path))

    def test_fallback_parser_rejects_garbage(self):
        with pytest.raises(ObsError, match="expected"):
            obs_profile._parse_budget_toml("[wall]\nnot an assignment\n")
        with pytest.raises(ObsError, match="before any"):
            obs_profile._parse_budget_toml('"k" = 1.0\n')
        with pytest.raises(ObsError, match="non-numeric"):
            obs_profile._parse_budget_toml('[wall]\n"k" = fast\n')

    def test_check_budgets_severities(self):
        budgets = {"wall": {"over": 1.0, "close": 1.0, "fine": 1.0,
                            "absent": 1.0}}
        bench = {"over": 1.5, "close": 0.95, "fine": 0.5}
        report = obs_profile.check_budgets(budgets, bench)
        by_key = {f.key: f for f in report.findings}
        assert by_key["over"].severity == "fail"
        assert by_key["close"].severity == "warn"
        assert by_key["absent"].severity == "info"
        assert "fine" not in by_key
        assert report.checks == 4
        assert not report.ok  # the fail finding gates

    def test_check_budgets_all_green(self):
        report = obs_profile.check_budgets({"wall": {"x": 2.0}},
                                           {"x": 0.5})
        assert report.ok
        assert report.findings == []

    def test_findings_sorted_fail_first(self):
        budgets = {"wall": {"z_over": 1.0}, "mem": {"a_missing": 1.0}}
        report = obs_profile.check_budgets(budgets, {"z_over": 9.0})
        assert [f.severity for f in report.findings] == ["fail", "info"]

    def test_claims_out_of_band_fail(self):
        bench = {"x": 0.5,
                 "claims.test_a.total": 3, "claims.test_a.ok": 2,
                 "claims.test_b.total": 4, "claims.test_b.ok": 4}
        report = obs_profile.check_budgets({"wall": {"x": 2.0}}, bench)
        (finding,) = report.findings
        assert (finding.kind, finding.key) == ("claims", "claims.test_a")
        assert finding.severity == "fail"
        assert (finding.current, finding.baseline) == (2.0, 3.0)
        assert report.checks == 3
        assert not report.ok

    @pytest.mark.parametrize("bench", [
        {"claims.test_a.total": 1},
        {"claims.test_a.total": 1, "claims.test_a.ok": "1"},
        {"claims.test_a.total": None, "claims.test_a.ok": 1},
    ], ids=["missing-ok", "string-ok", "null-total"])
    def test_claims_unreadable_counts_fail(self, bench):
        report = obs_profile.check_budgets({}, bench)
        assert [f.key for f in report.findings] == ["claims.test_a"]
        assert not report.ok

    def test_claims_all_in_band_pass(self):
        report = obs_profile.check_budgets(
            {}, {"claims.test_a.total": 2, "claims.test_a.ok": 2,
                 "claims_total": 2, "claims_ok": 2})
        assert report.ok
        assert report.checks == 1

    def test_gate_exits_3_on_claims_out_of_band(self, tmp_path, capsys):
        from repro.cli import main

        budgets = tmp_path / "budgets.toml"
        budgets.write_text('[wall]\n"x" = 2.0\n')
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(
            {"x": 0.5, "claims.test_a.total": 2, "claims.test_a.ok": 1}
        ))
        args = ["budget", "--budgets", str(budgets), "--bench", str(bench)]
        assert main(args) == 0
        assert main(args + ["--gate"]) == 3
        assert "claims.test_a" in capsys.readouterr().out

    def test_repo_budget_file_is_valid(self):
        budgets = obs_profile.load_budgets("PERF_BUDGETS.toml")
        assert "wall" in budgets
        assert "bench.anneal.place_us_per_move" in budgets["kernel"]
        assert "bench.sta_array.propagate_us_b1" in budgets["kernel"]
        assert "bench.sta_array.propagate_us_b16" in budgets["kernel"]
        assert all(v > 0 for table in budgets.values()
                   for v in table.values())


# ---------------------------------------------------------------------------
# Render details that ride along.


class TestRenderDetails:
    def test_render_metrics_nan_as_dashes(self):
        text = render_metrics({"ratio": float("nan"), "count": 3})
        line = next(ln for ln in text.splitlines() if "ratio" in ln)
        assert "--" in line
        assert "nan" not in line
