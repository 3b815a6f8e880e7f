"""Tests for the repro-gap command-line interface."""

import dataclasses
import json

import pytest

from repro.cli import build_parser, main
from repro.flows import (
    AsicFlowOptions,
    CustomFlowOptions,
    StructuredFlowOptions,
    get_backend,
)


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        commands = set(sub.choices)
        assert {
            "survey", "factors", "flow", "gap", "roadmap", "library",
            "variation", "stats",
        } <= commands

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_flow_style_validated(self):
        with pytest.raises(SystemExit):
            main(["flow", "fpga"])


class TestCommands:
    def test_survey(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "Alpha 21264A" in out
        assert "gap" in out

    def test_factors(self, capsys):
        assert main(["factors"]) == 0
        out = capsys.readouterr().out
        assert "17.8" in out
        assert "residual" in out

    def test_roadmap(self, capsys):
        assert main(["roadmap", "--generations", "2"]) == 0
        out = capsys.readouterr().out
        assert "asymptote" in out
        assert "generation" in out

    def test_variation(self, capsys):
        assert main(["variation", "--count", "2000", "--process",
                     "mature"]) == 0
        out = capsys.readouterr().out
        assert "flagship" in out
        assert "quote" in out

    def test_library_summary_and_export(self, tmp_path, capsys):
        target = tmp_path / "out.lib"
        assert main(["library", "--kind", "poor", "--liberty",
                     str(target)]) == 0
        out = capsys.readouterr().out
        assert "asic_poor" in out
        assert target.exists()
        from repro.cells import from_liberty

        library = from_liberty(target.read_text())
        assert library.drive_count("NAND2") == 2

    def test_flow_asic(self, capsys):
        assert main([
            "flow", "asic", "--bits", "4", "--sizing-moves", "5",
            "--workload", "adder_ripple",
        ]) == 0
        out = capsys.readouterr().out
        assert "asic" in out
        assert "MHz" in out

    def test_flow_custom(self, capsys):
        assert main([
            "flow", "custom", "--bits", "4", "--sizing-moves", "5",
            "--workload", "adder_kogge_stone", "--stages", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "custom" in out

    def test_gap(self, capsys):
        assert main(["gap", "--bits", "4", "--sizing-moves", "5"]) == 0
        out = capsys.readouterr().out
        assert "total quoted-frequency ratio" in out

    def test_flow_json(self, capsys):
        assert main([
            "flow", "asic", "--bits", "4", "--sizing-moves", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["style"] == "asic"
        assert payload["gate_count"] > 0
        assert "wirelength_um" in payload["notes"]

    def test_gap_json(self, capsys):
        assert main([
            "gap", "--bits", "4", "--sizing-moves", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_ratio"] > 1.0
        assert payload["asic"]["style"] == "asic"
        assert payload["custom"]["style"] == "custom"

    def test_flow_structured_json(self, capsys):
        assert main([
            "flow", "structured", "--bits", "4", "--sizing-moves", "2",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["style"] == "structured"
        assert payload["gate_count"] > 0
        assert "fabric_utilization" in payload["notes"]

    def test_gap_three_way_json(self, capsys):
        assert main([
            "gap", "--styles", "asic,structured,custom",
            "--bits", "4", "--sizing-moves", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline"] == "asic"
        assert set(payload["pairwise"]) == {"structured", "custom"}
        structured = payload["pairwise"]["structured"]["total_ratio"]
        custom = payload["pairwise"]["custom"]["total_ratio"]
        assert 1.0 < structured < custom
        # The legacy two-way top-level keys only appear for the exact
        # asic/custom pair.
        assert "total_ratio" not in payload

    def test_gap_three_way_table(self, capsys):
        assert main([
            "gap", "--styles", "asic,structured,custom",
            "--bits", "4", "--sizing-moves", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "total quoted-frequency ratio" in out
        assert "structured" in out

    def test_gap_baseline_must_be_among_styles(self, capsys):
        assert main([
            "gap", "--styles", "asic,structured", "--baseline", "custom",
            "--bits", "4", "--sizing-moves", "2",
        ]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_gap_rejects_unknown_or_duplicate_style(self):
        with pytest.raises(SystemExit):
            main(["gap", "--styles", "asic,fpga"])
        with pytest.raises(SystemExit):
            main(["gap", "--styles", "asic,asic"])


class TestObservabilityFlags:
    def test_gap_profile_prints_stage_report(self, capsys):
        assert main([
            "gap", "--bits", "4", "--sizing-moves", "2", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        for stage in ("map", "place", "cts", "size", "sta", "quote"):
            assert f"flow.asic.{stage}" in out
        assert "sta.solve_min_period" in out

    def test_profile_flag_before_subcommand(self, capsys):
        assert main([
            "--profile", "gap", "--bits", "4", "--sizing-moves", "2",
        ]) == 0
        assert "flow.custom.sta" in capsys.readouterr().out

    def test_gap_trace_writes_jsonl(self, tmp_path, capsys):
        target = tmp_path / "t.jsonl"
        assert main([
            "gap", "--bits", "4", "--sizing-moves", "2",
            "--trace", str(target),
        ]) == 0
        lines = target.read_text().strip().splitlines()
        assert len(lines) >= 10
        names = set()
        for line in lines:
            record = json.loads(line)  # every line is valid JSON
            names.add(record["name"])
            assert record["duration_ms"] >= 0.0
        stages = {n for n in names if n.startswith("flow.")}
        assert len(stages) >= 5
        assert "flow.asic" in names and "flow.custom" in names

    def test_trace_of_unprofiled_command_is_empty(self, tmp_path, capsys):
        target = tmp_path / "t.jsonl"
        assert main(["survey", "--trace", str(target)]) == 0
        assert target.read_text() == ""

    def test_obs_disabled_after_cli_run(self, tmp_path):
        from repro import obs

        main(["gap", "--bits", "4", "--sizing-moves", "2",
              "--trace", str(tmp_path / "t.jsonl")])
        assert not obs.enabled()

    def test_stats_subcommand(self, capsys):
        assert main(["stats", "--bits", "4", "--sizing-moves", "2"]) == 0
        out = capsys.readouterr().out
        assert "span" in out
        assert "flow.asic.sta" in out
        assert "sta.array.analyze.calls" in out

    def test_stats_metrics_json(self, tmp_path, capsys):
        target = tmp_path / "m.json"
        assert main([
            "stats", "--bits", "4", "--sizing-moves", "2",
            "--metrics-json", str(target),
        ]) == 0
        flat = json.loads(target.read_text())
        assert flat["sta.array.analyze.calls"] > 0
        assert "sta.solve_min_period.iterations.p50" in flat

    def test_stats_publishes_no_memo_gauges(self, tmp_path, capsys):
        target = tmp_path / "m.json"
        assert main([
            "stats", "--bits", "4", "--sizing-moves", "2",
            "--metrics-json", str(target),
        ]) == 0
        assert "par.memo." not in capsys.readouterr().out
        assert not [key for key in json.loads(target.read_text())
                    if key.startswith("par.memo.")]

    def test_stats_prom_stdout_and_file(self, tmp_path, capsys):
        assert main(["stats", "--bits", "4", "--sizing-moves", "2",
                     "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE sta_array_analyze_calls_total counter" in out
        assert "_bucket{le=" in out
        target = tmp_path / "m.prom"
        assert main(["stats", "--bits", "4", "--sizing-moves", "2",
                     "--prom", str(target)]) == 0
        text = target.read_text()
        # Second run replays stages from cache, so assert on metrics
        # that exist either way rather than per-stage counters.
        assert "# TYPE" in text and "_total" in text
        assert f"{len(text.splitlines())} Prometheus" \
            in capsys.readouterr().out


class TestLiveTelemetryFlags:
    def test_events_stream_and_top(self, tmp_path, capsys):
        from repro.obs.events import read_events

        stream = tmp_path / "ev.jsonl"
        assert main(["--events", str(stream), "flow", "asic",
                     "--bits", "4", "--sizing-moves", "2"]) == 0
        capsys.readouterr()
        events = list(read_events(str(stream)))
        kinds = {e.kind for e in events}
        assert "stage.start" in kinds and "stage.done" in kinds
        # A second terminal replays the stream into a dashboard.
        assert main(["top", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "live telemetry" in out
        assert "flow asic" in out

    def test_top_missing_stream_errors(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "absent.jsonl")]) == 1
        assert "no event stream" in capsys.readouterr().err

    def test_live_dashboard_written_to_stderr(self, capsys):
        assert main(["--live", "variation", "--count", "2000",
                     "--workers", "2"]) == 0
        err = capsys.readouterr().err
        assert "live telemetry" in err

    def test_trace_chrome_export(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main(["flow", "asic", "--bits", "4",
                     "--sizing-moves", "2",
                     "--trace-chrome", str(target)]) == 0
        doc = json.loads(target.read_text())
        names = {e["name"] for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        assert "flow.asic.sta" in names
        assert "chrome" in capsys.readouterr().err

    def test_stall_timeout_exits_4_with_diagnostic(self, capsys,
                                                   monkeypatch):
        from repro import cli as cli_mod
        from repro.par.sweep import SweepStallError

        def stalling(args):
            raise SweepStallError("sweep 'x': worker silent", reports=[
                {"source": "worker-1", "silent_s": 0.5, "task": "2",
                 "last_kind": "task.start"},
            ])

        monkeypatch.setattr(cli_mod, "_cmd_survey", stalling)
        assert main(["--stall-timeout", "0.5", "survey"]) == 4
        err = capsys.readouterr().err
        assert "worker-1" in err
        assert "silent 0.50 s" in err

    def test_live_disabled_after_cli_run(self, tmp_path):
        from repro.obs import live

        assert main(["--events", str(tmp_path / "e.jsonl"),
                     "survey"]) == 0
        assert not live.enabled()


class TestFlowEngineFlags:
    def test_list_stages_without_style_shows_both(self, capsys):
        assert main(["flow", "--list-stages"]) == 0
        out = capsys.readouterr().out
        assert "asic flow stages" in out
        assert "custom flow stages" in out
        for stage in ("map", "place", "cts", "size", "sta", "quote"):
            assert stage in out

    def test_list_stages_one_style(self, capsys):
        assert main(["flow", "custom", "--list-stages"]) == 0
        out = capsys.readouterr().out
        assert "custom flow stages" in out
        assert "asic flow stages" not in out

    def test_style_required_without_list_stages(self, capsys):
        assert main(["flow"]) == 2
        assert "requires a style" in capsys.readouterr().err

    def test_until_prints_stage_records(self, capsys):
        assert main([
            "flow", "asic", "--bits", "4", "--sizing-moves", "2",
            "--until", "place",
        ]) == 0
        out = capsys.readouterr().out
        assert "stopped after 'place'" in out
        assert "skipped" in out

    def test_until_json_reports_statuses(self, capsys):
        assert main([
            "flow", "asic", "--bits", "4", "--sizing-moves", "2",
            "--until", "cts", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        statuses = {s["name"]: s["status"] for s in payload["stages"]}
        assert statuses["cts"] == "ok"
        assert statuses["sta"] == "skipped"

    def test_unknown_until_stage_exits_2(self, capsys):
        assert main([
            "flow", "asic", "--bits", "4", "--until", "ghost",
        ]) == 2
        assert "unknown --until" in capsys.readouterr().err

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        ck = str(tmp_path / "flow.ck")
        assert main([
            "flow", "asic", "--bits", "4", "--sizing-moves", "2",
            "--until", "cts", "--checkpoint", ck,
        ]) == 0
        capsys.readouterr()
        assert main([
            "flow", "asic", "--bits", "4", "--sizing-moves", "2",
            "--checkpoint", ck, "--resume", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        statuses = {s["name"]: s["status"] for s in payload["stages"]}
        assert statuses["map"] == "resumed"
        assert payload["quoted_frequency_mhz"] > 0

    def test_flow_json_includes_stage_records(self, capsys):
        assert main([
            "flow", "asic", "--bits", "4", "--sizing-moves", "2",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in payload["stages"]] == [
            "map", "place", "cts", "size", "sta", "quote"
        ]
        assert all("wall_s" in s for s in payload["stages"])

    def test_no_cache_forces_recompute(self, capsys):
        args = ["flow", "asic", "--bits", "4", "--sizing-moves", "2",
                "--no-cache", "--json"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(s["status"] == "ok" for s in payload["stages"])

    def test_bench_json_reports_stage_timings(self, capsys):
        assert main([
            "bench", "--count", "500", "--bits", "4",
            "--sizing-moves", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        for stage in ("map", "place", "cts", "size", "sta", "quote"):
            assert payload[f"flow.stage.{stage}.s"] >= 0.0
            assert payload[f"flow.stage.{stage}.cached"] is False
        assert "cache.stage.hit_rate" in payload
        assert not [key for key in payload if key.startswith(
            ("cache.sta.arc.", "cache.sizing.le.", "cache.sizing.joint.",
             "hist.par.memo."))]

    def test_bench_no_cache_turns_the_stage_cache_off(self, capsys):
        assert main([
            "bench", "--count", "500", "--bits", "4", "--sizing-moves",
            "2", "--mc-samples", "50", "--no-cache", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache.enabled"] is False
        assert payload["cache.stage.hits"] == 0


class TestDeepProfiling:
    FLOW = ["flow", "asic", "--bits", "4", "--sizing-moves", "2"]

    def test_profiled_flow_lands_in_ledger(self, capsys):
        from repro.obs import ledger as run_ledger

        assert main(self.FLOW + ["--profile-cpu", "--profile-mem"]) == 0
        records = run_ledger.get_ledger().records(kind="flow")
        assert records
        stages = records[-1].stages
        assert stages
        for stage in stages:
            assert stage["cpu_s"] is not None
            assert stage["peak_mem_kb"] is not None

    def test_profile_flags_reset_after_command(self):
        from repro.obs import profile as obs_profile

        assert main(self.FLOW + ["--profile-cpu", "--profile-mem"]) == 0
        assert not obs_profile.enabled()

    def test_unprofiled_flow_stays_bare(self, capsys):
        assert main(self.FLOW + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for stage in payload["stages"]:
            assert "cpu_s" not in stage
            assert "peak_mem_kb" not in stage

    def test_flame_export(self, tmp_path, capsys):
        target = tmp_path / "flame.txt"
        assert main(self.FLOW + ["--profile-cpu",
                                 "--flame", str(target)]) == 0
        err = capsys.readouterr().err
        assert "flame stacks" in err
        lines = target.read_text().splitlines()
        assert lines
        assert any(line.startswith("flow.asic;") for line in lines)
        # cProfile sidecar rides along with --profile-cpu.
        cpu_lines = (tmp_path / "flame.txt.cpu").read_text().splitlines()
        assert cpu_lines
        for line in lines + cpu_lines:
            stack, _, weight = line.rpartition(" ")
            assert stack and int(weight) > 0

    def test_stats_self_prints_hotspots(self, capsys):
        # --profile turns the tracer on, so the ledger record carries
        # the span tree `stats --self` reads back.
        assert main(self.FLOW + ["--profile"]) == 0
        capsys.readouterr()
        assert main(["stats", "--self"]) == 0
        out = capsys.readouterr().out
        assert "span (by self time)" in out
        assert "critical path" in out
        assert "flow.asic" in out

    def test_stats_self_without_records_errors(self, capsys):
        assert main(["stats", "--self"]) == 1
        assert "no ledger record" in capsys.readouterr().err


class TestBudgetCommand:
    def _write(self, tmp_path, budgets, bench):
        budget_path = tmp_path / "PERF_BUDGETS.toml"
        budget_path.write_text(budgets)
        bench_path = tmp_path / "BENCH.json"
        bench_path.write_text(json.dumps(bench))
        return str(budget_path), str(bench_path)

    def test_budget_ok(self, tmp_path, capsys):
        budgets, bench = self._write(
            tmp_path, '[wall]\n"bench.x.s" = 2.0\n', {"bench.x.s": 0.5})
        assert main(["budget", "--budgets", budgets,
                     "--bench", bench]) == 0
        assert "no finding" in capsys.readouterr().out

    def test_budget_gate_exits_3_on_blown_ceiling(self, tmp_path,
                                                  capsys):
        budgets, bench = self._write(
            tmp_path, '[wall]\n"bench.x.s" = 1.0\n', {"bench.x.s": 5.0})
        assert main(["budget", "--budgets", budgets,
                     "--bench", bench, "--gate"]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "budget_wall" in out

    def test_budget_without_gate_reports_but_exits_0(self, tmp_path):
        budgets, bench = self._write(
            tmp_path, '[wall]\n"bench.x.s" = 1.0\n', {"bench.x.s": 5.0})
        assert main(["budget", "--budgets", budgets,
                     "--bench", bench]) == 0

    def test_budget_json_output(self, tmp_path, capsys):
        budgets, bench = self._write(
            tmp_path, '[wall]\n"bench.x.s" = 1.0\n', {"bench.x.s": 5.0})
        assert main(["budget", "--budgets", budgets,
                     "--bench", bench, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["kind"] == "budget_wall"
        assert payload["findings"][0]["severity"] == "fail"

    def test_budget_missing_files_exit_1(self, tmp_path, capsys):
        assert main(["budget", "--budgets",
                     str(tmp_path / "none.toml")]) == 1
        assert "cannot read budget file" in capsys.readouterr().err
        budgets, _ = self._write(tmp_path, "[wall]\n", {})
        assert main(["budget", "--budgets", budgets,
                     "--bench", str(tmp_path / "none.json")]) == 1
        assert "cannot read bench file" in capsys.readouterr().err

    def test_budget_invalid_toml_exit_1(self, tmp_path, capsys):
        budgets, bench = self._write(
            tmp_path, '[disk]\n"bench.x.s" = 1.0\n', {})
        assert main(["budget", "--budgets", budgets,
                     "--bench", bench]) == 1
        assert "unknown section" in capsys.readouterr().err


class _Captured(Exception):
    """Raised by the stub engine to hand back the options it was given."""

    def __init__(self, options):
        super().__init__("captured")
        self.options = options


@pytest.fixture
def capture_options(monkeypatch):
    """Stub the flow engine: ``run(argv)`` returns the first options.

    Nothing runs; the first ``FlowEngine.run`` call raises with the
    options record the command built, so the mapping from flags to
    option fields is pinned without paying for a flow.
    """
    from repro import obs
    from repro.flows.engine import FlowEngine

    def stub(self, options, tech, **kwargs):
        raise _Captured(options)

    monkeypatch.setattr(FlowEngine, "run", stub)

    def run(argv):
        with pytest.raises(_Captured) as info:
            main(argv)
        return info.value.options

    yield run
    obs.disable()
    obs.reset()


def _asic(**changes):
    return dataclasses.replace(AsicFlowOptions(
        workload="alu", bits=8, pipeline_stages=1, sizing_moves=20,
        seed=1, on_error="raise", fault=None, use_array=True,
        check_array=False, rich_library=True, careful_placement=True,
        speed_test=False,
    ), **changes)


def _custom(**changes):
    return dataclasses.replace(CustomFlowOptions(
        workload="alu_macro", bits=8, pipeline_stages=1, sizing_moves=20,
        seed=1, on_error="raise", fault=None, use_array=True,
        check_array=False, target_cycle_fo4=None, use_latches=True,
        use_domino=True, flagship_silicon=True,
    ), **changes)


def _structured(**changes):
    return dataclasses.replace(StructuredFlowOptions(
        workload="alu", bits=8, pipeline_stages=1, sizing_moves=20,
        seed=1, on_error="raise", fault=None, use_array=True,
        check_array=False, fabric_utilization=0.6,
        careful_assignment=True, speed_test=True,
    ), **changes)


#: flags -> (asic, custom, structured) options ``flow STYLE flags``
#: builds.  A flag that names another style's knob is ignored.
FLOW_OPTIONS_TABLE = [
    # No flags: --stages defaults to 1 for every style, and structured
    # parts are speed-tested without asking.
    ([], _asic(), _custom(), _structured()),
    (["--poor-library"],
     _asic(rich_library=False), _custom(), _structured()),
    (["--sloppy-placement"],
     _asic(careful_placement=False), _custom(), _structured()),
    (["--speed-test"],
     _asic(speed_test=True), _custom(), _structured(speed_test=True)),
    (["--target-fo4", "12"],
     _asic(), _custom(target_cycle_fo4=12.0), _structured()),
    (["--fabric-utilization", "0.4"],
     _asic(), _custom(), _structured(fabric_utilization=0.4)),
    (["--no-array"],
     _asic(use_array=False), _custom(use_array=False),
     _structured(use_array=False)),
    (["--check-array"],
     _asic(check_array=True), _custom(check_array=True),
     _structured(check_array=True)),
    (["--keep-going"],
     _asic(on_error="keep_going"), _custom(on_error="keep_going"),
     _structured(on_error="keep_going")),
    (["--inject-fault", "sta"],
     _asic(fault="sta"), _custom(fault="sta"), _structured(fault="sta")),
    (["--stages", "3", "--bits", "6", "--seed", "7", "--sizing-moves",
      "5", "--workload", "adder_ripple"],
     *(make(workload="adder_ripple", pipeline_stages=3, bits=6, seed=7,
            sizing_moves=5) for make in (_asic, _custom, _structured))),
]

#: The design point ``gap`` runs each style at (bits 6, 5 moves,
#: target 12 FO4); only custom has a cycle-target knob.
GAP_OPTIONS = {
    "asic": AsicFlowOptions(
        workload="alu", bits=6, pipeline_stages=1, sizing_moves=5,
        seed=1, on_error="keep_going", rich_library=True,
        careful_placement=True, speed_test=False,
    ),
    "custom": CustomFlowOptions(
        workload="alu_macro", bits=6, pipeline_stages=4, sizing_moves=5,
        seed=1, on_error="keep_going", target_cycle_fo4=12.0,
    ),
    "structured": StructuredFlowOptions(
        workload="alu", bits=6, pipeline_stages=2, sizing_moves=5,
        seed=1, on_error="keep_going", fabric_utilization=0.6,
        speed_test=True,
    ),
}


class TestOptionsParity:
    @pytest.mark.parametrize("flags,asic,custom,structured",
                             FLOW_OPTIONS_TABLE)
    def test_flow_flags(self, capture_options, flags, asic, custom,
                        structured):
        for style, expected in (("asic", asic), ("custom", custom),
                                ("structured", structured)):
            got = capture_options(["flow", style, *flags])
            assert got == expected, (style, flags)
            assert type(got) is type(expected)

    @pytest.mark.parametrize("style", sorted(GAP_OPTIONS))
    def test_gap_options(self, capture_options, style):
        expected = GAP_OPTIONS[style]
        assert get_backend(style).gap_options(
            bits=6, sizing_moves=5, target_fo4=12.0, on_error="keep_going",
        ) == expected
        assert capture_options([
            "gap", "--styles", style, "--baseline", style, "--bits", "6",
            "--sizing-moves", "5", "--target-fo4", "12", "--keep-going",
        ]) == expected

    def test_stats_runs_the_gap_point(self, capture_options):
        got = capture_options(["stats", "--bits", "6", "--sizing-moves",
                               "5", "--target-fo4", "12"])
        assert got == dataclasses.replace(GAP_OPTIONS["asic"],
                                          on_error="raise")

    @pytest.mark.parametrize("style,workload", [
        ("asic", "alu"), ("custom", "alu_macro"), ("structured", "alu"),
    ])
    def test_sweep_default_workload(self, monkeypatch, style, workload):
        from repro.flows import sweep as flow_sweep

        def stub(option_sets, **kwargs):
            raise _Captured(option_sets)

        monkeypatch.setattr(flow_sweep, "run_flow_sweep_report", stub)
        with pytest.raises(_Captured) as info:
            main(["sweep", style, "--bits", "4,6", "--keep-going"])
        cls = get_backend(style).options_cls
        assert info.value.options == [
            cls(workload=workload, bits=bits, pipeline_stages=1,
                sizing_moves=20, seed=1, on_error="keep_going")
            for bits in (4, 6)
        ]


class TestTracerReleasedOnFailure:
    @pytest.mark.parametrize("argv", [
        ["stats", "--bits", "4", "--sizing-moves", "2"],
        ["bench", "--json", "--count", "200", "--bits", "4",
         "--sizing-moves", "2", "--mc-samples", "10"],
    ])
    def test_failed_flow_turns_tracer_off(self, monkeypatch, argv):
        from repro import obs
        from repro.flows.engine import FlowEngine

        def boom(self, options, tech, **kwargs):
            raise RuntimeError("flow blew up")

        monkeypatch.setattr(FlowEngine, "run", boom)
        try:
            with pytest.raises(RuntimeError, match="blew up"):
                main(argv)
            assert not obs.enabled()
        finally:
            obs.disable()
            obs.reset()
