"""CLI tests for the run-ledger verbs (runs list/show/diff/regress,
stats --top, bench percentiles)."""

import json
import os

import pytest

from repro.cli import main
from repro.obs import ledger


FLOW = ["flow", "asic", "--bits", "4", "--sizing-moves", "2"]


def run_cli(capsys, *argv):
    capsys.readouterr()          # drop any setup-run output
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestLedgerLifecycle:
    def test_flow_appends_a_record(self, capsys):
        assert main(FLOW) == 0
        records = ledger.get_ledger().records()
        assert [r.kind for r in records] == ["flow"]
        assert records[0].label == "asic.alu4"
        assert not ledger.enabled()   # main() switched recording back off

    def test_no_ledger_opt_out(self, capsys):
        assert main(FLOW + ["--no-ledger"]) == 0
        assert ledger.get_ledger().records() == []

    def test_runs_dir_override(self, capsys, tmp_path):
        target = tmp_path / "elsewhere"
        assert main(FLOW + ["--runs-dir", str(target)]) == 0
        assert ledger.get_ledger().records() == []   # env dir untouched
        assert len(os.listdir(target)) == 1

    def test_variation_records_its_kind(self, capsys):
        assert main(["variation", "--count", "2000"]) == 0
        records = ledger.get_ledger().records()
        assert [r.kind for r in records] == ["variation"]
        assert "variation.typical_mhz" in records[0].metrics


class TestRunsVerbs:
    def test_list_empty(self, capsys):
        code, out = run_cli(capsys, "runs", "list")
        assert code == 0
        assert "no run records" in out

    def test_list_after_two_flows(self, capsys):
        main(FLOW)
        main(FLOW)
        code, out = run_cli(capsys, "runs", "list")
        assert code == 0
        assert out.count("asic.alu4") == 2
        # Both runs are the same design point.
        records = ledger.get_ledger().records()
        assert records[0].fingerprint == records[1].fingerprint

    def test_list_filters(self, capsys):
        main(FLOW)
        main(["variation", "--count", "2000"])
        code, out = run_cli(capsys, "runs", "list", "--kind", "flow")
        assert "variation" not in out
        code, out = run_cli(capsys, "runs", "list", "--last", "1")
        assert out.count("\n") == 2   # header + one row

    def test_show_last(self, capsys):
        main(FLOW)
        code, out = run_cli(capsys, "runs", "show")
        assert code == 0
        assert "stage waterfall" in out
        assert "asic.alu4" in out

    def test_show_json(self, capsys):
        main(FLOW)
        code, out = run_cli(capsys, "runs", "show", "last", "--json")
        payload = json.loads(out)
        assert payload["kind"] == "flow"
        assert [s["name"] for s in payload["stages"]][:2] == ["map",
                                                              "place"]

    def test_show_unknown_id(self, capsys):
        main(FLOW)
        assert main(["runs", "show", "zzzz"]) == 1

    def test_diff(self, capsys):
        main(FLOW)
        main(FLOW)
        first = ledger.get_ledger().records()[0].run_id
        code, out = run_cli(capsys, "runs", "diff", first)
        assert code == 0
        assert "diff" in out and "size" in out

    def test_regress_without_baseline_is_green(self, capsys):
        main(FLOW)
        code, out = run_cli(capsys, "runs", "regress", "--gate")
        assert code == 0
        assert "no baseline" in out

    def test_regress_ok_pair(self, capsys):
        main(FLOW)
        main(FLOW)
        code, out = run_cli(capsys, "runs", "regress")
        assert code == 0
        assert "OK" in out

    def test_gate_trips_on_slow_fault(self, capsys):
        # The acceptance scenario, end to end through the CLI: two
        # clean runs, then a slow:size fault run; the gate must exit
        # nonzero and name the slowed stage.
        main(FLOW)
        main(FLOW)
        main(FLOW + ["--inject-fault", "slow:size"])
        code, out = run_cli(capsys, "runs", "regress", "--gate")
        assert code == 3
        assert "stage_wall" in out and "size" in out
        # Without --gate the same findings report but exit 0.
        assert main(["runs", "regress"]) == 0

    def test_regress_json(self, capsys):
        main(FLOW)
        main(FLOW)
        code, out = run_cli(capsys, "runs", "regress", "--json")
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["checks"] >= 2


class TestStatsTop:
    def test_top_without_records(self, capsys):
        assert main(["stats", "--top", "3"]) == 1

    def test_top_reads_last_recorded_spans(self, capsys):
        main(["stats", "--bits", "4", "--sizing-moves", "2"])
        capsys.readouterr()
        code, out = run_cli(capsys, "stats", "--top", "3")
        assert code == 0
        assert "by self time" in out
        # run line + header + 3 rows + the "... more label(s)" footer
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert lines[-1].endswith("more label(s)")

    def test_top_rolls_call_paths_up_by_label(self, capsys):
        # One label under two call paths (one per style) is one row.
        def entry(path, self_ms):
            return {"name": path.split(" > ")[-1], "path": path,
                    "depth": path.count(" > "), "calls": 1,
                    "total_ms": self_ms, "self_ms": self_ms}

        ledger.get_ledger().append(ledger.RunRecord(
            kind="stats", label="two-styles", fingerprint="f",
            spans=[entry("flow.asic", 1.0),
                   entry("flow.asic > sizing.tilos", 5.0),
                   entry("flow.custom", 1.0),
                   entry("flow.custom > sizing.tilos", 4.0)],
        ))
        code, out = run_cli(capsys, "stats", "--top", "2")
        assert code == 0
        rows = [line.split() for line in out.splitlines()[2:]]
        assert [row[:2] for row in rows[:2]] == [["sizing.tilos", "2"],
                                                 ["flow.asic", "1"]]
        assert out.splitlines()[-1] == "... 1 more label(s)"


class TestBenchPercentiles:
    def test_json_includes_histogram_percentiles(self, capsys):
        code, out = run_cli(
            capsys, "bench", "--count", "2000", "--bits", "4",
            "--sizing-moves", "2", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        hist = [k for k in payload if k.startswith("hist.")]
        assert hist
        assert any(k.endswith(".p50") for k in hist)
        assert any(k.endswith(".p95") for k in hist)
        assert any(k.endswith(".max") for k in hist)
        # The bench also recorded itself in the ledger.
        kinds = [r.kind for r in ledger.get_ledger().records()]
        assert "bench" in kinds


class TestInjectFaultSpelling:
    def test_slow_spelling_accepted(self, capsys):
        assert main(FLOW + ["--inject-fault", "slow:size"]) == 0

    def test_unknown_stage_rejected(self):
        with pytest.raises(SystemExit):
            main(FLOW + ["--inject-fault", "slow:nonsense"])
        with pytest.raises(SystemExit):
            main(FLOW + ["--inject-fault", "nonsense"])
