"""Fault injection, graceful degradation, and the selftest CLI."""

import json
import math

import pytest

from repro import obs
from repro.cells import rich_asic_library
from repro.cli import main
from repro.datapath import ripple_carry_adder
from repro.flows import (
    AsicFlowOptions,
    CustomFlowOptions,
    FlowError,
    run_asic_flow,
    run_custom_flow,
)
from repro.robust import (
    FaultInjectionError,
    FaultInjector,
    StageRunner,
    enable_all_guards,
    fallback_timing,
    maybe_trip,
    run_selftest,
)
from repro.sta import TimingError, analyze, asic_clock, register_boundaries
from repro.tech import CMOS250_ASIC

CLK = asic_clock(20.0 * CMOS250_ASIC.fo4_delay_ps)


@pytest.fixture(autouse=True)
def _restore_guards():
    yield
    enable_all_guards()


def adder(bits=4):
    library = rich_asic_library(CMOS250_ASIC)
    module = register_boundaries(ripple_carry_adder(bits, library), library)
    return module, library


class TestFaultInjector:
    def test_deterministic_for_seed(self):
        m1, _ = adder()
        m2, _ = adder()
        assert FaultInjector(7).drop_net(m1) == FaultInjector(7).drop_net(m2)

    def test_drop_net_breaks_sta(self):
        module, library = adder()
        FaultInjector(0).drop_net(module)
        with pytest.raises(TimingError):
            analyze(module, library, CLK)

    def test_inject_nan_restricted_to_used_cells(self):
        module, library = adder()
        target = FaultInjector(3).inject_nan(library, module)
        cell_name = target.split(".")[0]
        assert any(inst.cell_name == cell_name
                   for inst in module.iter_instances())

    def test_maybe_trip(self):
        maybe_trip(None, "sta")
        maybe_trip("size", "sta")
        with pytest.raises(FaultInjectionError, match="sta"):
            maybe_trip("sta", "sta")


class TestStageRunner:
    def test_raise_policy_wraps_and_names_stage(self):
        runner = StageRunner(flow="asic")
        with pytest.raises(FlowError, match="stage 'sta'") as excinfo:
            with runner.stage("sta"):
                raise ValueError("boom")
        assert excinfo.value.stage == "sta"
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_keep_going_records_diagnostic(self):
        runner = StageRunner(flow="asic", on_error="keep_going")
        with runner.stage("size"):
            raise ValueError("boom")
        assert runner.failed("size")
        assert runner.diagnostics[0].code == "flow.stage_failed"
        assert runner.diagnostics[0].subject == "size"
        assert "ValueError" in runner.diagnostics[0].message

    def test_critical_stage_raises_despite_keep_going(self):
        runner = StageRunner(flow="asic", on_error="keep_going")
        with pytest.raises(FlowError):
            with runner.stage("map", critical=True):
                raise ValueError("boom")

    def test_unknown_policy_rejected(self):
        with pytest.raises(FlowError, match="on_error"):
            StageRunner(flow="asic", on_error="shrug")

    def test_failure_counter_bumped(self):
        obs.enable()
        try:
            runner = StageRunner(flow="asic", on_error="keep_going")
            with runner.stage("cts"):
                raise ValueError("boom")
            count = obs.get_metrics().counter(
                "robust.stage_failures"
            ).value(stage="cts")
        finally:
            obs.disable()
        assert count == 1.0


class TestFallbackTiming:
    def test_healthy_module_gets_analyzed_estimate(self):
        module, library = adder()
        period_ps, logic_ps = fallback_timing(module, library, CLK)
        reference = analyze(module, library, CLK)
        assert period_ps == reference.min_period_ps
        assert logic_ps == reference.logic_delay_ps
        assert 0.0 < logic_ps < period_ps

    def test_broken_module_falls_back_to_clock_period(self):
        module, library = adder()
        FaultInjector(0).drop_net(module)
        assert fallback_timing(module, library, CLK) == (CLK.period_ps, 0.0)


class TestDegradedFlows:
    @pytest.mark.parametrize("stage", ["place", "size", "sta", "quote"])
    def test_asic_keep_going_survives_any_stage(self, stage):
        result = run_asic_flow(AsicFlowOptions(
            bits=4, sizing_moves=3, fault=stage, on_error="keep_going",
        ))
        assert result.degraded
        assert result.failed_stages() == [stage]
        assert result.quoted_frequency_mhz > 0
        assert math.isfinite(result.quoted_frequency_mhz)

    def test_asic_raise_mode_names_stage(self):
        with pytest.raises(FlowError) as excinfo:
            run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=3,
                                          fault="size"))
        assert excinfo.value.stage == "size"
        assert isinstance(excinfo.value.__cause__, FaultInjectionError)

    def test_asic_map_fault_fatal_even_keep_going(self):
        with pytest.raises(FlowError) as excinfo:
            run_asic_flow(AsicFlowOptions(
                bits=4, sizing_moves=3, fault="map",
                on_error="keep_going",
            ))
        assert excinfo.value.stage == "map"

    def test_custom_keep_going_survives_sizing_fault(self):
        result = run_custom_flow(CustomFlowOptions(
            bits=4, sizing_moves=3, fault="size", on_error="keep_going",
        ))
        assert result.failed_stages() == ["size"]
        assert result.quoted_frequency_mhz > 0

    def test_diagnostics_serialize_through_to_dict(self):
        result = run_asic_flow(AsicFlowOptions(
            bits=4, sizing_moves=3, fault="sta", on_error="keep_going",
        ))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["degraded"] is True
        failed = [d for d in payload["diagnostics"]
                  if d["code"] == "flow.stage_failed"]
        assert failed[0]["subject"] == "sta"
        assert failed[0]["severity"] == "error"
        assert failed[0]["hint"]

    def test_clean_flow_not_degraded(self):
        result = run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=3))
        assert not result.degraded
        assert result.failed_stages() == []
        assert result.to_dict()["diagnostics"] == []

    def test_span_records_escaping_error(self):
        obs.enable()
        try:
            with pytest.raises(FlowError):
                run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=3,
                                              fault="sta"))
            spans = {
                s.name: s for s in obs.get_tracer().finished()
            }
        finally:
            obs.disable()
        assert spans["flow.asic.sta"].attributes["error"] == (
            "FaultInjectionError"
        )


class TestSelftest:
    def test_all_scenarios_pass(self):
        reports = run_selftest(seed=0)
        assert len(reports) >= 8
        failures = [r.fault for r in reports if not r.passed]
        assert failures == []

    def test_cli_exit_codes(self, capsys):
        assert main(["selftest"]) == 0
        assert "scenarios passed" in capsys.readouterr().out
        # Deliberately breaking a guard must make the selftest fail.
        assert main(["selftest", "--disable-guard", "finite"]) == 1
        capsys.readouterr()
        # ...and the disable must not leak into later runs.
        assert main(["selftest"]) == 0
        capsys.readouterr()

    def test_cli_json_shape(self, capsys):
        assert main(["selftest", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert {s["fault"] for s in payload["scenarios"]} >= {
            "undriven_net", "nan_delay_table", "keep_going_degrades",
        }


class TestCliFaultFlags:
    def test_flow_abort_names_stage_in_json(self, capsys):
        code = main(["flow", "asic", "--bits", "4", "--sizing-moves",
                     "3", "--inject-fault", "sta", "--json"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["stage"] == "sta"
        assert payload["cause"] == "FaultInjectionError"

    def test_flow_keep_going_reports_diagnostics(self, capsys):
        code = main(["flow", "asic", "--bits", "4", "--sizing-moves",
                     "3", "--inject-fault", "size", "--keep-going",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degraded"] is True
        assert [d["subject"] for d in payload["diagnostics"]
                if d["code"] == "flow.stage_failed"] == ["size"]

    def test_gap_keep_going_flag_accepted(self, capsys):
        code = main(["gap", "--bits", "4", "--sizing-moves", "3",
                     "--keep-going"])
        assert code == 0
        assert "asic" in capsys.readouterr().out
