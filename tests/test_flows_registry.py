"""Tests for the backend registry and the structured-ASIC flow.

The contracts under test: the ``BACKENDS`` registry knows the three
built-in styles and resolves them by name and by options class; every
registered backend runs end-to-end through the shared engine (ledger
record, checkpoint/resume, array-STA parity included); and the
structured backend's result sits between asic and custom on cycle
time, with the prefab fabric priced into its area.
"""

import dataclasses

import pytest

from repro.flows import (
    BACKENDS,
    AsicFlowOptions,
    Backend,
    CustomFlowOptions,
    FlowError,
    FlowOptions,
    StructuredFlowOptions,
    backend_for_options,
    backend_names,
    get_backend,
    register_backend,
    run_backend_flow,
    run_flow_sweep,
    run_structured_flow,
)
from repro.flows.registry import registered_stage_names
from repro.obs import ledger as run_ledger

SMALL = {"bits": 4, "sizing_moves": 2}


def _comparable(result):
    payload = result.to_dict()
    payload.pop("stages")  # wall times differ run to run
    return payload


class TestRegistry:
    def test_builtin_names_in_order(self):
        assert backend_names()[:3] == ["asic", "custom", "structured"]

    def test_get_backend_resolves_builtins(self):
        for name in ("asic", "custom", "structured"):
            backend = get_backend(name)
            assert backend.name == name
            assert backend.graph.flow == name
            assert backend.options().workload == {
                "asic": "alu", "custom": "alu_macro", "structured": "alu",
            }[name]

    def test_options_drops_unset_and_foreign_knobs(self):
        custom = get_backend("custom")
        options = custom.options(bits=6, workload=None, fault=None,
                                 rich_library=False, speed_test=True)
        assert options == CustomFlowOptions(bits=6)
        assert get_backend("asic").options(
            rich_library=False, target_cycle_fo4=12.0,
        ) == AsicFlowOptions(rich_library=False)

    def test_get_backend_unknown_style(self):
        with pytest.raises(FlowError, match="unknown implementation"):
            get_backend("fpga")

    def test_register_rejects_graph_name_mismatch(self):
        asic = get_backend("asic")
        bad = dataclasses.replace(asic, name="renamed")
        with pytest.raises(FlowError, match="must match"):
            register_backend(bad)

    def test_register_rejects_conflicting_duplicate(self):
        asic = get_backend("asic")
        clone = dataclasses.replace(asic)
        with pytest.raises(FlowError, match="already registered"):
            register_backend(clone)

    def test_register_same_object_is_idempotent(self):
        asic = get_backend("asic")
        assert register_backend(asic) is asic
        assert BACKENDS["asic"] is asic

    def test_stage_names_union_preserves_order(self):
        names = registered_stage_names()
        assert names == ("map", "place", "cts", "size", "sta", "quote")


class TestBackendForOptions:
    def test_each_options_class_resolves(self):
        assert backend_for_options(AsicFlowOptions()).name == "asic"
        assert backend_for_options(CustomFlowOptions()).name == "custom"
        assert (backend_for_options(StructuredFlowOptions()).name
                == "structured")

    def test_plain_flow_options_fall_back_to_asic(self):
        assert backend_for_options(FlowOptions()).name == "asic"

    def test_subclass_inherits_backend_via_mro(self):
        @dataclasses.dataclass(frozen=True)
        class TunedStructured(StructuredFlowOptions):
            pass

        assert (backend_for_options(TunedStructured()).name
                == "structured")


class TestEveryBackendEndToEnd:
    @pytest.mark.parametrize("name", ["asic", "custom", "structured"])
    def test_runs_on_alu_and_records_to_ledger(self, name):
        backend = get_backend(name)
        run_ledger.set_enabled(True)
        result = run_backend_flow(
            name, backend.options_cls(workload="alu", **SMALL)
        )
        assert result.style == name
        assert result.quoted_frequency_mhz > 0
        records = run_ledger.get_ledger().records(kind="flow")
        assert len(records) == 1
        assert records[0].label.startswith(f"{name}.")

    @pytest.mark.parametrize("name", ["asic", "custom", "structured"])
    def test_checkpoint_resume_bit_identical(self, name, tmp_path):
        backend = get_backend(name)
        options = backend.options_cls(workload="alu", **SMALL)
        clean = run_backend_flow(name, options)
        ck = str(tmp_path / f"{name}.ck")
        with pytest.raises(FlowError):
            run_backend_flow(
                name,
                dataclasses.replace(options, fault="size"),
                checkpoint=ck,
            )
        resumed = run_backend_flow(name, options, checkpoint=ck,
                                   resume=True)
        assert _comparable(resumed) == _comparable(clean)
        statuses = {r.name: r.status for r in resumed.stage_records}
        assert statuses["map"] == "resumed"
        assert statuses["place"] == "resumed"

    def test_mixed_style_sweep_resolves_each_point(self):
        points = [
            AsicFlowOptions(**SMALL),
            StructuredFlowOptions(**SMALL),
            CustomFlowOptions(**SMALL),
        ]
        results = run_flow_sweep(points, workers=1)
        assert [r.style for r in results] == [
            "asic", "structured", "custom",
        ]


class TestStructuredFlow:
    def test_sits_between_asic_and_custom_on_cycle_time(self):
        asic = run_backend_flow("asic", AsicFlowOptions(**SMALL))
        structured = run_backend_flow(
            "structured", StructuredFlowOptions(**SMALL)
        )
        custom = run_backend_flow("custom", CustomFlowOptions(**SMALL))
        assert (custom.min_period_ps
                < structured.min_period_ps
                < asic.min_period_ps)

    def test_area_is_the_master_not_the_cells(self):
        structured = run_structured_flow(StructuredFlowOptions(**SMALL))
        asic = run_backend_flow("asic", AsicFlowOptions(**SMALL))
        # Prefab penalty: the structured die is the master bought, far
        # larger than the cells used (same netlist as the ASIC point).
        assert structured.area_um2 > 10 * asic.area_um2
        assert 0.0 < structured.notes["fabric_utilization"] < 1.0

    def test_skew_between_asic_and_custom_budgets(self):
        from repro.sta.clocking import (
            ASIC_SKEW_FRACTION,
            CUSTOM_SKEW_FRACTION,
        )

        result = run_structured_flow(StructuredFlowOptions(**SMALL))
        skew = result.notes["clock_tree_skew_ps"]
        assert skew > 0
        # The flow clamps the applied skew fraction into
        # [structured, asic]; the note records the raw tree skew.
        assert CUSTOM_SKEW_FRACTION < ASIC_SKEW_FRACTION

    def test_check_array_parity_holds(self):
        result = run_structured_flow(
            StructuredFlowOptions(check_array=True, **SMALL)
        )
        assert result.quoted_frequency_mhz > 0

    def test_lower_target_utilization_buys_bigger_master(self):
        tight = run_structured_flow(
            StructuredFlowOptions(fabric_utilization=0.9, **SMALL)
        )
        slack = run_structured_flow(
            StructuredFlowOptions(fabric_utilization=0.2, **SMALL)
        )
        assert slack.area_um2 > tight.area_um2

    def test_registered_backend_is_the_module_singleton(self):
        from repro.flows.structured import STRUCTURED_BACKEND

        assert get_backend("structured") is STRUCTURED_BACKEND
        assert isinstance(STRUCTURED_BACKEND, Backend)
