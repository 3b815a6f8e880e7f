"""Library shopping: the Section 6 cell-library quality study.

Maps the same design onto three libraries -- impoverished (two drives,
single polarity), rich ASIC, and continuous custom -- sizes each, and
compares the outcomes.  Also demonstrates the Liberty-style export so a
library can be inspected on disk.

Run with::

    python examples/library_shopping.py
"""

import tempfile
from pathlib import Path

from repro.cells import (
    custom_library,
    from_liberty,
    poor_asic_library,
    rich_asic_library,
    to_liberty,
)
from repro.sizing import size_for_speed, total_area_um2
from repro.sta import asic_clock, fo4_depth, solve_min_period
from repro.sta.sequential import register_boundaries
from repro.synth import map_design, parse_expression
from repro.tech import CMOS250_ASIC

#: A representative random-logic cone: next-state logic of a controller.
DESIGN = {
    "n0": "(s0 & ~s1 & req) | (s1 & ~grant)",
    "n1": "(s0 ^ s1) & (req | ~ack) & ~(err & s0)",
    "busy": "(s0 | s1) & ~err",
}


def implement(library, label: str, sizing_moves: int = 25) -> dict:
    design = {out: parse_expression(text) for out, text in DESIGN.items()}
    module = map_design(design, library, name=f"ctrl_{label}")
    registered = register_boundaries(module, library)
    clock = asic_clock(30.0 * library.technology.fo4_delay_ps)
    sizing = size_for_speed(
        registered, library, clock, max_moves=sizing_moves
    )
    timing = solve_min_period(registered, library, clock)
    return {
        "label": label,
        "library": library.summary(),
        "gates": registered.instance_count(),
        "fo4": fo4_depth(timing, library.technology),
        "mhz": timing.max_frequency_mhz,
        "area": total_area_um2(registered, library),
        "sizing_gain": sizing.speedup,
    }


def main() -> None:
    rows = [
        implement(poor_asic_library(CMOS250_ASIC), "poor"),
        implement(rich_asic_library(CMOS250_ASIC), "rich"),
        implement(custom_library(CMOS250_ASIC), "custom"),
    ]
    print(f"{'library':<8s} {'gates':>6s} {'FO4':>6s} {'MHz':>8s} "
          f"{'area':>8s} {'sizing gain':>12s}")
    for row in rows:
        print(
            f"{row['label']:<8s} {row['gates']:>6d} {row['fo4']:>6.1f} "
            f"{row['mhz']:>8.1f} {row['area']:>8.1f} "
            f"{row['sizing_gain']:>11.2f}x"
        )
    poor, rich = rows[0], rows[1]
    penalty = poor["fo4"] / rich["fo4"] - 1.0
    print()
    print(
        f"two-drive single-polarity library penalty: {100 * penalty:.0f}% "
        "(paper Section 6.1: 'may be 25% slower')"
    )

    library = rich_asic_library(CMOS250_ASIC)
    text = to_liberty(library)
    # A throwaway directory: the round trip leaves nothing behind.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{library.name}.lib"
        path.write_text(text)
        reloaded = from_liberty(path.read_text())
    print()
    print(f"liberty export: wrote {len(text)} bytes to {path.name} "
          "and read it back")
    print(f"reloaded {len(reloaded)} cells; {reloaded.summary()}")


if __name__ == "__main__":
    main()
