"""FO4 normalisation of timing results.

Section 4 expresses every cycle-time comparison in fanout-of-four inverter
delays: "There are 15 FO4 delays in the Alpha 21264, and 13 FO4 delays in
the 1.0 GHz IBM PowerPC ... Tensilica's Xtensa processor is estimated to
have about 44 FO4 delays."  These helpers convert our absolute-picosecond
reports into that currency.
"""

from __future__ import annotations

from repro.sta.engine import TimingReport
from repro.tech.process import ProcessTechnology


def fo4_depth(report: TimingReport, tech: ProcessTechnology) -> float:
    """Total FO4 depth of a report's minimum period."""
    return report.min_period_ps / tech.fo4_delay_ps


def fo4_logic_depth(report: TimingReport, tech: ProcessTechnology) -> float:
    """FO4 depth of the combinational logic alone (no latch/skew overhead)."""
    return report.logic_delay_ps / tech.fo4_delay_ps


def fo4_overhead(report: TimingReport, tech: ProcessTechnology) -> float:
    """FO4 depth consumed by sequencing overhead (clk->Q + setup + skew)."""
    return fo4_depth(report, tech) - fo4_logic_depth(report, tech)
