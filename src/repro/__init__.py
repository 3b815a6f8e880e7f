"""repro: a reproduction of Chinnery & Keutzer, DAC 2000.

"Closing the Gap Between ASIC and Custom: An ASIC Perspective" quantifies
why custom ICs ran 6-8x faster than ASICs in the same process.  This
package rebuilds the analysis as an executable system:

* substrates -- process technology (:mod:`repro.tech`), cell libraries
  (:mod:`repro.cells`), netlists (:mod:`repro.netlist`), synthesis
  (:mod:`repro.synth`), datapath generators (:mod:`repro.datapath`),
  static timing (:mod:`repro.sta`), physical design
  (:mod:`repro.physical`), sizing (:mod:`repro.sizing`), logic families
  (:mod:`repro.circuit`), pipelining (:mod:`repro.pipeline`) and process
  variation (:mod:`repro.variation`);
* the paper's contribution -- the factor decomposition and gap analysis
  (:mod:`repro.core`) driven by real end-to-end ASIC and custom flows
  (:mod:`repro.flows`).

Quick start::

    from repro.flows import run_asic_flow, run_custom_flow
    from repro.core import analyze_gap

    asic = run_asic_flow()
    custom = run_custom_flow()
    print(analyze_gap(asic, custom).table())
"""

__version__ = "1.0.0"

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "repro.core.factors": ("FactorModel", "PAPER_FACTORS"),
    "repro.core.gap": ("GapReport", "analyze_gap"),
    "repro.core.survey": ("SURVEY", "headline_gap"),
    "repro.flows.asic": ("run_asic_flow",),
    "repro.flows.custom": ("run_custom_flow",),
    "repro.flows.options": ("AsicFlowOptions", "CustomFlowOptions"),
})
__all__ += ["__version__"]
