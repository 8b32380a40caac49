"""Diagnostic stress tests ("viruses") and their generators.

Section III.C of the paper distinguishes three families of stress tests:

- **dI/dt (voltage-noise) viruses** -- instruction loops that switch CPU
  power at the PDN's first-order resonant frequency, generated by a
  genetic algorithm whose fitness is the radiated-EM amplitude sensed
  near the package (:mod:`repro.viruses.genetic`,
  :mod:`repro.viruses.didt`);
- **DRAM data-pattern benchmarks (DPBenches)** -- all-0s, all-1s,
  checkerboard and random patterns; they are modelled as the
  :class:`~repro.dram.errors_model.PatternKind` stress profiles that
  Table I and Figure 8a sweep;
- **cache/component micro-viruses** (L1I, L1D, L2, ALU, FP), which the
  paper uses to tell SRAM failures from pipeline-logic failures, are
  not modelled: no figure or table reports them.
"""

from repro.viruses.genetic import GaConfig, GaResult, GeneticAlgorithm, Individual
from repro.viruses.didt import DidtSearch, DidtVirus, evolve_didt_virus, random_search_baseline

__all__ = [
    "DidtSearch",
    "DidtVirus",
    "GaConfig",
    "GaResult",
    "GeneticAlgorithm",
    "Individual",
    "evolve_didt_virus",
    "random_search_baseline",
]
