"""DRAM retention substrate.

The paper characterizes 72 DDR3 chips under a 35x relaxed refresh period
(64 ms -> 2.283 s) at controlled 50/60 degC, counting weak-cell error
locations per bank (Table I), measuring workload bit-error rates
(Figure 8a), and projecting refresh power savings (Figure 8b). This
package provides the simulated equivalent:

- :mod:`repro.dram.geometry` -- chips/ranks/banks/rows addressing;
- :mod:`repro.dram.retention` -- the per-cell retention-time statistics
  (lognormal weak tail with Arrhenius temperature acceleration and
  data-pattern dependence), following the structure established by Liu
  et al. [19];
- :mod:`repro.dram.cells` -- lazily-sampled weak-cell maps, a device at a time;
- :mod:`repro.dram.refresh` -- refresh scheduling, including inherent
  refresh from workload row accesses;
- :mod:`repro.dram.ecc` -- a real (72,64) SECDED Hamming code;
- :mod:`repro.dram.power` -- the DRAM power model with its refresh
  component;
- :mod:`repro.dram.controller` -- an MCU front-end tying the pieces
  together and reporting CE/UE events to SLIMpro;
- :mod:`repro.dram.errors_model` -- analytic BER/error-count estimation
  used by the experiment drivers.
"""

from repro.dram.geometry import BankAddress, DramGeometry, DEFAULT_GEOMETRY
from repro.dram.retention import RetentionModel, RetentionParams, DEFAULT_RETENTION
from repro.dram.cells import (
    DramDevicePopulation,
    WeakCell,
    WeakCellMap,
    sample_weak_cell_count,
)
from repro.dram.refresh import RefreshController, AccessTrace
from repro.dram.ecc import SecdedCode, DecodeStatus, DecodeResult
from repro.dram.profiling import ProfilingCampaign, ProfilingRound, profile_bank
from repro.dram.scrubber import PatrolReport, PatrolScrubber, pairup_probability
from repro.dram.power import DramPowerModel, DramPowerBreakdown
from repro.dram.controller import MemoryControlUnit
from repro.dram.errors_model import BitErrorModel, PatternKind

__all__ = [
    "AccessTrace",
    "BankAddress",
    "BitErrorModel",
    "DEFAULT_GEOMETRY",
    "DEFAULT_RETENTION",
    "DecodeResult",
    "DecodeStatus",
    "DramGeometry",
    "DramPowerBreakdown",
    "DramPowerModel",
    "MemoryControlUnit",
    "PatrolReport",
    "PatrolScrubber",
    "PatternKind",
    "ProfilingCampaign",
    "ProfilingRound",
    "RefreshController",
    "RetentionModel",
    "RetentionParams",
    "SecdedCode",
    "WeakCell",
    "WeakCellMap",
    "pairup_probability",
    "profile_bank",
    "sample_weak_cell_count",
]
