"""repro: reproduction of "Measuring and Exploiting Guardbands of
Server-Grade ARMv8 CPU Cores and DRAMs" (Tovletoglou et al., DSN 2018).

The library simulates the paper's X-Gene2 testbed end to end -- sigma
chips with calibrated Vmin behaviour, a PDN/EM model, GA-evolved dI/dt
viruses, a DRAM retention substrate with real SECDED ECC, and the
PID-controlled thermal testbed -- plus the characterization framework
(run end to end by ``python -m repro pipeline``) and the exploitation
pipeline that turn measurements into safe operating points and energy
savings.

Quick start::

    from repro.experiments import run_figure4
    result = run_figure4(seed=1)
    print(result.format())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.version import __version__

from repro.rand import DEFAULT_SEED, make_rng, substream
from repro.soc import (
    Chip,
    ProcessCorner,
    SLIMpro,
    SocTopology,
    XGene2Platform,
    build_platform,
    build_reference_chips,
)
from repro.core import (
    CampaignExecutor,
    CampaignPlan,
    GuardbandReport,
    ParallelCampaignExecutor,
    SafeOperatingPoint,
    SupervisedPool,
    UnitFailure,
    VminPredictor,
    VminSearch,
    guardband_report,
    select_safe_points,
)
from repro.errors import SupervisionError
from repro.viruses import evolve_didt_virus
from repro.dram import (
    BitErrorModel,
    DramPowerModel,
    MemoryControlUnit,
    RetentionModel,
    SecdedCode,
)
from repro.workloads import (
    JammerDetector,
    figure5_mix,
    nas_suite,
    rodinia_suite,
    spec_suite,
)

__all__ = [
    "BitErrorModel",
    "CampaignExecutor",
    "CampaignPlan",
    "Chip",
    "DEFAULT_SEED",
    "DramPowerModel",
    "GuardbandReport",
    "JammerDetector",
    "MemoryControlUnit",
    "ParallelCampaignExecutor",
    "ProcessCorner",
    "RetentionModel",
    "SLIMpro",
    "SafeOperatingPoint",
    "SecdedCode",
    "SocTopology",
    "SupervisedPool",
    "SupervisionError",
    "UnitFailure",
    "VminPredictor",
    "VminSearch",
    "XGene2Platform",
    "__version__",
    "build_platform",
    "build_reference_chips",
    "evolve_didt_virus",
    "figure5_mix",
    "guardband_report",
    "make_rng",
    "nas_suite",
    "rodinia_suite",
    "select_safe_points",
    "spec_suite",
    "substream",
]
