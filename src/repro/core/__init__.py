"""The automated characterization framework (paper Section III, Fig. 2).

This is the methodological contribution the paper describes: a framework
that (1) identifies a system's limits under scaled voltage/frequency
conditions and (2) logs and classifies the effects of every program
execution at those conditions. It has three phases:

- **initialization** -- declare a benchmark list with characterization
  setups (V/F points, core placements): :mod:`repro.core.campaign`;
- **execution** -- run every (benchmark, setup) combination with a
  watchdog, reset switch and power switch to recover from hangs and
  crashes: :mod:`repro.core.executor`, :mod:`repro.core.watchdog`;
- **parsing** -- classify each run's logs into correct / CE / UE / SDC /
  crash / hang and emit the final CSV: :mod:`repro.core.classify`,
  :mod:`repro.core.results`.

The three phases run end to end in one place,
:func:`repro.experiments.pipeline.run_pipeline` (``python -m repro
pipeline``); the figure drivers run the execution engine directly.

On top of the framework sit the analyses the paper builds from it:
Vmin search (:mod:`repro.core.vmin`), guardband/margin accounting
(:mod:`repro.core.margins`), safe-operating-point selection
(:mod:`repro.core.safepoints`) and the workload-dependent Vmin predictor
(:mod:`repro.core.predictor`, after reference [11]).
"""

from repro.core.campaign import (
    Campaign,
    CampaignPlan,
    CharacterizationRun,
    CharacterizationSetup,
)
from repro.core.failure_prob import (
    DroopHistory,
    FailureProbabilityModel,
    idle_vmin_mv,
)
from repro.core.checkpoint import CampaignCheckpoint
from repro.core.faults import (
    FaultBurst,
    FaultInjector,
    FaultPlan,
    FaultStats,
)
from repro.core.supervisor import (
    MapOutcome,
    PoisonError,
    SupervisedPool,
    SupervisorStats,
    UnitFailure,
    supervised_map,
)
from repro.core.governor import GovernorReport, VoltageGovernor
from repro.core.executor import CampaignExecutor, RunRecord
from repro.core.parallel import ParallelCampaignExecutor, parallel_map
from repro.core.watchdog import Watchdog, WatchdogVerdict
from repro.core.classify import OutcomeCounts, classify_run_log, summarize
from repro.core.results import ResultStore, result_fields
from repro.core.timeline import CampaignScheduler, StudyTimeline, figure4_study_hours
from repro.core.transport import (
    CloudStore,
    NetworkLink,
    ResultUploader,
    SerialLink,
)
from repro.core.vmin import VminSearch, VminResult
from repro.core.margins import GuardbandReport, guardband_report
from repro.core.safepoints import SafeOperatingPoint, select_safe_points
from repro.core.predictor import VminPredictor, PredictorReport

__all__ = [
    "Campaign",
    "CampaignCheckpoint",
    "CampaignExecutor",
    "CampaignPlan",
    "CampaignScheduler",
    "FaultBurst",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "CharacterizationRun",
    "CharacterizationSetup",
    "CloudStore",
    "DroopHistory",
    "FailureProbabilityModel",
    "GovernorReport",
    "GuardbandReport",
    "MapOutcome",
    "NetworkLink",
    "PoisonError",
    "SupervisedPool",
    "SupervisorStats",
    "UnitFailure",
    "ResultUploader",
    "SerialLink",
    "OutcomeCounts",
    "ParallelCampaignExecutor",
    "PredictorReport",
    "ResultStore",
    "RunRecord",
    "SafeOperatingPoint",
    "StudyTimeline",
    "figure4_study_hours",
    "VminPredictor",
    "VminResult",
    "VminSearch",
    "VoltageGovernor",
    "Watchdog",
    "WatchdogVerdict",
    "classify_run_log",
    "guardband_report",
    "idle_vmin_mv",
    "parallel_map",
    "result_fields",
    "select_safe_points",
    "summarize",
    "supervised_map",
]
