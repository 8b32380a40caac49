"""Deterministic fault injection for the result pipeline.

The paper's characterization framework exists because undervolting runs
crash, hang and corrupt their own telemetry -- so the harness, not the
benchmark, must guarantee that every repetition's outcome survives to
the final CSV. This module makes that guarantee *testable*: a
:class:`FaultPlan` declares a reproducible schedule of harness-level
faults and a :class:`FaultInjector` feeds it to the pipeline --

- **work-unit faults**, in the supervisor's own taxonomy: a
  :data:`~repro.core.supervisor.CRASH` really calls ``os._exit`` in the
  worker (breaking the whole pool), a :data:`~repro.core.supervisor.HANG`
  really sleeps (past the supervision deadline when one is armed) and a
  :data:`~repro.core.supervisor.POISON` raises -- exercising the
  recovery machinery of :class:`repro.core.supervisor.SupervisedPool`
  for real;
- **transport corruption/loss bursts**: windows of uploaded rows whose
  first ``depth`` transmit attempts are forcibly corrupted
  (:class:`~repro.core.transport.SerialLink`) or dropped
  (:class:`~repro.core.transport.NetworkLink`);
- **thermal rig faults**: time-scheduled sensor and actuator failures of
  the DRAM thermal testbed (stuck/drifting/dropped-out thermocouples,
  SPD read timeouts, welded-on and stuck-open relays, dead heater
  elements, ambient disturbance steps), declared here as typed
  :class:`ThermalFault` records and *applied* by
  :class:`repro.thermal.faults.ThermalFaultInjector`.

Every decision is a pure function of the plan plus ``(index, attempt)``
(or, for thermal faults, of the plan plus virtual time), so the same
plan injects the same faults at any worker count -- which is what lets
the test suite assert the *fault-equivalence property*: a pipeline run
under any seeded plan converges to a cloud store bit-identical to the
clean serial run, with any quarantined (poison) units enumerated
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.core.supervisor import CRASH, HANG, POISON
from repro.errors import CampaignError
from repro.rand import SeedLike, substream

#: Thermal-rig fault kinds consumed by :mod:`repro.thermal.faults`.
TC_STUCK = "tc-stuck"            #: thermocouple freezes at its last reading
TC_DRIFT = "tc-drift"            #: thermocouple drifts ``magnitude`` degC/s
TC_DROPOUT = "tc-dropout"        #: thermocouple channel reads nothing
SPD_TIMEOUT = "spd-timeout"      #: SPD/TSOD SMBus reads time out
RELAY_WELDED_ON = "relay-welded-on"    #: SSR conducts regardless of command
RELAY_STUCK_OPEN = "relay-stuck-open"  #: SSR never conducts
HEATER_FAILED = "heater-failed"  #: resistive element goes open-circuit
AMBIENT_STEP = "ambient-step"    #: lab ambient steps by ``magnitude`` degC

#: Thermal fault taxonomy, grouped by what the fault breaks.
THERMAL_SENSOR_KINDS = frozenset(
    {TC_STUCK, TC_DRIFT, TC_DROPOUT, SPD_TIMEOUT})
THERMAL_ACTUATOR_KINDS = frozenset(
    {RELAY_WELDED_ON, RELAY_STUCK_OPEN, HEATER_FAILED})
THERMAL_FAULT_KINDS = (THERMAL_SENSOR_KINDS | THERMAL_ACTUATOR_KINDS
                       | {AMBIENT_STEP})

#: Kinds a monitored testbed recovers from without losing the zone: a
#: single faulted sensor degrades to the surviving one and an ambient
#: step is regulated out. Actuator faults leave the zone unable to hold
#: its setpoint and always end in quarantine.
RECOVERABLE_THERMAL_KINDS = THERMAL_SENSOR_KINDS | {AMBIENT_STEP}


@dataclass(frozen=True)
class ThermalFault:
    """One scheduled fault of the thermal rig, in virtual time.

    Parameters
    ----------
    zone:
        Testbed zone (DIMM rank) the fault strikes.
    kind:
        One of :data:`THERMAL_FAULT_KINDS`.
    start_s:
        Virtual time the fault becomes active.
    duration_s:
        Fault window length; ``None`` means permanent (the default for
        actuator faults -- a welded relay does not un-weld).
    magnitude:
        Kind-specific intensity: drift rate in degC/s for
        :data:`TC_DRIFT`, ambient offset in degC for
        :data:`AMBIENT_STEP`; unused otherwise.
    """

    zone: int
    kind: str
    start_s: float
    duration_s: Optional[float] = None
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.zone < 0:
            raise CampaignError("thermal fault zone must be >= 0")
        if self.kind not in THERMAL_FAULT_KINDS:
            raise CampaignError(f"unknown thermal fault kind {self.kind!r}")
        if self.start_s < 0:
            raise CampaignError("thermal fault start_s must be >= 0")
        if self.duration_s is not None and self.duration_s <= 0:
            raise CampaignError("thermal fault duration_s must be positive "
                                "(None for permanent)")
        if self.kind == TC_DRIFT and self.magnitude <= 0:
            raise CampaignError("tc-drift needs a positive degC/s magnitude")
        if self.kind == AMBIENT_STEP and self.magnitude == 0:
            raise CampaignError("ambient-step needs a non-zero magnitude")

    @property
    def end_s(self) -> float:
        """Fault window end (``inf`` for permanent faults)."""
        if self.duration_s is None:
            return float("inf")
        return self.start_s + self.duration_s

    def active(self, now_s: float) -> bool:
        """Whether the fault is in effect at virtual time ``now_s``."""
        return self.start_s <= now_s < self.end_s

    def overlaps(self, other: "ThermalFault") -> bool:
        """Whether two fault windows intersect in time."""
        return self.start_s < other.end_s and other.start_s < self.end_s

    @property
    def recoverable(self) -> bool:
        """Whether a monitored zone survives this fault alone."""
        return self.kind in RECOVERABLE_THERMAL_KINDS


def thermal_faults_recoverable(faults) -> bool:
    """Whether a set of :class:`ThermalFault` leaves every zone viable.

    A plan is recoverable when every fault kind is individually
    recoverable *and* no zone loses both of its temperature sensors at
    once: a thermocouple fault overlapping an SPD timeout in the same
    zone blinds the monitor, which must then quarantine the zone.
    """
    faults = tuple(faults)
    if any(f.kind not in RECOVERABLE_THERMAL_KINDS for f in faults):
        return False
    tc_kinds = {TC_STUCK, TC_DRIFT, TC_DROPOUT}
    for fault in faults:
        if fault.kind not in tc_kinds:
            continue
        for other in faults:
            if (other.zone == fault.zone and other.kind == SPD_TIMEOUT
                    and other.overlaps(fault)):
                return False
    return True


@dataclass(frozen=True)
class FaultBurst:
    """A window of uploaded rows whose first attempts are doomed.

    For every row index in ``[first_row, first_row + rows)`` the first
    ``depth`` transmit attempts fail; attempt ``depth`` onward goes
    through. Keeping ``depth <= max_retries`` of the link therefore
    guarantees eventual delivery -- bursts model a flaky window, not a
    severed cable.
    """

    first_row: int
    rows: int
    depth: int

    def __post_init__(self) -> None:
        if self.first_row < 0 or self.rows < 1 or self.depth < 1:
            raise CampaignError("burst needs first_row >= 0, rows/depth >= 1")

    def hits(self, row_index: int, attempt: int) -> bool:
        return (self.first_row <= row_index < self.first_row + self.rows
                and attempt < self.depth)


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, reproducible schedule of harness faults.

    Parameters
    ----------
    corruption_bursts / loss_bursts:
        Row windows whose early transmit attempts are corrupted on the
        serial link / dropped on the network link.
    unit_exits / unit_hangs:
        ``(unit_index, count)`` pairs: the unit's first ``count``
        attempts crash (the worker really calls ``os._exit``) / hang
        (the worker really sleeps ``hang_seconds``), crashes first. Both
        charge the supervisor's retry budget, so keeping
        ``exits + hangs <= max_retries`` per unit guarantees the plan
        converges to clean results.
    poison_units:
        Unit indices whose every attempt raises
        :class:`~repro.core.supervisor.PoisonError` -- these units
        exhaust their budget and are deterministically quarantined as
        typed failures.
    hang_seconds:
        How long an injected hang sleeps. Under a supervision deadline
        shorter than this the worker is terminated; without one the
        sleep returns a marker that is charged as a hang anyway.
    interrupt_after_shards:
        Abort the whole study (``CampaignInterrupted``) once this many
        shards completed in one engine call -- the hook the
        checkpoint/resume tests use to stop a study part-way.
    thermal_faults:
        Time-scheduled :class:`ThermalFault` records applied to the
        thermal testbed by
        :class:`repro.thermal.faults.ThermalFaultInjector`.
    """

    corruption_bursts: Tuple[FaultBurst, ...] = ()
    loss_bursts: Tuple[FaultBurst, ...] = ()
    unit_exits: Tuple[Tuple[int, int], ...] = ()
    unit_hangs: Tuple[Tuple[int, int], ...] = ()
    poison_units: Tuple[int, ...] = ()
    hang_seconds: float = 1.0
    interrupt_after_shards: Optional[int] = None
    thermal_faults: Tuple[ThermalFault, ...] = ()

    def __post_init__(self) -> None:
        for name, pairs in (("unit_exits", self.unit_exits),
                            ("unit_hangs", self.unit_hangs)):
            for unit, count in pairs:
                if unit < 0 or count < 1:
                    raise CampaignError(
                        f"{name} needs unit >= 0 and count >= 1")
        if any(unit < 0 for unit in self.poison_units):
            raise CampaignError("poison_units needs unit indices >= 0")
        if self.hang_seconds <= 0:
            raise CampaignError("hang_seconds must be positive")
        if self.interrupt_after_shards is not None \
                and self.interrupt_after_shards < 1:
            raise CampaignError("interrupt_after_shards must be >= 1")
        for fault in self.thermal_faults:
            if not isinstance(fault, ThermalFault):
                raise CampaignError(
                    "thermal_faults entries must be ThermalFault records")

    @property
    def max_transport_depth(self) -> int:
        """Deepest burst; links need ``max_retries >= this`` to converge."""
        bursts = self.corruption_bursts + self.loss_bursts
        return max((b.depth for b in bursts), default=0)

    @property
    def thermal_recoverable(self) -> bool:
        """Whether the plan's thermal faults leave every zone viable."""
        return thermal_faults_recoverable(self.thermal_faults)

    @classmethod
    def random(cls, seed: SeedLike, units: int, rows: int = 0,
               poison_rate: float = 0.0) -> "FaultPlan":
        """A seeded plan of crashes, hangs, poison units and bursts.

        ``units`` is the work-unit (shard) count of the study; ``rows``
        the (approximate) number of rows the upload will push -- bursts
        are placed inside that range. Crash and hang counts are capped
        at the default supervision budget (at most one of each per
        unit), so the plan always converges: a supervised run finishes
        with results bit-identical to a clean run, except for the units
        ``poison_rate`` dooms -- those are quarantined,
        deterministically, at any worker count. The same seed always
        produces the same plan.
        """
        if units < 1:
            raise CampaignError("a fault plan needs at least one unit")
        if not 0.0 <= poison_rate <= 1.0:
            raise CampaignError("poison_rate must be within [0, 1]")
        rng = substream(seed, "real-fault-plan")
        exits = tuple((unit, 1) for unit in range(units)
                      if rng.random() < 0.35)
        hangs = tuple((unit, 1) for unit in range(units)
                      if rng.random() < 0.25)
        poison = tuple(unit for unit in range(units)
                       if rng.random() < poison_rate)
        corruption = []
        loss = []
        if rows > 0:
            for bursts in (corruption, loss):
                for _ in range(int(rng.integers(1, 4))):
                    first = int(rng.integers(0, rows))
                    length = int(rng.integers(1, max(2, rows // 4 + 1)))
                    depth = int(rng.integers(1, 4))
                    bursts.append(FaultBurst(first, length, depth))
        # Short hangs keep a faulted run quick when no deadline is armed.
        return cls(unit_exits=exits, unit_hangs=hangs, poison_units=poison,
                   hang_seconds=0.25, corruption_bursts=tuple(corruption),
                   loss_bursts=tuple(loss))

    @classmethod
    def random_thermal(cls, seed: SeedLike, zones: int = 8,
                       horizon_s: float = 900.0, fault_rate: float = 0.6,
                       unrecoverable_rate: float = 0.0) -> "FaultPlan":
        """A seeded schedule of thermal rig faults over ``zones`` zones.

        At most one fault per zone, placed inside the first regulation
        window of ``horizon_s`` virtual seconds, so a faulted zone never
        loses both sensors at once. With ``unrecoverable_rate == 0``
        every generated fault is recoverable
        (:attr:`thermal_recoverable` is ``True``) and a gated run
        converges bit-identical to the clean run; a non-zero rate mixes
        in permanent actuator faults that deterministically end in zone
        quarantine. The same seed always produces the same schedule.
        """
        if zones < 1:
            raise CampaignError("a thermal fault plan needs >= 1 zone")
        if horizon_s <= 0:
            raise CampaignError("horizon_s must be positive")
        if not 0.0 <= fault_rate <= 1.0:
            raise CampaignError("fault_rate must be within [0, 1]")
        if not 0.0 <= unrecoverable_rate <= 1.0:
            raise CampaignError("unrecoverable_rate must be within [0, 1]")
        rng = substream(seed, "thermal-fault-plan")
        recoverable = (TC_STUCK, TC_DRIFT, TC_DROPOUT, SPD_TIMEOUT,
                       AMBIENT_STEP)
        unrecoverable = (RELAY_WELDED_ON, RELAY_STUCK_OPEN, HEATER_FAILED)
        faults = []
        for zone in range(zones):
            if rng.random() >= fault_rate:
                continue
            start_s = float(rng.uniform(0.1, 0.5)) * horizon_s
            if rng.random() < unrecoverable_rate:
                kind = unrecoverable[int(rng.integers(0, len(unrecoverable)))]
                faults.append(ThermalFault(zone=zone, kind=kind,
                                           start_s=start_s))
                continue
            kind = recoverable[int(rng.integers(0, len(recoverable)))]
            duration_s = float(rng.uniform(0.05, 0.25)) * horizon_s
            magnitude = 0.0
            if kind == TC_DRIFT:
                magnitude = float(rng.uniform(0.02, 0.06))
            elif kind == AMBIENT_STEP:
                magnitude = float(rng.uniform(3.0, 8.0))
            faults.append(ThermalFault(zone=zone, kind=kind, start_s=start_s,
                                       duration_s=duration_s,
                                       magnitude=magnitude))
        return cls(thermal_faults=tuple(faults))


@dataclass
class FaultStats:
    """What the injector actually fired, for reporting."""

    corrupted_frames: int = 0
    dropped_packets: int = 0
    unit_exits: int = 0
    unit_hangs: int = 0
    poison_raises: int = 0
    thermal_sensor_faults: int = 0
    thermal_actuator_faults: int = 0
    thermal_disturbances: int = 0

    @property
    def total(self) -> int:
        return (self.corrupted_frames + self.dropped_packets
                + self.unit_exits + self.unit_hangs + self.poison_raises
                + self.thermal_sensor_faults + self.thermal_actuator_faults
                + self.thermal_disturbances)

    def note_thermal(self, kind: str) -> None:
        """Count one fired thermal fault under its taxonomy bucket."""
        if kind in THERMAL_SENSOR_KINDS:
            self.thermal_sensor_faults += 1
        elif kind in THERMAL_ACTUATOR_KINDS:
            self.thermal_actuator_faults += 1
        else:
            self.thermal_disturbances += 1


class FaultInjector:
    """Feeds a :class:`FaultPlan` to the pipeline, counting what fired.

    Decisions are pure functions of ``(index, attempt)`` so they are
    identical at any worker count and on every retry of the same
    attempt; only :attr:`stats` is mutable.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self._exits: Dict[int, int] = dict(plan.unit_exits)
        self._hangs: Dict[int, int] = dict(plan.unit_hangs)
        self._poisoned = set(plan.poison_units)
        self._seen: Set[Tuple[int, int]] = set()

    def unit_fault(self, unit_index: int, attempt: int) -> Optional[str]:
        """Fate of one *attributed* attempt of one supervised work unit.

        Pure in ``(unit_index, attempt)``: crashes first, then hangs,
        then -- for poison units -- an unconditional poison raise. The
        supervisor consults the same attempt number again when an
        attempt is lost collaterally (another unit broke the shared
        pool), so stats are deduplicated on ``(unit, attempt)`` and the
        injected schedule replays identically at any worker count.
        """
        first = (unit_index, attempt) not in self._seen
        self._seen.add((unit_index, attempt))
        exits = self._exits.get(unit_index, 0)
        hangs = exits + self._hangs.get(unit_index, 0)
        if attempt < exits:
            self.stats.unit_exits += first
            return CRASH
        if attempt < hangs:
            self.stats.unit_hangs += first
            return HANG
        if unit_index in self._poisoned:
            self.stats.poison_raises += first
            return POISON
        return None

    def corrupt_frame(self, row_index: int, attempt: int) -> bool:
        """Should the serial link corrupt this (row, attempt) frame?"""
        if any(b.hits(row_index, attempt) for b in self.plan.corruption_bursts):
            self.stats.corrupted_frames += 1
            return True
        return False

    def drop_packet(self, row_index: int, attempt: int) -> bool:
        """Should the network link drop this (row, attempt) packet?"""
        if any(b.hits(row_index, attempt) for b in self.plan.loss_bursts):
            self.stats.dropped_packets += 1
            return True
        return False

    def interrupt_due(self, completed_shards: int) -> bool:
        """Has the plan's injected interruption point been reached?"""
        return (self.plan.interrupt_after_shards is not None
                and completed_shards >= self.plan.interrupt_after_shards)
