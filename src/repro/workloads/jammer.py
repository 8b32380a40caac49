"""The end-to-end Jammer (DoS-attack) detector application (Figure 9).

The paper's showcase workload: a multi-threaded detector that watches
the wireless spectrum through Software-Defined-Radio modules for devices
that could mount denial-of-service attacks on IoT networks. Four
parallel instances saturate CPU and memory bandwidth while a
Quality-of-Service constraint (bounded detection response time) must
hold.

Our substitute implements the same computational shape end-to-end:

- a synthetic SDR front-end produces per-channel power-spectral-density
  frames, with occasional injected jammer bursts (wideband energy
  spikes);
- each detector instance runs a sliding-window energy detector with an
  adaptive noise floor, flagging channels whose short-term energy
  exceeds the floor by a threshold;
- each instance's frame ticks are events on one simkit event loop;
  frame processing time scales with the core's frequency, so undervolting at constant frequency leaves
  the QoS untouched -- the property the paper's experiment relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError, WorkloadError
from repro.rand import SeedLike, substream
from repro.simkit import Simulator
from repro.workloads.base import CpuWorkload, DramProfile, Workload

#: CPU/DRAM signature of one Jammer instance (calibrated: four instances
#: saturate the cores while generating modest DRAM traffic, giving the
#: DRAM domain the 33.3 % refresh-dominated saving of Figure 9).
JAMMER_WORKLOAD = Workload(
    CpuWorkload("jammer", "edge", resonant_swing=0.40, ipc=1.50,
                fp_ratio=0.35, mem_ratio=0.25, branch_ratio=0.10,
                l2_miss_ratio=0.05, sdc_bias=0.25),
    DramProfile(footprint_mb=1500, hot_row_fraction=0.40,
                data_entropy=0.85, bandwidth_gbs=0.65),
)


@dataclass(frozen=True)
class JammerConfig:
    """Detector parameters.

    Attributes
    ----------
    channels:
        Spectrum channels each instance monitors.
    frame_samples:
        PSD bins per frame.
    frame_period_s:
        SDR frame arrival period.
    window_frames:
        Sliding-window length for the adaptive noise floor.
    threshold_db:
        Detection threshold above the noise floor.
    qos_latency_s:
        QoS bound: a burst must be flagged within this many seconds of
        its onset.
    """

    channels: int = 16
    frame_samples: int = 256
    frame_period_s: float = 0.01
    window_frames: int = 8
    threshold_db: float = 9.0
    qos_latency_s: float = 0.05

    def __post_init__(self) -> None:
        if min(self.channels, self.frame_samples, self.window_frames) <= 0:
            raise ConfigurationError("jammer config sizes must be positive")
        if self.frame_period_s <= 0 or self.qos_latency_s <= 0:
            raise ConfigurationError("jammer periods must be positive")


@dataclass
class JammerRunReport:
    """Outcome of one multi-instance detection run."""

    instances: int
    bursts_injected: int
    bursts_detected: int
    false_alarms: int
    max_latency_s: float
    qos_met: bool

    @property
    def detection_rate(self) -> float:
        if self.bursts_injected == 0:
            return 1.0
        return self.bursts_detected / self.bursts_injected


class SdrFrontend:
    """Synthetic SDR stream: noise-floor PSD frames + jammer bursts."""

    def __init__(self, config: JammerConfig, burst_rate_hz: float = 2.0,
                 burst_duration_s: float = 0.08, snr_db: float = 15.0,
                 seed: SeedLike = None) -> None:
        if burst_rate_hz < 0 or burst_duration_s <= 0:
            raise WorkloadError("burst parameters out of range")
        self.config = config
        self.burst_rate_hz = burst_rate_hz
        self.burst_duration_s = burst_duration_s
        self.snr_db = snr_db
        self._rng = substream(seed, "sdr-frontend")
        self.bursts: List[Tuple[float, float, int]] = []  # (start, end, channel)

    def schedule_bursts(self, duration_s: float) -> None:
        """Draw the burst timeline for a run (Poisson arrivals)."""
        self.bursts.clear()
        t = 0.0
        while True:
            t += float(self._rng.exponential(1.0 / self.burst_rate_hz)) \
                if self.burst_rate_hz > 0 else duration_s
            if t >= duration_s:
                break
            channel = int(self._rng.integers(self.config.channels))
            self.bursts.append((t, t + self.burst_duration_s, channel))

    def frame(self, now_s: float) -> np.ndarray:
        """PSD frame (channels x samples) at virtual time ``now_s``."""
        cfg = self.config
        psd = self._rng.normal(0.0, 1.0, size=(cfg.channels, cfg.frame_samples)) ** 2
        for start, end, channel in self.bursts:
            if start <= now_s < end:
                boost = 10.0 ** (self.snr_db / 10.0)
                psd[channel, :] *= boost
        return psd


class JammerDetector:
    """Multi-instance spectrum anomaly detector on the event loop."""

    def __init__(self, config: JammerConfig = JammerConfig(), instances: int = 4,
                 seed: SeedLike = None) -> None:
        if instances <= 0:
            raise WorkloadError("need at least one instance")
        self.config = config
        self.instances = instances
        self._seed = seed

    def run(self, duration_s: float = 2.0, burst_rate_hz: float = 2.0,
            processing_slowdown: float = 1.0) -> JammerRunReport:
        """Execute a detection run in virtual time.

        ``processing_slowdown`` scales per-frame compute time (1.0 =
        nominal frequency). Undervolting at constant frequency keeps it
        at 1.0; frequency scaling would raise it and eventually break
        QoS -- the tradeoff the paper's QoS constraint guards.
        """
        if duration_s <= 0:
            raise WorkloadError("duration must be positive")
        sim = Simulator()
        cfg = self.config
        frontends = [SdrFrontend(cfg, burst_rate_hz=burst_rate_hz,
                                 seed=substream(self._seed, f"sdr-{i}"))
                     for i in range(self.instances)]
        for fe in frontends:
            fe.schedule_bursts(duration_s)
        detections: List[List[Tuple[float, int]]] = [[] for _ in range(self.instances)]
        windows = [np.ones((cfg.channels, cfg.window_frames)) for _ in range(self.instances)]
        frame_compute_s = cfg.frame_period_s * 0.6 * processing_slowdown

        def make_tick(index: int):
            def tick() -> None:
                now = sim.now
                psd = frontends[index].frame(now)
                energy = psd.mean(axis=1)
                window = windows[index]
                floor = np.median(window, axis=1)
                ratio_db = 10.0 * np.log10(np.maximum(energy, 1e-12) /
                                           np.maximum(floor, 1e-12))
                for channel in np.nonzero(ratio_db > cfg.threshold_db)[0]:
                    detections[index].append((now + frame_compute_s, int(channel)))
                window[:, :-1] = window[:, 1:]
                window[:, -1] = energy
                next_time = now + cfg.frame_period_s + frame_compute_s \
                    if frame_compute_s > cfg.frame_period_s else now + cfg.frame_period_s
                if next_time < duration_s:
                    sim.schedule_at(next_time, tick)
            return tick

        for i in range(self.instances):
            sim.schedule(0.0, make_tick(i))
        sim.run()
        return self._score(frontends, detections)

    def _score(self, frontends: List[SdrFrontend],
               detections: List[List[Tuple[float, int]]]) -> JammerRunReport:
        injected = detected = false_alarms = 0
        max_latency = 0.0
        for fe, dets in zip(frontends, detections):
            for start, end, channel in fe.bursts:
                injected += 1
                hits = [t for t, ch in dets
                        if ch == channel and start <= t <= end + self.config.qos_latency_s]
                if hits:
                    detected += 1
                    max_latency = max(max_latency, min(hits) - start)
            for t, ch in dets:
                in_burst = any(ch == channel and start <= t <= end + self.config.qos_latency_s
                               for start, end, channel in fe.bursts)
                if not in_burst:
                    false_alarms += 1
        qos_met = max_latency <= self.config.qos_latency_s and \
            (injected == 0 or detected == injected)
        return JammerRunReport(
            instances=self.instances,
            bursts_injected=injected,
            bursts_detected=detected,
            false_alarms=false_alarms,
            max_latency_s=max_latency,
            qos_met=qos_met,
        )
