"""Electromagnetic-emanation sensor model.

The paper cannot probe the supply rail directly, so it senses voltage
noise through radiated EM near the package (reference [14]): large
resonant current loops radiate, and the radiated amplitude at the PDN
resonance tracks the droop magnitude. The GA maximizes EM amplitude and
the paper then *validates* the proxy by showing the evolved virus also
maximizes Vmin.

Our sensor derives radiated amplitude from the same current waveform the
PDN sees. The near-field probe picks up the magnetic field of the
current circulating in the package's resonant L-C loop; that tank
current is the die current shaped by the network's impedance peak
(``I_tank(w) ~ |Z(w)| * I_die(w) / (w L)``, and the probe's ``dI/dt``
pickup restores the ``w``), so the radiated spectrum tracks
``|Z(w)| * I_die(w)`` -- the droop spectrum. The receiver chain adds a
band-limit around the resonance and measurement noise, so the proxy is
strong but imperfect, as in reality. ``tests/test_em_proxy.py``
quantifies the correlation.

Measurement noise follows a *counter-based* protocol: the noise of read
``r`` of evaluation ``e`` is a pure function of ``(seed, "em-read", e,
r)``. The sensor draws a 128-bit key once from ``substream(seed,
"em-read")``; the read is then the keyed Philox value at counter
``(e, r)`` (:func:`repro.rand.counter_normals`), where ``e`` is a
per-sensor evaluation counter. Every read goes through
:meth:`EmSensor.read_block`, which scores a whole cohort of evaluations
with one generator build per repeat. Each logical measurement consumes
one counter value, so a block of N evaluations is bit-identical to N
serial ones by construction -- the property that lets the GA batch its
fitness evaluations without perturbing a single result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.pdn.rlc import DEFAULT_PDN, PdnModel
from repro.rand import SeedLike, counter_normals, substream


@dataclass(frozen=True)
class EmReading:
    """One EM measurement: amplitude (arbitrary units) and its frequency."""

    amplitude: float
    peak_freq_hz: float

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ConfigurationError("EM amplitude cannot be negative")


class EmSensor:
    """Near-field EM probe + receiver model.

    Parameters
    ----------
    pdn:
        The PDN whose resonant current loop radiates.
    bandwidth_hz:
        Receiver bandwidth centred on the PDN resonance; spectral lines
        outside it are attenuated (simple Gaussian window).
    noise_floor:
        Additive measurement noise sigma, relative units. Real EM
        measurements are noisy; the GA must average across reads.
    seed:
        Seed of the counter-based measurement-noise protocol; the noise
        key is drawn once from its ``"em-read"`` substream (a live
        generator contributes one draw), so it stays fixed for the
        sensor's lifetime.
    """

    def __init__(self, pdn: PdnModel = None, bandwidth_hz: float = 30e6,
                 noise_floor: float = 0.01, seed: SeedLike = None) -> None:
        if bandwidth_hz <= 0:
            raise ConfigurationError("bandwidth must be positive")
        self.pdn = pdn or PdnModel(DEFAULT_PDN)
        self.bandwidth_hz = bandwidth_hz
        self.noise_floor = noise_floor
        self._noise_key = substream(seed, "em-read").integers(
            2**64, size=2, dtype=np.uint64)
        #: Evaluation counter of the noise protocol: the next logical
        #: measurement draws its reads at Philox counters ``(counter, r)``.
        self._next_eval = 0
        self._gain_cache: Dict[Tuple[int, float], np.ndarray] = {}

    # ------------------------------------------------------------------
    # Deterministic (noise-free) part
    # ------------------------------------------------------------------
    def _receiver_gain(self, n: int, sample_rate_hz: float,
                       freqs: np.ndarray, impedance: np.ndarray) -> np.ndarray:
        """Cached per-bin gain from ``|rfft(waveform)|`` to amplitude.

        ``|Z(f)| * G(f) * 2 / n``, normalized by the peak impedance so a
        full-swing resonant square wave reads ~1, with the DC bin zeroed
        (the probe sees no DC, which is what subtracting the waveform's
        mean would do).
        """
        key = (n, sample_rate_hz)
        gain = self._gain_cache.get(key)
        if gain is None:
            f_res = self.pdn.params.resonant_freq_hz
            window = np.exp(-0.5 * ((freqs - f_res) / self.bandwidth_hz) ** 2)
            gain = impedance * window * (2.0 / n / self.pdn.peak_impedance_ohm())
            gain[0] = 0.0
            gain.setflags(write=False)
            self._gain_cache[key] = gain
        return gain

    def clean_block(self, waveforms: np.ndarray, freq_ghz: float,
                    current_scale_a: float = 10.0
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Noise-free amplitudes + peak frequencies of stacked waveforms.

        ``waveforms`` is one waveform or an ``(N, n)`` stack of
        same-length waveforms; the whole stack goes through a single
        ``np.fft.rfft(..., axis=-1)`` and one multiply by the cached
        receiver gain. The radiated spectrum ``|Z(w)| * I(w) * G(w)``
        is linear in the current, and amplitudes are normalized by the
        same ``current_scale_a`` that converts relative units to amperes,
        so the scale cancels. Per-row results are bit-identical at any
        stack size, so callers may group however they like.
        """
        block = np.atleast_2d(np.asarray(waveforms, dtype=float))
        n = block.shape[-1]
        sample_rate_hz = freq_ghz * 1e9
        freqs, impedance = self.pdn.spectral_grid(n, sample_rate_hz)
        gain = self._receiver_gain(n, sample_rate_hz, freqs, impedance)
        radiated = np.abs(np.fft.rfft(block, axis=-1)) * gain
        peak_idx = np.argmax(radiated, axis=-1)
        amplitudes = radiated[np.arange(block.shape[0]), peak_idx]
        return amplitudes, freqs[peak_idx]

    # ------------------------------------------------------------------
    # Counter-based receiver noise
    # ------------------------------------------------------------------
    def read_block(self, clean_amplitudes: np.ndarray,
                   repeats: int = 1) -> np.ndarray:
        """Noisy (averaged) readings of a block of noise-free amplitudes.

        Entry ``i`` is evaluation ``counter + i``; the counter advances
        by the block size. Each of the ``repeats`` reads is clamped at
        zero (a receiver cannot report negative amplitude) and the reads
        are averaged. Read ``r`` of the whole block is one
        :func:`~repro.rand.counter_normals` call, and the rest is
        elementwise, so any split of a block into smaller blocks (down
        to serial :meth:`read_amplitude` calls) returns the same values.
        """
        if repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        clean = np.asarray(clean_amplitudes, dtype=float).reshape(-1)
        first = self._next_eval
        self._next_eval += clean.size
        total = np.zeros_like(clean)
        for repeat in range(repeats):
            noise = counter_normals(self._noise_key, first, clean.size, repeat)
            total += np.maximum(0.0, clean + self.noise_floor * noise)
        return total / repeats

    def read_amplitude(self, clean_amplitude: float, repeats: int = 1) -> float:
        """One noisy (averaged) reading: a :meth:`read_block` of one.

        Consumes exactly one evaluation counter value. Callers that
        memoize the deterministic amplitude (the GA's batched fitness)
        still consume counters one per evaluation, keeping them aligned
        with a fully serial evaluator.
        """
        return float(self.read_block(np.array([clean_amplitude]), repeats)[0])

    # ------------------------------------------------------------------
    # Measurement API
    # ------------------------------------------------------------------
    def measure(self, waveform: np.ndarray, freq_ghz: float,
                current_scale_a: float = 10.0) -> EmReading:
        """Measure the radiated amplitude of a current waveform.

        The probe output is ``|Z(w)| * I(w) * G(w)`` -- the tank-current
        pickup shaped by a Gaussian receiver window ``G`` around the PDN
        resonance -- plus additive receiver noise. The reported peak
        frequency comes from the noise-free radiated spectrum.
        """
        return self.measure_block(waveform, freq_ghz, 1, current_scale_a)[0]

    def measure_averaged(self, waveform: np.ndarray, freq_ghz: float,
                         repeats: int = 4,
                         current_scale_a: float = 10.0) -> EmReading:
        """Average ``repeats`` reads to knock down receiver noise.

        The peak frequency derives from the noise-free radiated spectrum
        (receiver noise only perturbs amplitude), so the reported
        resonance never depends on read ordering.
        """
        return self.measure_block(waveform, freq_ghz, repeats, current_scale_a)[0]

    def measure_block(self, waveforms: np.ndarray, freq_ghz: float,
                      repeats: int = 1,
                      current_scale_a: float = 10.0) -> List[EmReading]:
        """Measure N stacked same-length waveforms in one spectral pass.

        Bit-identical to N serial :meth:`measure_averaged` calls with the
        same ``repeats`` (and to :meth:`measure` when ``repeats == 1``),
        which are blocks of one: the deterministic amplitudes come from
        one batched FFT whose rows match the serial computation exactly,
        and row ``i`` consumes evaluation counter ``counter + i`` through
        :meth:`read_block` -- the same noise a serial caller would draw.
        """
        amplitudes, peaks = self.clean_block(waveforms, freq_ghz, current_scale_a)
        noisy = self.read_block(amplitudes, repeats=repeats)
        return [EmReading(amplitude=amp, peak_freq_hz=peak)
                for amp, peak in zip(noisy.tolist(), peaks.tolist())]
