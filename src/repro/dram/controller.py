"""Memory Control Unit front-end.

Ties the DRAM substrate together the way an MCU does on the board: it
owns a programmed refresh period, scrubs banks through the SECDED code,
and forwards every corrected/detected event to SLIMpro -- the reporting
path the paper extended for its characterization framework.

The scrub pass is the simulation analogue of the DPBench read-back: given
a weak-cell map (one bank, or every bank of a device) and the stored
pattern, it materializes the failing bits, groups them into 72-bit
codewords by (bank, row, word), runs the real decoder on each, and
reports CE/UE/miscorrection counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dram.cells import WeakCellMap
from repro.dram.ecc import DecodeStatus, SecdedCode
from repro.dram.errors_model import PatternKind
from repro.dram.geometry import DEFAULT_GEOMETRY, DramGeometry
from repro.errors import ConfigurationError
from repro.soc.slimpro import EccReport, SLIMpro
from repro.units import NOMINAL_REFRESH_S

#: Data bits per ECC codeword (one burst of a 72-bit-wide DIMM).
WORD_DATA_BITS = 64

# Scrub key layout (see ``MemoryControlUnit._decode_failures``).
_WORD_SHIFT = 6                 # log2(WORD_DATA_BITS)
_ROW_SHIFT = 16 + _WORD_SHIFT   # a row holds < 2**16 words
_BANK_SHIFT = 32 + _ROW_SHIFT
_ADDRESS_MASK = (1 << (_BANK_SHIFT - _WORD_SHIFT)) - 1  # row << 16 | word


@dataclass(frozen=True)
class ScrubResult:
    """Outcome of one ECC scrub over a bank at a condition."""

    raw_bit_errors: int
    corrected_words: int
    uncorrectable_words: int
    miscorrected_words: int
    words_scanned: int

    @property
    def all_corrected(self) -> bool:
        """The paper's headline DRAM property at <= 60 degC."""
        return self.uncorrectable_words == 0 and self.miscorrected_words == 0

    @property
    def residual_word_errors(self) -> int:
        return self.uncorrectable_words + self.miscorrected_words


class MemoryControlUnit:
    """One MCU: refresh period + ECC scrub + error reporting."""

    def __init__(self, index: int, slimpro: Optional[SLIMpro] = None,
                 geometry: DramGeometry = DEFAULT_GEOMETRY,
                 trefp_s: float = NOMINAL_REFRESH_S) -> None:
        if index < 0:
            raise ConfigurationError("MCU index must be non-negative")
        self.index = index
        self.slimpro = slimpro
        self.geometry = geometry
        self._trefp_s = trefp_s
        self._code = SecdedCode()

    @property
    def trefp_s(self) -> float:
        return self._trefp_s

    def set_trefp(self, trefp_s: float) -> None:
        """Program the refresh period (SLIMpro calls this)."""
        if trefp_s <= 0:
            raise ConfigurationError("refresh period must be positive")
        self._trefp_s = trefp_s

    # ------------------------------------------------------------------
    # ECC scrub
    # ------------------------------------------------------------------
    def scrub_bank(self, weak_map: WeakCellMap, temp_c: float,
                   pattern: PatternKind = PatternKind.RANDOM,
                   now_s: float = 0.0) -> ScrubResult:
        """Read back a map's banks through ECC after one refresh interval.

        Weak cells that fail under the programmed TREFP at ``temp_c``
        with the given stored pattern are grouped into 64-bit words by
        their (bank, row, col // 64) position; each corrupted word is
        decoded by the real SECDED code. A one-bank map and a whole
        device's map (:meth:`DramDevicePopulation.device_map`) go
        through the same pass, and the device's result is the total of
        its banks' results.
        """
        geometry = weak_map.geometry
        if (geometry.banks_per_device > 1 << (63 - _BANK_SHIFT)
                or geometry.rows_per_bank > 1 << (_BANK_SHIFT - _ROW_SHIFT)
                or geometry.bits_per_row > 1 << _ROW_SHIFT):
            raise ConfigurationError("geometry too large for the scrub key")
        stress_ones: Optional[bool]
        retention = weak_map.retention.params
        if pattern is PatternKind.ALL_ZEROS:
            stress_ones, coupling = False, 1.0
        elif pattern is PatternKind.ALL_ONES:
            stress_ones, coupling = True, 1.0
        elif pattern is PatternKind.CHECKERBOARD:
            stress_ones, coupling = None, retention.coupling_checker
        else:
            stress_ones, coupling = None, retention.coupling_random
        banks, rows, cols, is_true = weak_map.failing_arrays(
            self._trefp_s, temp_c, stored_ones=stress_ones, coupling=coupling)
        if pattern in (PatternKind.CHECKERBOARD, PatternKind.RANDOM):
            # Non-solid patterns charge about half the weak cells; take
            # the deterministic half by column parity (checker) or a
            # seeded coin implicit in the cell's column (random-like).
            shift = rows if pattern is PatternKind.RANDOM else 0
            keep = (cols + shift) % 2 == np.where(is_true, 0, 1)
            banks, rows, cols = banks[keep], rows[keep], cols[keep]
        return self._decode_failures(rows, cols, now_s, banks)

    def _decode_failures(self, rows: np.ndarray, cols: np.ndarray,
                         now_s: float,
                         banks: Optional[np.ndarray] = None) -> ScrubResult:
        """Classify every corrupted codeword of the banks in one pass.

        ``banks`` gives each failing bit's bank (all bank 0 if omitted).
        The stored data is all-zero and every failing bit lands in a
        word's 64 data bits, so the SECDED truth table pins the verdict
        of the common cases without running the decoder: a word with one
        distinct failing bit is always corrected, one with two is always
        a detected double-bit error. Only words with >= 3 distinct
        failing bits -- where syndrome aliasing decides between a UE and
        a silent miscorrection -- go through the real code. The counts
        are bit-identical to decoding every word individually.
        """
        raw_bit_errors = int(rows.size)
        if raw_bit_errors == 0:
            return ScrubResult(0, 0, 0, 0, 0)
        # One int64 key per cell, bank | row | col from the top bit down
        # (banks < 2**9, rows < 2**32, cols < 2**22), so the low 6 bits
        # are the bit within a word and ``key >> 6`` is the codeword
        # (bank, row, word). np.unique sorts, matching the scrub's
        # address-ordered readback bank by bank.
        keys = rows.astype(np.int64) << _ROW_SHIFT | cols.astype(np.int64)
        if banks is not None:
            keys |= banks.astype(np.int64) << _BANK_SHIFT
        cells = np.unique(keys)
        words, starts, counts = np.unique(
            cells >> _WORD_SHIFT, return_index=True, return_counts=True)
        corrected = int(np.count_nonzero(counts == 1))
        uncorrectable = int(np.count_nonzero(counts == 2))
        miscorrected = 0
        multi_status = {}
        if np.any(counts >= 3):
            true_data = 0  # scrub compares against the known-stored word
            for index in np.nonzero(counts >= 3)[0]:
                lo = starts[index]
                bits = (cells[lo:lo + counts[index]]
                        & (WORD_DATA_BITS - 1)).tolist()
                codeword = self._code.flip_bits(self._code.encode(true_data),
                                                bits)
                result = self._code.decode_with_truth(codeword, true_data)
                if result.status is DecodeStatus.DETECTED_UNCORRECTABLE:
                    uncorrectable += 1
                elif result.status is DecodeStatus.MISCORRECTED:
                    miscorrected += 1
                else:  # >= 3 data-bit flips can never decode clean/corrected
                    raise ConfigurationError("corrupted word decoded as clean")
                multi_status[int(words[index])] = result.status
        if self.slimpro is not None:
            self._report_words(words, counts, multi_status, now_s)
        return ScrubResult(
            raw_bit_errors=raw_bit_errors,
            corrected_words=corrected,
            uncorrectable_words=uncorrectable,
            miscorrected_words=miscorrected,
            words_scanned=int(words.size),
        )

    def _report_words(self, words: np.ndarray, counts: np.ndarray,
                      multi_status, now_s: float) -> None:
        """Forward per-word CE/UE events to SLIMpro in address order.

        The reported address is bank-local, ``row << 16 | word``.
        """
        for key, count in zip(words.tolist(), counts.tolist()):
            address = key & _ADDRESS_MASK
            if count == 1:
                self._report(now_s, correctable=True, address=address)
            elif count == 2:
                self._report(now_s, correctable=False, address=address)
            elif multi_status[key] is DecodeStatus.DETECTED_UNCORRECTABLE:
                self._report(now_s, correctable=False, address=address)

    def _report(self, now_s: float, correctable: bool, address: int) -> None:
        if self.slimpro is not None:
            self.slimpro.report_ecc(EccReport(
                time_s=now_s, source=f"mcu{self.index}",
                correctable=correctable, address=address,
            ))
