"""Spectro-temporal feature (pattern) construction.

Implements the feature pipeline of the paper's Section 3: each ensemble is
resliced into 50 %-overlapped records, Welch-windowed, transformed with the
DFT, reduced to complex magnitude, restricted to the ≈[1.2 kHz, 9.6 kHz]
band, optionally PAA-reduced by a factor of 10, and finally merged — three
consecutive frequency records per pattern — into the float vectors MESO is
trained and queried with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import FeatureConfig
from ..core.cutter import Ensemble
from ..dsp.dft import complex_magnitude, dft, dft_records, frequency_band_indices
from ..dsp.window_functions import get_window
from ..timeseries.normalize import znormalize
from ..timeseries.paa import paa_by_factor, paa_records

__all__ = ["PatternExtractor", "IncrementalPatternBuilder", "LabelledPattern"]


@dataclass(frozen=True)
class LabelledPattern:
    """One feature vector plus the species label and source ensemble index."""

    features: np.ndarray
    label: str
    ensemble_index: int


@dataclass
class PatternExtractor:
    """Convert ensembles into fixed-length classification patterns."""

    config: FeatureConfig = field(default_factory=FeatureConfig)
    #: Sample rate of the ensembles being processed, in Hz.
    sample_rate: int = 22050
    #: Whether to apply the PAA reduction (the paper evaluates both settings).
    use_paa: bool = False
    #: Per-pattern normalisation: "max", "znorm" or "none".  The synthetic
    #: substrate varies song loudness, so some normalisation is needed for
    #: the classifier to generalise (the paper's field recordings were
    #: normalised upstream by the recording chain's automatic gain).
    normalize: str = "max"
    #: Apply logarithmic compression (``log1p``) to the magnitude spectra
    #: before normalisation.  Spectral magnitudes are heavy-tailed; without
    #: compression the Euclidean distances MESO relies on are dominated by a
    #: handful of peak bins.  Enabled by default for the same reason audio
    #: classifiers conventionally work in log-magnitude (dB) space.
    log_compress: bool = True
    #: Gain applied inside the log compression (``log1p(gain * x)``).
    log_gain: float = 100.0

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.normalize not in ("max", "znorm", "none"):
            raise ValueError(f"normalize must be 'max', 'znorm' or 'none', got {self.normalize!r}")
        if self.log_gain <= 0:
            raise ValueError(f"log_gain must be positive, got {self.log_gain}")
        self._band = frequency_band_indices(
            self.config.record_size, self.sample_rate, self.config.low_hz, self.config.high_hz
        )
        self._window = get_window(self.config.window, self.config.record_size)

    # -- per-record processing ---------------------------------------------

    @property
    def bins_per_record(self) -> int:
        """Number of frequency bins kept per record after the cut-out."""
        if self.use_paa:
            return int(np.ceil(self._band.size / self.config.paa_factor))
        return int(self._band.size)

    @property
    def features_per_pattern(self) -> int:
        """Length of each pattern vector."""
        return self.bins_per_record * self.config.records_per_pattern

    @property
    def pattern_duration(self) -> float:
        """Seconds of audio represented by one pattern (paper: 0.125 s)."""
        hop = self.config.record_size // 2
        span = self.config.record_size + hop * (self.config.records_per_pattern - 1)
        return span / float(self.sample_rate)

    def _frequency_record(self, record: np.ndarray) -> np.ndarray:
        """One record: window, DFT, magnitude, cut-out, optional PAA."""
        spectrum = complex_magnitude(dft(record * self._window))
        banded = spectrum[self._band]
        if self.use_paa:
            banded = paa_by_factor(banded, self.config.paa_factor)
        return banded

    def _frequency_records(self, records: np.ndarray) -> np.ndarray:
        """A whole ``(n_records, record_size)`` block in one batched call.

        One FFT call and one PAA call transform the entire block; row ``i``
        is bit-identical to ``_frequency_record(records[i])``, so the
        incremental builder can batch however many records a slice completes
        without changing any output.
        """
        spectra = complex_magnitude(dft_records(records * self._window))
        banded = spectra[:, self._band]
        if self.use_paa:
            # Same segment count as `paa_by_factor` on one record.
            segments = max(1, int(np.ceil(banded.shape[1] / self.config.paa_factor)))
            banded = paa_records(banded, segments)
        return banded

    def _normalize_pattern(self, pattern: np.ndarray) -> np.ndarray:
        if self.log_compress:
            pattern = np.log1p(self.log_gain * np.abs(pattern))
        if self.normalize == "max":
            peak = np.max(np.abs(pattern))
            return pattern / peak if peak > 0 else pattern
        if self.normalize == "znorm":
            return znormalize(pattern)
        return pattern

    def _normalize_patterns(self, merged: np.ndarray) -> list[np.ndarray]:
        """Normalise every row of a ``(patterns, features)`` block.

        Row ``i`` is bit-identical to ``_normalize_pattern(merged[i])``, and
        no returned pattern aliases ``merged``.  ``"max"`` runs over the
        whole block at once (the log, the per-row peak and the division
        are elementwise or per row, so no bit depends on the block); the
        other modes normalise row by row.
        """
        if self.normalize != "max":
            return [self._normalize_pattern(row) for row in merged.copy()]
        if self.log_compress:
            block = np.log1p(self.log_gain * np.abs(merged))
        else:
            block = merged.copy()
        peak = np.max(np.abs(block), axis=1, keepdims=True)
        np.divide(block, peak, out=block, where=peak > 0)
        return list(block)

    # -- public API ----------------------------------------------------------

    def builder(self) -> "IncrementalPatternBuilder":
        """A fresh incremental builder computing this extractor's patterns."""
        return IncrementalPatternBuilder(self)

    def patterns_from_samples(self, samples: np.ndarray) -> list[np.ndarray]:
        """Patterns from a raw sample array (one ensemble's worth of audio).

        Bit-identical to an :class:`IncrementalPatternBuilder` fed the same
        samples in fragments of any size.
        """
        return self.patterns_from_many([samples])[0]

    #: Most records one batched transform of :meth:`patterns_from_many`
    #: holds (2 048 × 512 samples is 8 MiB of frames); more ensembles than
    #: that are transformed block by block.
    _BLOCK_RECORDS = 2048

    def patterns_from_many(self, sample_arrays) -> list[list[np.ndarray]]:
        """Patterns of each of several whole ensembles' sample arrays.

        The records of every array are framed into one block, transformed
        by one :meth:`_frequency_records` call and normalised in one
        :meth:`_normalize_patterns` call, then split back per array; each
        list is bit-identical to ``patterns_from_samples`` on that array
        alone.  Trailing records that never fill a pattern group are not
        transformed, exactly as the builder drops them.
        """
        size = self.config.record_size
        hop = size // 2
        group = self.config.records_per_pattern
        arrays = [np.asarray(samples, dtype=float).ravel() for samples in sample_arrays]
        counts = [
            ((arr.size - size) // hop + 1) // group if arr.size >= size else 0
            for arr in arrays
        ]
        patterns: list[np.ndarray] = []
        block: list[np.ndarray] = []
        records: list[int] = []
        held = 0
        for arr, count in zip(arrays, counts):
            if not count:
                continue
            if records and held + count * group > self._BLOCK_RECORDS:
                patterns.extend(self._block_patterns(block, records))
                block, records, held = [], [], 0
            block.append(arr)
            records.append(count * group)
            held += count * group
        if records:
            patterns.extend(self._block_patterns(block, records))
        ends = np.cumsum([0] + counts)
        return [patterns[ends[i] : ends[i + 1]] for i in range(len(counts))]

    def _block_patterns(self, arrays: list[np.ndarray], records: list[int]) -> list[np.ndarray]:
        """Patterns of the first ``records[i]`` 50 %-overlapped records of
        every array, gathered into one frame block."""
        size = self.config.record_size
        hop = size // 2
        counts = np.array(records)
        joined = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
        bases = np.cumsum([0] + [arr.size for arr in arrays[:-1]])
        firsts = np.repeat(bases - hop * (np.cumsum(counts) - counts), counts)
        firsts += hop * np.arange(counts.sum())
        freq = self._frequency_records(joined[firsts[:, None] + np.arange(size)])
        group = self.config.records_per_pattern
        return self._normalize_patterns(freq.reshape(-1, group * freq.shape[1]))

    def patterns_from_ensemble(self, ensemble: Ensemble) -> list[np.ndarray]:
        """Patterns from an :class:`Ensemble` (label not attached)."""
        return self.patterns_from_samples(ensemble.samples)

    def labelled_patterns(
        self, ensembles: list[Ensemble]
    ) -> tuple[list[LabelledPattern], list[list[int]]]:
        """Patterns for a list of labelled ensembles.

        Returns the flat pattern list plus, for each ensemble, the indices of
        its patterns in that list (used by the ensemble-voting data sets).
        Ensembles that are too short to produce a single pattern are skipped.
        """
        patterns: list[LabelledPattern] = []
        groups: list[list[int]] = []
        for index, ensemble in enumerate(ensembles):
            if ensemble.label is None:
                raise ValueError(f"ensemble {index} has no label; label ensembles before extraction")
            vectors = self.patterns_from_ensemble(ensemble)
            indices = []
            for vector in vectors:
                indices.append(len(patterns))
                patterns.append(
                    LabelledPattern(features=vector, label=ensemble.label, ensemble_index=index)
                )
            if indices:
                groups.append(indices)
        return patterns, groups


@dataclass
class IncrementalPatternBuilder:
    """Causal, fragment-by-fragment pattern construction.

    The streaming counterpart of :meth:`PatternExtractor.patterns_from_samples`:
    audio arrives in arbitrary slices, records are resliced causally with a
    carry-over buffer across slice boundaries, one frequency record is
    computed per completed 50 %-overlapped record, and a finished pattern is
    yielded every ``records_per_pattern`` records — *while the ensemble is
    still open*.  Feeding the whole ensemble as one slice reproduces the
    batch output bit-for-bit, so the two paths are interchangeable.

    Peak memory is O(``record_size`` + ``records_per_pattern`` ×
    ``bins_per_record``) — independent of ensemble length: the carry buffer
    never holds more than ``record_size - 1`` samples and at most
    ``records_per_pattern - 1`` frequency records wait to be merged.
    Trailing records that never complete a full pattern group are dropped,
    exactly like the batch grouping drops them.
    """

    extractor: PatternExtractor

    def __post_init__(self) -> None:
        self.reset()

    @property
    def records_built(self) -> int:
        """Number of frequency records completed so far."""
        return self._records_built

    @property
    def patterns_built(self) -> int:
        """Number of finished patterns yielded so far."""
        return self._patterns_built

    def push(self, samples: np.ndarray) -> list[np.ndarray]:
        """Absorb one audio slice; return the patterns it completed."""
        arr = np.asarray(samples, dtype=float).ravel()
        if arr.size == 0:
            return []
        buffer = np.concatenate([self._carry, arr]) if self._carry.size else arr
        size = self.extractor.config.record_size
        hop = size // 2
        group = self.extractor.config.records_per_pattern
        patterns: list[np.ndarray] = []
        consumed = 0
        if buffer.size >= size:
            # Every record this slice completes, transformed in one batched
            # call (one FFT for the whole block) — each row bit-identical to
            # the per-record path the loop used to take.
            frames = np.lib.stride_tricks.sliding_window_view(buffer, size)[::hop]
            freq = self.extractor._frequency_records(frames)
            consumed = frames.shape[0] * hop
            self._records_built += frames.shape[0]
            row = 0
            # Top up the partial group carried from earlier slices first.
            if self._freq_records:
                take = min(group - len(self._freq_records), freq.shape[0])
                self._freq_records.extend(freq[row + i].copy() for i in range(take))
                row += take
                if len(self._freq_records) == group:
                    merged = np.concatenate(self._freq_records)
                    patterns.append(self.extractor._normalize_pattern(merged))
                    self._freq_records = []
                    self._patterns_built += 1
            # Whole groups merge straight out of the block and normalise as
            # one (groups, features) block; no returned pattern aliases (and
            # thereby pins) the frequency block.
            whole = (freq.shape[0] - row) // group
            if whole:
                merged = freq[row : row + whole * group].reshape(whole, -1)
                patterns.extend(self.extractor._normalize_patterns(merged))
                row += whole * group
                self._patterns_built += whole
            # Leftover records wait for the next slice — copied out so the
            # carried rows do not keep the whole block alive either.
            self._freq_records.extend(freq[i].copy() for i in range(row, freq.shape[0]))
        self._carry = buffer[consumed:].copy()
        return patterns

    def reset(self) -> None:
        """Drop all carried state (sample carry-over and pending records)."""
        self._carry = np.zeros(0)
        self._freq_records: list[np.ndarray] = []
        self._records_built = 0
        self._patterns_built = 0
