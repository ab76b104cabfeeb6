"""Chunk-invariant streaming primitives shared by every execution backend.

The unified pipeline promises one property above all others: processing a
signal in chunks of *any* size produces exactly the same output as processing
it in one shot.  That is what lets the same stage graph run over recorded
clips, over ``extract_stream()`` chunk iterators and inside Dynamic River
record operators without re-implementing the algorithms per backend.

Chunk invariance requires every computation to be *causal* — sample ``i``
may only depend on samples ``0..i`` — which rules out the whole-clip
Z-normalisation of the legacy batch scorer.  The primitives here therefore
normalise against running (prefix) statistics, symbolise pointwise, count
SAX n-grams over carried history buffers and smooth with a trailing moving
average whose state survives chunk boundaries.  Each ``process`` call is
fully vectorised over its chunk, so handing the entire signal in as a single
chunk recovers batch-path performance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import AnomalyConfig
from ..core.cutter import Ensemble
from ..timeseries.bitmap import windowed_code_counts
from ..timeseries.sax import symbolize

__all__ = [
    "RunningNormalizer",
    "ChunkedAnomalyScorer",
    "ChunkedCutter",
    "FragmentOpen",
    "FragmentData",
    "FragmentClose",
]


@dataclass
class RunningNormalizer:
    """Causal Z-normalisation with carried prefix statistics.

    Sample ``i`` is normalised against the mean and population deviation of
    samples ``0..i`` (inclusive), matching what a streaming operator can
    actually compute.  The update is vectorised per chunk via cumulative
    sums; the carried aggregates make the result independent of how the
    stream is chunked.

    When ``freeze_after`` is set, the statistics stop updating once that
    many samples have been observed and every later sample is normalised
    against the frozen mean and deviation.  A stationary scale is important
    for the anomaly trigger downstream: without it, one loud event inflates
    the running deviation and silently re-scales — and thereby re-symbolises
    — the entire stream that follows, collapsing the trigger's baseline
    deviation into a hair trigger.  Freezing after the warm-up mirrors the
    constant scale that whole-clip Z-normalisation gives the batch path.
    """

    freeze_after: int | None = None
    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    def __post_init__(self) -> None:
        if self.freeze_after is not None and self.freeze_after < 2:
            raise ValueError(f"freeze_after must be >= 2, got {self.freeze_after}")

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Normalise one chunk and fold it into the running statistics."""
        x = np.asarray(samples, dtype=float).ravel()
        if x.size == 0:
            return x.copy()
        if self.freeze_after is not None:
            remaining = self.freeze_after - self.count
            if remaining <= 0:
                return self._frozen(x)
            if remaining < x.size:
                # The chunk straddles the freeze point: finish the running
                # region exactly, then continue with frozen statistics.
                head = self._running(x[:remaining])
                return np.concatenate([head, self._frozen(x[remaining:])])
        return self._running(x)

    def _running(self, x: np.ndarray) -> np.ndarray:
        counts = self.count + np.arange(1, x.size + 1)
        sums = self.total + np.cumsum(x)
        sums_sq = self.total_sq + np.cumsum(x * x)
        means = sums / counts
        variances = np.maximum(sums_sq / counts - means * means, 0.0)
        stds = np.sqrt(variances)
        defined = (counts >= 2) & (stds > 0)
        normalized = np.where(defined, (x - means) / np.where(stds > 0, stds, 1.0), 0.0)
        self.count = int(counts[-1])
        self.total = float(sums[-1])
        self.total_sq = float(sums_sq[-1])
        return normalized

    def _frozen(self, x: np.ndarray) -> np.ndarray:
        mean = self.total / self.count
        variance = max(self.total_sq / self.count - mean * mean, 0.0)
        std = np.sqrt(variance)
        if std <= 0:
            return np.zeros_like(x)
        return (x - mean) / std

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.total_sq = 0.0


@dataclass
class ChunkedAnomalyScorer:
    """SAX-bitmap anomaly scorer that is exactly invariant to chunking.

    Semantics (all causal):

    * samples are normalised with :class:`RunningNormalizer` and symbolised
      pointwise;
    * the n-gram *ending* at sample ``i`` summarises symbols
      ``i - level + 1 .. i``;
    * at evaluation points — every ``hop`` samples starting at
      ``window + lag_window + level - 2`` — the score is the Euclidean
      distance between the normalised n-gram frequencies of the last
      ``window`` grams (lead) and the ``lag_window`` grams before them;
    * between evaluation points the score holds its last evaluated value
      (0 before the first evaluation);
    * the held score is smoothed with a trailing moving average of width
      ``smooth_window`` (warm-up ramp included, exactly like
      :func:`repro.timeseries.windows.moving_average`).

    ``process`` consumes one chunk and returns one smoothed score per
    sample; concatenating the outputs over any chunking of a signal yields
    bit-identical results.
    """

    config: AnomalyConfig = field(default_factory=AnomalyConfig)
    hop: int = 16
    #: Freeze the running normalisation statistics after this many samples
    #: (None keeps them running forever); see :class:`RunningNormalizer`.
    freeze_normalizer_after: int | None = None

    def __post_init__(self) -> None:
        if self.hop < 1:
            raise ValueError(f"hop must be >= 1, got {self.hop}")
        self._normalizer = RunningNormalizer(freeze_after=self.freeze_normalizer_after)
        self._sym_tail = np.zeros(0, dtype=np.int64)
        self._codes = np.zeros(0, dtype=np.int64)
        # Absolute sample index one past the last buffered gram-end.  Grams
        # end at sample `level - 1` onward, so that is where the count starts.
        self._codes_end = self.config.level - 1
        self._samples_seen = 0
        self._last_eval = 0.0
        self._smooth_tail = np.zeros(0)

    # -- derived geometry ----------------------------------------------------

    @property
    def first_eval(self) -> int:
        """Absolute index of the first sample with a defined raw score."""
        cfg = self.config
        return cfg.window + cfg.lag_window + cfg.level - 2

    @property
    def samples_seen(self) -> int:
        return self._samples_seen

    # -- chunk processing ----------------------------------------------------

    def process(self, samples: np.ndarray) -> np.ndarray:
        """Score one chunk; returns an array of the same length."""
        x = np.asarray(samples, dtype=float).ravel()
        if x.size == 0:
            return np.zeros(0)
        cfg = self.config
        window, lag, level = cfg.window, cfg.lag_window, cfg.level
        start = self._samples_seen

        symbols = symbolize(self._normalizer.process(x), cfg.alphabet)

        # New gram codes: one per gram ending inside this chunk.
        ext = np.concatenate([self._sym_tail, symbols])
        if ext.size >= level:
            gram_count = ext.size - level + 1
            codes = np.zeros(gram_count, dtype=np.int64)
            for offset in range(level):
                codes = codes * cfg.alphabet + ext[offset : offset + gram_count]
        else:
            codes = np.zeros(0, dtype=np.int64)

        buffer = np.concatenate([self._codes, codes])
        # Absolute gram-end index of buffer[0].
        buffer_start = self._codes_end + codes.size - buffer.size

        raw = self._evaluate(buffer, buffer_start, start, x.size)

        # Carry state for the next chunk.
        keep = window + lag - 1
        self._codes = buffer[-keep:].copy() if buffer.size > keep else buffer
        self._codes_end += codes.size
        if level > 1:
            self._sym_tail = ext[-(level - 1) :].copy()
        self._samples_seen += x.size
        return self._smooth(raw, start)

    def _evaluate(
        self, buffer: np.ndarray, buffer_start: int, start: int, length: int
    ) -> np.ndarray:
        """Raw (pre-smoothing) scores for samples ``[start, start + length)``."""
        cfg = self.config
        window, lag = cfg.window, cfg.lag_window
        first = self.first_eval
        lower = max(start, first)
        offset = -(-(lower - first) // self.hop) * self.hop  # ceil to the grid
        eval_points = np.arange(first + offset, start + length, self.hop)
        if eval_points.size == 0:
            return np.full(length, self._last_eval)

        ends = eval_points - buffer_start + 1
        lead_starts = eval_points - window + 1 - buffer_start
        lag_starts = eval_points - window - lag + 1 - buffer_start
        n_codes = cfg.alphabet**cfg.level
        # Both sliding windows of every evaluation point counted in one
        # vectorised difference-array pass instead of one scan of the
        # buffer per code — integer-exact, so the scores are bit-identical
        # to per-code counting.
        lead_counts, lag_counts = windowed_code_counts(
            buffer, ends, lead_starts, lag_starts, n_codes, hop=self.hop
        )
        eval_scores = np.sqrt(
            np.sum((lead_counts / window - lag_counts / lag) ** 2, axis=1)
        )

        # Hold each evaluated score until the next evaluation point.
        positions = np.arange(start, start + length)
        indices = np.searchsorted(eval_points, positions, side="right") - 1
        raw = np.where(indices >= 0, eval_scores[np.maximum(indices, 0)], self._last_eval)
        self._last_eval = float(eval_scores[-1])
        return raw

    def _smooth(self, raw: np.ndarray, start: int) -> np.ndarray:
        """Trailing moving average with carried tail (chunk-invariant)."""
        width = self.config.smooth_window
        if width == 1:
            return raw
        window_input = np.concatenate([self._smooth_tail, raw])
        cumulative = np.cumsum(window_input)
        spans = np.minimum(start + np.arange(1, raw.size + 1), width)
        ends = self._smooth_tail.size + np.arange(raw.size)
        starts = ends - spans + 1
        sums = cumulative[ends] - np.where(starts > 0, cumulative[starts - 1], 0.0)
        self._smooth_tail = window_input[-(width - 1) :].copy()
        return sums / spans

    def reset(self) -> None:
        """Clear all carried state (normalisation, grams, smoothing)."""
        self.__post_init__()


@dataclass(frozen=True)
class FragmentOpen:
    """A trigger-high run has reached ``min_duration``: an ensemble begins."""

    #: Absolute index of the run's first sample.
    start: int


@dataclass(frozen=True)
class FragmentData:
    """A contiguous slice of an open ensemble's audio."""

    #: Absolute index of the run's first sample (the enclosing ensemble).
    start: int
    #: Absolute index of ``samples[0]`` within the stream.
    offset: int
    samples: np.ndarray


@dataclass(frozen=True)
class FragmentClose:
    """The trigger dropped: the ensemble spanning ``[start, end)`` is done."""

    start: int
    end: int


FragmentEvent = FragmentOpen | FragmentData | FragmentClose


@dataclass
class ChunkedCutter:
    """Run-length cutter with carry-over across chunk boundaries.

    Two views of the same run-length machinery:

    * ``push_fragments`` is the primitive: it consumes equal-length sample
      and trigger chunks and emits :class:`FragmentOpen` /
      :class:`FragmentData` / :class:`FragmentClose` events *while* a
      trigger-high run is still in progress.  At most ``min_duration - 1``
      samples are ever buffered (a run is announced once it is provably
      long enough to keep), so peak memory no longer grows with run length.
    * ``push_block`` is the buffered view, re-expressed over the fragments:
      it reassembles each fragment stream into a whole :class:`Ensemble`
      and returns the ensembles completed inside the chunk.  Output is
      bit-identical to the historical buffered implementation.

    The two entry points share position state; use one or the other on a
    given cutter instance, not both.  ``flush`` / ``flush_fragments`` close
    a run left open at end of stream.  Positions are absolute within the
    stream.
    """

    sample_rate: int
    min_duration: int = 1

    def __post_init__(self) -> None:
        if self.min_duration < 1:
            raise ValueError(f"min_duration must be >= 1, got {self.min_duration}")
        self._position = 0
        self._open_start: int | None = None
        #: Samples held back until the run reaches ``min_duration``.
        self._pending: list[np.ndarray] = []
        self._pending_size = 0
        #: Whether FragmentOpen has been emitted for the current run.
        self._announced = False
        #: Samples emitted as fragments for the current run so far.
        self._emitted = 0
        #: Reassembly buffer used by the buffered ``push_block`` view only.
        self._parts: list[np.ndarray] = []

    @property
    def open(self) -> bool:
        """True while a trigger-high run is being accumulated."""
        return self._open_start is not None

    @property
    def position(self) -> int:
        """Absolute index of the next sample to be consumed."""
        return self._position

    # -- fragment view --------------------------------------------------------

    def push_fragments(
        self, samples: np.ndarray, trigger: np.ndarray
    ) -> list[FragmentEvent]:
        """Consume one (samples, trigger) chunk; emit fragment events.

        Runs shorter than ``min_duration`` produce no events at all (they
        are discarded before being announced, exactly like the buffered
        path discards them at close).
        """
        sig = np.asarray(samples, dtype=float).ravel()
        trig = np.asarray(trigger).ravel().astype(bool)
        if sig.size != trig.size:
            raise ValueError(
                f"samples ({sig.size}) and trigger ({trig.size}) must align"
            )
        events: list[FragmentEvent] = []
        if sig.size == 0:
            return events
        edges = np.flatnonzero(np.diff(trig.astype(np.int8))) + 1
        bounds = np.concatenate(([0], edges, [trig.size]))
        for run_start, run_end in zip(bounds[:-1], bounds[1:]):
            if trig[run_start]:
                if self._open_start is None:
                    self._open_start = self._position + int(run_start)
                    self._pending = []
                    self._pending_size = 0
                    self._announced = False
                    self._emitted = 0
                segment = sig[run_start:run_end].copy()
                events.extend(self._absorb(segment))
            else:
                events.extend(self._close_fragments())
        self._position += trig.size
        return events

    def flush_fragments(self) -> list[FragmentEvent]:
        """Close (or discard, if still too short) a run open at end of stream."""
        return self._close_fragments()

    def _absorb(self, segment: np.ndarray) -> list[FragmentEvent]:
        """Fold one trigger-high segment into the open run."""
        start = self._open_start
        assert start is not None
        if self._announced:
            event = FragmentData(
                start=start, offset=start + self._emitted, samples=segment
            )
            self._emitted += segment.size
            return [event]
        self._pending.append(segment)
        self._pending_size += segment.size
        if self._pending_size < self.min_duration:
            return []
        data = (
            np.concatenate(self._pending)
            if len(self._pending) > 1
            else self._pending[0]
        )
        self._pending = []
        self._pending_size = 0
        self._announced = True
        self._emitted = data.size
        return [FragmentOpen(start=start), FragmentData(start=start, offset=start, samples=data)]

    def _close_fragments(self) -> list[FragmentEvent]:
        if self._open_start is None:
            return []
        start = self._open_start
        announced, emitted = self._announced, self._emitted
        self._open_start = None
        self._pending = []
        self._pending_size = 0
        self._announced = False
        self._emitted = 0
        if not announced:
            # The run never reached min_duration: discarded, nothing was
            # announced downstream, so nothing needs closing.
            return []
        return [FragmentClose(start=start, end=start + emitted)]

    # -- buffered view (re-expressed over the fragments) ----------------------

    def push_block(self, samples: np.ndarray, trigger: np.ndarray) -> list[Ensemble]:
        """Consume one (samples, trigger) chunk; return completed ensembles."""
        completed: list[Ensemble] = []
        for event in self.push_fragments(samples, trigger):
            ensemble = self._reassemble(event)
            if ensemble is not None:
                completed.append(ensemble)
        return completed

    def flush(self) -> list[Ensemble]:
        """Close a run left open at the end of the stream."""
        completed: list[Ensemble] = []
        for event in self.flush_fragments():
            ensemble = self._reassemble(event)
            if ensemble is not None:
                completed.append(ensemble)
        return completed

    def _reassemble(self, event: FragmentEvent) -> Ensemble | None:
        if isinstance(event, FragmentOpen):
            self._parts = []
            return None
        if isinstance(event, FragmentData):
            self._parts.append(event.samples)
            return None
        if not self._parts:
            # A close with no buffered data means this run's FragmentOpen /
            # FragmentData events were consumed through push_fragments()
            # while the close arrived here — the two entry points were mixed
            # on one instance.  Fail loudly rather than with an IndexError.
            raise ValueError(
                "FragmentClose with no buffered fragment data: use either "
                "push_block()/flush() or push_fragments()/flush_fragments() "
                "on a given ChunkedCutter, not both"
            )
        samples = (
            np.concatenate(self._parts) if len(self._parts) > 1 else self._parts[0]
        )
        self._parts = []
        return Ensemble(
            samples=samples,
            start=event.start,
            end=event.end,
            sample_rate=self.sample_rate,
        )

    def reset(self) -> None:
        self.__post_init__()
