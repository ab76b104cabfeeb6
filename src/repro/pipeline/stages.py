"""The Stage protocol and the built-in acoustic stages.

A *stage* is a stateful event transformer with a tiny lifecycle:

* ``start(sample_rate)`` — called once per run before any event;
* ``process(event)`` — map one event to zero or more output events;
* ``process_each(events)`` — optional: map a batch of events at once, one
  output list per event.  The default calls :meth:`Stage.process` on each
  in turn; a stage overrides it to share one vectorised call across the
  batch, and must then return exactly what that loop would;
  ``process_events(events)`` is the same batch flattened, in event order;
* ``flush()`` — emit whatever is still buffered at end of stream;
* ``reset()`` — drop all carried state so the stage can be reused.

Events a stage does not understand must pass through unchanged, which is
what makes stage graphs composable: inserting a new stage never breaks the
ones downstream.  The built-in stages cover the paper's chain — extraction
(saxanomaly → trigger → cutter), spectro-temporal features and MESO
classification — and register themselves in the default
:class:`~repro.pipeline.registry.StageRegistry` under ``"extract"``,
``"features"`` and ``"classify"``.
"""

from __future__ import annotations

import warnings
from collections import Counter, deque
from typing import Callable, Hashable

import numpy as np

from ..classify.features import IncrementalPatternBuilder, PatternExtractor
from ..classify.voting import majority_vote, predict_patterns
from ..config import ExtractionConfig, FeatureConfig
from ..core.anomaly import sax_anomaly_scores
from ..core.cutter import cut_ensembles
from ..core.trigger import AdaptiveTrigger
from .results import (
    ClassifiedEvent,
    EnsembleEvent,
    EnsembleFragmentEvent,
    FeaturesEvent,
    PipelineEvent,
    SignalChunk,
    ensemble_from_fragments,
)
from .streaming import (
    ChunkedAnomalyScorer,
    ChunkedCutter,
    FragmentClose,
    FragmentData,
    FragmentOpen,
)

__all__ = [
    "Stage",
    "BatchOnlyStageError",
    "ExtractStage",
    "FeatureStage",
    "ClassifyStage",
]


class BatchOnlyStageError(RuntimeError):
    """Raised when a batch-only stage configuration receives a chunked stream."""


class Stage:
    """Base class for pipeline stages (see module docstring for the contract)."""

    name = "stage"
    #: Whether the stage understands :class:`EnsembleFragmentEvent` streams.
    #: The Dynamic River adapter pumps fragment records straight through
    #: operators wrapping such stages instead of buffering whole scopes.
    consumes_fragments = False

    def start(self, sample_rate: int) -> None:
        """Prepare for a new run at the given sample rate."""

    def process(self, event: PipelineEvent) -> list[PipelineEvent]:
        """Transform one event; unknown events must be forwarded unchanged."""
        raise NotImplementedError

    def process_each(self, events: list[PipelineEvent]) -> list[list[PipelineEvent]]:
        """Transform a batch of events, one output list per event: by
        default, :meth:`process` on each in turn.  An override must return
        exactly what that loop would."""
        return [self.process(event) for event in events]

    def process_events(self, events: list[PipelineEvent]) -> list[PipelineEvent]:
        """Transform a batch of events: :meth:`process_each`, flattened."""
        return [output for outputs in self.process_each(events) for output in outputs]

    def flush(self) -> list[PipelineEvent]:
        """Emit buffered events at end of stream (default: nothing)."""
        return []

    def reset(self) -> None:
        """Discard all carried state."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class ExtractStage(Stage):
    """saxanomaly → trigger → cutter: signal chunks in, ensembles out.

    Two normalisation modes are supported:

    * ``"running"`` (default) — causal prefix normalisation via the
      chunk-invariant streaming engine.  Results are identical no matter how
      the signal is chunked, which is what ``extract_stream()`` and the
      Dynamic River backend require.
    * ``"global"`` — the legacy batch semantics (Z-normalise against the
      whole clip), kept for exact reproduction of the paper experiments.
      Batch-only: feeding more than one chunk raises
      :class:`BatchOnlyStageError`.

    Two emission modes control what a completed trigger-high run becomes:

    * ``emit="ensembles"`` (default) — one buffered
      :class:`~repro.pipeline.results.EnsembleEvent` per completed run.
    * ``emit="fragments"`` — the run is streamed as
      :class:`~repro.pipeline.results.EnsembleFragmentEvent`\\ s *while it
      is still open* (open / data / close), so downstream stages can start
      computing patterns before the ensemble ends and per-ensemble peak
      memory stays O(chunk) instead of O(run length).  Requires
      ``normalization="running"``.

    Streaming caveat: with ``keep_traces=True`` the per-sample score and
    trigger traces grow with stream length — unbounded on unbounded
    streams.  Set ``max_trace_samples`` to keep only the most recent chunks
    (oldest chunks are dropped with a one-time warning; ``traces()`` then
    returns a suffix of the stream whose absolute start is
    :attr:`trace_offset`), or ``keep_traces=False`` to keep none.

    Input must be finite: a NaN or infinite sample would poison the running
    normaliser and the trigger baseline for the rest of the stream, so
    :meth:`process` raises :class:`ValueError` naming its absolute stream
    index instead.
    """

    name = "extract"

    EMIT_MODES = ("ensembles", "fragments")

    def __init__(
        self,
        config: ExtractionConfig | None = None,
        hop: int = 16,
        normalization: str = "running",
        keep_traces: bool = True,
        max_trace_samples: int | None = None,
        emit: str = "ensembles",
    ) -> None:
        if normalization not in ("running", "global"):
            raise ValueError(
                f"normalization must be 'running' or 'global', got {normalization!r}"
            )
        if emit not in self.EMIT_MODES:
            raise ValueError(
                f"emit must be one of {', '.join(self.EMIT_MODES)}; got {emit!r}"
            )
        if emit == "fragments" and normalization == "global":
            raise ValueError(
                "emit='fragments' streams ensembles incrementally and is "
                "incompatible with the batch-only normalization='global'"
            )
        if max_trace_samples is not None and max_trace_samples < 1:
            raise ValueError(
                f"max_trace_samples must be >= 1 or None, got {max_trace_samples}"
            )
        self.config = config or ExtractionConfig()
        self.hop = hop
        self.normalization = normalization
        self.keep_traces = keep_traces
        self.max_trace_samples = max_trace_samples
        self.emit = emit
        self.sample_rate = self.config.sample_rate
        #: One-time flag for the trace-bound warning (deliberately not
        #: cleared by reset(): one warning per stage object, not per clip).
        self._trace_bound_warned = False
        self.reset()

    # -- configuration helpers ----------------------------------------------

    @property
    def settle(self) -> int:
        """Trigger settle period (derived from the anomaly config when 0)."""
        settle = self.config.trigger.settle
        if settle == 0:
            anomaly = self.config.anomaly
            settle = anomaly.window + anomaly.lag_window + anomaly.smooth_window
        return settle

    @property
    def samples_seen(self) -> int:
        return self._samples_seen

    @property
    def trace_offset(self) -> int:
        """Absolute stream index of ``traces()[0][0]``.

        0 until ``max_trace_samples`` evicts the first chunk; afterwards the
        kept traces are a stream *suffix* starting here, so
        ``traces()[1][e.start - stage.trace_offset]`` stays aligned with an
        ensemble ``e``'s absolute positions.
        """
        return self._trace_offset

    def traces(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(anomaly_scores, trigger) accumulated so far, or (None, None).

        With ``max_trace_samples`` set the arrays are a suffix of the
        stream beginning at :attr:`trace_offset`, not at sample 0.
        """
        if not self.keep_traces or not self._score_chunks:
            return None, None
        return np.concatenate(self._score_chunks), np.concatenate(self._trigger_chunks)

    # -- lifecycle -----------------------------------------------------------

    def start(self, sample_rate: int) -> None:
        self.sample_rate = int(sample_rate or self.config.sample_rate)
        self._cutter.sample_rate = self.sample_rate

    def reset(self) -> None:
        # Freeze the normalisation scale once the trigger's settle period is
        # over, so one loud event cannot re-scale the rest of the stream.
        self._scorer = ChunkedAnomalyScorer(
            self.config.anomaly, hop=self.hop, freeze_normalizer_after=self.settle
        )
        self._trigger = AdaptiveTrigger(self.config.trigger, settle=self.settle)
        self._cutter = ChunkedCutter(
            self.sample_rate, min_duration=self.config.trigger.min_duration
        )
        self._samples_seen = 0
        # Deques: the trace bound evicts from the front of the hot path.
        self._score_chunks: deque[np.ndarray] = deque()
        self._trigger_chunks: deque[np.ndarray] = deque()
        self._trace_samples = 0
        self._trace_offset = 0

    # -- processing ----------------------------------------------------------

    def _record_traces(self, scores: np.ndarray, trigger: np.ndarray) -> None:
        if not self.keep_traces:
            return
        self._score_chunks.append(scores)
        self._trigger_chunks.append(trigger)
        self._trace_samples += scores.size
        if self.max_trace_samples is None:
            return
        if self._trace_samples > self.max_trace_samples and not self._trace_bound_warned:
            self._trace_bound_warned = True
            warnings.warn(
                f"extract traces exceeded max_trace_samples="
                f"{self.max_trace_samples}; dropping oldest trace chunks — "
                "traces() now returns a suffix of the stream starting at "
                "trace_offset",
                RuntimeWarning,
                stacklevel=3,
            )
        while (
            len(self._score_chunks) > 1
            and self._trace_samples - self._score_chunks[0].size
            >= self.max_trace_samples
        ):
            dropped = self._score_chunks.popleft().size
            self._trace_samples -= dropped
            self._trace_offset += dropped
            self._trigger_chunks.popleft()

    def process(self, event: PipelineEvent) -> list[PipelineEvent]:
        if not isinstance(event, SignalChunk):
            return [event]
        samples = event.samples
        finite = np.isfinite(samples)
        if not finite.all():
            first = int(np.argmin(finite))
            raise ValueError(
                f"non-finite audio sample ({samples[first]}) at stream index "
                f"{self._samples_seen + first}; extraction needs finite samples"
            )
        if self.normalization == "global":
            return self._process_global(event)
        scores = self._scorer.process(samples)
        trigger = self._trigger.apply(scores)
        self._record_traces(scores, trigger)
        self._samples_seen += samples.size
        if self.emit == "fragments":
            return [
                self._fragment_event(f)
                for f in self._cutter.push_fragments(samples, trigger)
            ]
        return [EnsembleEvent(e) for e in self._cutter.push_block(samples, trigger)]

    def _fragment_event(self, fragment) -> EnsembleFragmentEvent:
        if isinstance(fragment, FragmentOpen):
            return EnsembleFragmentEvent(
                kind="open", start=fragment.start, sample_rate=self.sample_rate
            )
        if isinstance(fragment, FragmentData):
            return EnsembleFragmentEvent(
                kind="data",
                start=fragment.start,
                sample_rate=self.sample_rate,
                samples=fragment.samples,
                offset=fragment.offset,
            )
        assert isinstance(fragment, FragmentClose)
        return EnsembleFragmentEvent(
            kind="close",
            start=fragment.start,
            sample_rate=self.sample_rate,
            end=fragment.end,
        )

    def _process_global(self, event: SignalChunk) -> list[PipelineEvent]:
        if self._samples_seen:
            raise BatchOnlyStageError(
                "normalization='global' reproduces the legacy whole-clip batch "
                "semantics and cannot run over a chunked stream; build the "
                "pipeline with normalization='running' for streaming"
            )
        samples = event.samples
        scores = sax_anomaly_scores(samples, self.config.anomaly, hop=self.hop, smooth=True)
        trigger = AdaptiveTrigger(self.config.trigger, settle=self.settle).apply(scores)
        ensembles = cut_ensembles(
            samples, trigger, self.sample_rate, min_duration=self.config.trigger.min_duration
        )
        self._record_traces(scores, trigger)
        self._samples_seen += samples.size
        return [EnsembleEvent(e) for e in ensembles]

    def flush(self) -> list[PipelineEvent]:
        if self.normalization == "global":
            return []
        if self.emit == "fragments":
            return [self._fragment_event(f) for f in self._cutter.flush_fragments()]
        return [EnsembleEvent(e) for e in self._cutter.flush()]


class FeatureStage(Stage):
    """Spectro-temporal pattern construction for every completed ensemble.

    Consumes buffered :class:`EnsembleEvent`\\ s *and* streamed
    :class:`EnsembleFragmentEvent`\\ s.  On the fragment path, audio is
    resliced causally by an :class:`~repro.classify.IncrementalPatternBuilder`
    and a partial per-pattern :class:`FeaturesEvent` is emitted the moment
    each pattern's records exist — before the ensemble closes.  What happens
    at the fragment close depends on ``emit``:

    * ``emit="ensembles"`` (default) — the fragments are also reassembled
      and a terminal :class:`FeaturesEvent` carrying the whole ensemble and
      the full pattern tuple is emitted, exactly as on the buffered path,
      so classification and result assembly are unchanged (bit-identical).
    * ``emit="patterns"`` — nothing is reassembled: only the partial
      per-pattern events flow, followed by the forwarded close marker.
      Peak memory stays O(slice × records_per_pattern) regardless of
      ensemble length (the latency/memory mode; no ensemble-level voting
      is possible downstream).
    """

    name = "features"
    consumes_fragments = True

    EMIT_MODES = ("ensembles", "patterns")

    def __init__(
        self,
        config: FeatureConfig | None = None,
        use_paa: bool = False,
        normalize: str = "max",
        log_compress: bool = True,
        log_gain: float = 100.0,
        sample_rate: int | None = None,
        emit: str = "ensembles",
    ) -> None:
        if emit not in self.EMIT_MODES:
            raise ValueError(
                f"emit must be one of {', '.join(self.EMIT_MODES)}; got {emit!r}"
            )
        self.config = config or FeatureConfig()
        self.use_paa = use_paa
        self.normalize = normalize
        self.log_compress = log_compress
        self.log_gain = log_gain
        self.sample_rate = sample_rate
        self.emit = emit
        self._extractor: PatternExtractor | None = None
        self._clear_session()
        if sample_rate is not None:
            self.start(sample_rate)

    def start(self, sample_rate: int) -> None:
        self.sample_rate = int(sample_rate)
        self._extractor = PatternExtractor(
            config=self.config,
            sample_rate=self.sample_rate,
            use_paa=self.use_paa,
            normalize=self.normalize,
            log_compress=self.log_compress,
            log_gain=self.log_gain,
        )

    @property
    def extractor(self) -> PatternExtractor:
        """The underlying :class:`PatternExtractor` (requires ``start``)."""
        if self._extractor is None:
            raise RuntimeError("feature stage has not been started with a sample rate")
        return self._extractor

    def patterns_for(self, samples: np.ndarray) -> list[np.ndarray]:
        """Patterns for a raw sample array (e.g. reference training songs)."""
        return self.extractor.patterns_from_samples(samples)

    def process(self, event: PipelineEvent) -> list[PipelineEvent]:
        return self.process_each([event])[0]

    def process_each(self, events: list[PipelineEvent]) -> list[list[PipelineEvent]]:
        """Fragments step the incremental builder one by one; the patterns
        of every whole ensemble of the batch come from one
        :meth:`~repro.classify.PatternExtractor.patterns_from_many` call."""
        return _splice(
            events,
            lambda event: isinstance(event, EnsembleEvent),
            self._features,
            self._process_other,
        )

    def _features(self, events: list[EnsembleEvent]) -> list[PipelineEvent]:
        made = self.extractor.patterns_from_many([event.ensemble.samples for event in events])
        return [
            FeaturesEvent(ensemble=event.ensemble, patterns=tuple(patterns))
            for event, patterns in zip(events, made)
        ]

    def _process_other(self, event: PipelineEvent) -> list[PipelineEvent]:
        if isinstance(event, EnsembleFragmentEvent):
            return self._process_fragment(event)
        return [event]

    # -- fragment path --------------------------------------------------------

    def _clear_session(self) -> None:
        self._builder: IncrementalPatternBuilder | None = None
        self._frag_parts: list[np.ndarray] | None = None
        self._frag_patterns: list[np.ndarray] = []

    def _process_fragment(self, event: EnsembleFragmentEvent) -> list[PipelineEvent]:
        if event.kind == "open":
            self._builder = self.extractor.builder()
            self._frag_parts = [] if self.emit == "ensembles" else None
            self._frag_patterns = []
            # Forward the marker: boundaries stay visible downstream while
            # the audio itself is consumed here.
            return [event]
        if event.kind == "data":
            if self._builder is None or event.samples is None:
                return []
            if self._frag_parts is not None:
                self._frag_parts.append(event.samples)
            patterns = self._builder.push(event.samples)
            if self.emit == "ensembles":
                self._frag_patterns.extend(patterns)
            return [FeaturesEvent(ensemble=None, patterns=(p,)) for p in patterns]
        # close: trailing records that never filled a pattern group are
        # dropped, exactly like the batch grouping drops them.
        outputs: list[PipelineEvent] = []
        if self._builder is not None and self.emit == "ensembles":
            parts = self._frag_parts or []
            if parts:
                ensemble = ensemble_from_fragments(
                    parts, event.start, event.end, event.sample_rate
                )
                outputs.append(
                    FeaturesEvent(ensemble=ensemble, patterns=tuple(self._frag_patterns))
                )
        self._clear_session()
        outputs.append(event)
        return outputs

    def reset(self) -> None:
        self._clear_session()


class ClassifyStage(Stage):
    """Per-ensemble majority voting with any ``predict``-style classifier."""

    name = "classify"

    def __init__(self, classifier) -> None:
        if not hasattr(classifier, "predict"):
            raise TypeError(
                f"classifier must expose a predict(pattern) method, got {classifier!r}"
            )
        self.classifier = classifier

    #: Most patterns one batched prediction holds; a longer batch of
    #: ensembles is predicted block by block.
    _BLOCK_PATTERNS = 4096

    def process(self, event: PipelineEvent) -> list[PipelineEvent]:
        return self.process_each([event])[0]

    def process_each(self, events: list[PipelineEvent]) -> list[list[PipelineEvent]]:
        """Every whole-ensemble :class:`FeaturesEvent` of the batch is voted
        from one prediction call over all their patterns.  A partial
        per-pattern event of a still-open ensemble (``ensemble is None``)
        passes through untouched: voting needs the full pattern set, so the
        terminal event is classified instead."""
        return _splice(
            events,
            lambda event: isinstance(event, FeaturesEvent) and event.ensemble is not None,
            self._classify,
            lambda event: [event],
        )

    def _classify(self, events: list[FeaturesEvent]) -> list[PipelineEvent]:
        patterns = [pattern for event in events for pattern in event.patterns]
        labels: list[Hashable] = []
        for start in range(0, len(patterns), self._BLOCK_PATTERNS):
            block = patterns[start : start + self._BLOCK_PATTERNS]
            labels.extend(predict_patterns(self.classifier, block))
        outputs: list[PipelineEvent] = []
        start = 0
        for event in events:
            votes: Counter[Hashable] = Counter(labels[start : start + len(event.patterns)])
            start += len(event.patterns)
            label = majority_vote(list(votes.elements())) if votes else None
            outputs.append(
                ClassifiedEvent(
                    ensemble=event.ensemble,
                    patterns=event.patterns,
                    label=label,
                    votes=dict(votes),
                )
            )
        return outputs


def _splice(
    events: list[PipelineEvent],
    batched: Callable[[PipelineEvent], bool],
    transform: Callable[[list], list[PipelineEvent]],
    single: Callable[[PipelineEvent], list[PipelineEvent]],
) -> list[list[PipelineEvent]]:
    """``events`` mapped in order, one output list per event: the events
    ``batched`` selects go through one ``transform`` call (one output event
    each), every other event through ``single`` (zero or more outputs)."""
    slots: list[list[PipelineEvent] | None] = []
    chosen: list[PipelineEvent] = []
    for event in events:
        if batched(event):
            chosen.append(event)
            slots.append(None)
        else:
            slots.append(single(event))
    made = iter(transform(chosen) if chosen else ())
    return [[next(made)] if slot is None else slot for slot in slots]
