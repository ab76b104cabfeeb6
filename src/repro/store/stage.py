"""The ``"store"`` pipeline stage: persist events as they stream past.

:class:`StoreWriterStage` is a pass-through observer — every event is
forwarded unchanged, so it can sit anywhere after the extract stage without
altering what downstream stages or the result assembly see.  It consumes
fragment streams natively (``consumes_fragments``): audio slices and
streamed partial patterns are appended to the store the moment they pass,
so a still-open ensemble never buffers whole inside the stage — the peak
held per open ensemble is one event's payload, and the writer's own
``flush_values`` budget bounds what waits for the next shard cut.

``n_patterns`` accounting on the fragment path needs to know whether a
feature stage ran upstream (a close with zero streamed patterns is a
*short* ensemble then, not a pattern-free extraction): a partial
per-pattern event — even an empty one, which is how the river decoder
relays a stream's ``n_patterns`` stamp — says so for its ensemble, and
:class:`~repro.pipeline.builder.BuiltPipeline` stamps
:attr:`expect_features` for the whole graph when it assembles it.

Every fabric runs the stage through ``begin_run`` / ``end_run`` (per
``run()``, per river clip scope), so :meth:`begin` is the one naming and
station rule.  It detects truncation itself: a fragment opening mid-ensemble,
or a reset mid-run, leaves that ensemble or recording incomplete.
"""

from __future__ import annotations

from ..pipeline.results import (
    ClassifiedEvent,
    EnsembleEvent,
    EnsembleFragmentEvent,
    FeaturesEvent,
    PipelineEvent,
    SignalChunk,
)
from ..pipeline.stages import Stage
from .backends import StoreError
from .writer import StoreWriter

__all__ = ["StoreWriterStage"]

#: Stage-level default flush budget, smaller than the writer default so
#: fragment-streamed runs cut shards while the ensemble is still open.
STAGE_FLUSH_VALUES = 65_536


class StoreWriterStage(Stage):
    """Persist the event stream to a store while forwarding it unchanged."""

    name = "store"
    consumes_fragments = True

    def __init__(
        self,
        path=None,
        writer: StoreWriter | None = None,
        backend: str = "auto",
        recording: str | None = None,
        station: str = "",
        flush_values: int = STAGE_FLUSH_VALUES,
    ) -> None:
        if path is None and writer is None:
            raise StoreError("the store stage needs a path or a live StoreWriter")
        self.path = path
        self.backend = backend
        self.recording = recording
        self.station = station
        self.flush_values = flush_values
        self._writer = writer
        #: Whether a feature stage runs upstream of this one; stamped by
        #: BuiltPipeline when the graph is assembled (None = unknown).
        self.expect_features: bool | None = None
        self.sample_rate: int | None = None
        #: The recording this run writes, named by the writer in start().
        self._current: str | None = None
        self._ordinal = 0
        #: Samples seen during this run: counted from SignalChunks when they
        #: reach this stage, else pushed by the pipeline's end-of-stream
        #: observation (extract consumes chunks, so in-graph placement after
        #: it sees none).
        self._seen = 0
        self._session: dict | None = None

    @property
    def writer(self) -> StoreWriter:
        if self._writer is None:
            self._writer = StoreWriter(
                self.path, backend=self.backend, flush_values=self.flush_values
            )
        return self._writer

    def __getstate__(self) -> dict:
        # The live writer never crosses a process boundary: a copy re-opens
        # the store by path when it first writes.
        return {**self.__dict__, "_writer": None}

    # -- lifecycle -------------------------------------------------------------

    def start(self, sample_rate: int) -> None:
        self.sample_rate = int(sample_rate)

    def begin(self, recording: str | None, station: str) -> None:
        """Open this run's recording: the declared ``recording`` / ``station``
        when set, else the caller's ``recording`` (None: the writer's first
        free name) and ``station``.  A name the store already holds raises."""
        self._current = self.writer.begin_recording(
            self.recording if self.recording is not None else recording,
            station=self.station or station,
            sample_rate=self.sample_rate,
        )

    def reset(self) -> None:
        if self._current is not None:  # an abandoned run: flushed incomplete
            self.writer.flush()
        self._current = None
        self._session = None
        self._ordinal = 0
        self._seen = 0

    def observe_stream_end(self, total_samples: int) -> None:
        """Final stream offset, pushed by the pipeline before flushing."""
        self._seen = max(self._seen, int(total_samples))

    def flush(self) -> list[PipelineEvent]:
        if self._current is not None:
            self.writer.end_recording(self._current, total_samples=self._seen)
            self.writer.flush()
            self._current = None
        return []

    # -- event observation -----------------------------------------------------

    def process(self, event: PipelineEvent) -> list[PipelineEvent]:
        if isinstance(event, SignalChunk):
            self._seen += event.samples.size
            return [event]
        if isinstance(event, EnsembleFragmentEvent):
            self._observe_fragment(event)
            return [event]
        if isinstance(event, (EnsembleEvent, FeaturesEvent, ClassifiedEvent)):
            if isinstance(event, FeaturesEvent) and event.partial:
                self._observe_partial(event)
            else:
                self._observe_terminal(event)
            return [event]
        return [event]

    def _observe_fragment(self, event: EnsembleFragmentEvent) -> None:
        recording = self._current
        if recording is None:
            return
        if event.kind == "open":
            if self._session is not None:  # truncated: left unsealed, ordinal skipped
                self._ordinal += 1
            self.writer.open_ensemble(
                recording, self._ordinal, event.start, sample_rate=event.sample_rate
            )
            self._session = {
                "start": int(event.start),
                "samples": 0,
                "streamed": 0,
                "featured": bool(self.expect_features),
                "terminal": False,
            }
            return
        session = self._session
        if session is None:
            return
        if event.kind == "data":
            if event.samples is None:
                return
            offset = (
                int(event.offset)
                if event.offset is not None
                else session["start"] + session["samples"]
            )
            self.writer.append_audio(recording, self._ordinal, offset, event.samples)
            session["samples"] += int(event.samples.size)
            return
        # close: a terminal event already sealed the row, or seal it now
        # from the close marker (features(emit="patterns") or extract-only).
        if session["terminal"]:
            self._session = None
            self._ordinal += 1
            return
        end = (
            int(event.end)
            if event.end is not None
            else session["start"] + max(session["samples"], 1)
        )
        n_patterns = session["streamed"] if session["featured"] else -1
        self.writer.close_ensemble(
            recording, self._ordinal, end, n_patterns=n_patterns
        )
        self._session = None
        self._ordinal += 1

    def _observe_partial(self, event: FeaturesEvent) -> None:
        session = self._session
        if self._current is None or session is None:
            return
        session["featured"] = True
        for pattern in event.patterns:
            self.writer.append_pattern(
                self._current, self._ordinal, session["streamed"], pattern
            )
            session["streamed"] += 1

    def _observe_terminal(self, event) -> None:
        recording = self._current
        if recording is None:
            return
        ensemble = event.ensemble
        patterns = event.patterns
        featured = isinstance(event, (FeaturesEvent, ClassifiedEvent))
        n_patterns = len(patterns) if featured else -1
        session = self._session
        if session is not None and session["start"] != int(ensemble.start):
            # Another scope's event: the fragmented scope was cut short
            # upstream (bad-closed, so no close reached us) — left unsealed,
            # ordinal skipped, as the next open would do.
            self._session = session = None
            self._ordinal += 1
        if session is not None:
            # Fragment mode with a reassembling feature stage: the streamed
            # rows are already written, so top up what the terminal event
            # adds (whole audio when data fragments were consumed upstream,
            # patterns not streamed as partials) and seal the row.
            session["terminal"] = True
            if session["samples"] == 0 and ensemble.samples.size:
                self.writer.append_audio(
                    recording, self._ordinal, ensemble.start, ensemble.samples
                )
            for index in range(session["streamed"], len(patterns)):
                self.writer.append_pattern(recording, self._ordinal, index, patterns[index])
            self.writer.close_ensemble(
                recording,
                self._ordinal,
                ensemble.end,
                n_patterns=n_patterns,
                label=event.label,
                ens_label=ensemble.label,
                sample_rate=ensemble.sample_rate,
            )
            return
        self.writer.write_ensemble(
            recording, self._ordinal, ensemble, patterns, n_patterns, event.label
        )
        self._ordinal += 1
