"""Compile a stage graph into Dynamic River operators.

``AcousticPipeline.to_river()`` lands here: every stage is wrapped in a thin
record operator, so the *same* stage objects that power batch runs and
``extract_stream()`` also run inside distributed pipeline segments.  The
wrappers only translate between records and events, and they do it through
one codec — :func:`event_to_records` writes, :class:`ScopeDecoder` reads.

**The ensemble-scope encoding.**  One ensemble travels as one
``scope_ensemble`` scope, in one of two shapes:

* *buffered* — what a terminal event encodes to::

      OpenScope   {start, end, sample_rate[, ens_label][, n_patterns]}
      AUDIO       the whole ensemble
      FEATURES*   one record per pattern, in pattern order
      LABEL?      {label, votes} — the classifier's verdict
      CloseScope

  ``ens_label`` is the ensemble's ground-truth label (absent when it has
  none) and never the verdict, which only the LABEL record carries.
  ``n_patterns`` is stamped once a feature stage ran; 0 marks a *short*
  ensemble, too brief for a single pattern.

* *fragmented* — streamed while the ensemble is still open
  (``ExtractStage(emit="fragments")``)::

      OpenScope   {start, sample_rate, fragmented: True}
      FRAGMENT*   {start, offset} — contiguous audio slices, in order
      FEATURES*   appended by a pumping feature operator as patterns complete
      CloseScope  {[n_patterns: 0]}

  The opener is long gone when a pumping operator learns that no pattern
  completed, so here the ``n_patterns`` stamp rides on the close — only
  when its stage consumed the audio and made no pattern.

A BadCloseScope (scope repair after an upstream truncation) voids the scope
in either shape.  Both shapes decode to the same events, so fragment mode
changes memory and latency, never output.

* :class:`ExtractStageOperator` feeds clip-scoped audio records into the
  extract stage as :class:`~repro.pipeline.results.SignalChunk` events and
  encodes what comes out — whole ensembles, or fragment events record by
  record while the run is still open;
* :class:`EnsembleStageOperator` decodes the scopes of a batch — the
  records one segment step pulled — passes their events through the
  wrapped stage (features, classify or any plugin) in one call and
  re-encodes each result in its scope's place.  When the wrapped stage
  consumes fragments, a fragmented scope is *pumped* instead: its records
  pass straight through while the stage sees them as fragment events, and
  each pattern the stage completes is appended to the open scope.

Both run their stage once per clip scope, as one in-process ``run()`` does
(``_StageOperator``); the store sink is an ensemble operator too.

Per-stage **fan-out** (``to_river(fan_out=k)``) compiles k replicas of a
per-ensemble stage behind a deterministic partition/merge pair::

    ... -> EnsemblePartitionOperator -> replica 0 -> ... -> replica k-1
        -> EnsembleMergeOperator -> ...

:class:`EnsemblePartitionOperator` tags each ensemble scope with the replica
that must process it (stable-hashed from the station that recorded the clip,
so one station's ensembles always flow through the same operator instance)
plus a monotonically increasing ordinal; every replica consumes exactly the
scopes addressed to it and passes the rest through untouched; and
:class:`EnsembleMergeOperator` strips the routing tags and re-emits the
scopes in ordinal — i.e. corpus — order.  Both route whole scopes on their
OpenScope context and never decode one.  Because the replica chain is a
plain linear operator sequence, it can be cut into
:class:`~repro.river.pipeline.PipelineSegment`\\ s (one replica per host)
and scheduled by :class:`~repro.river.placement.StationScheduler` like any
other Dynamic River pipeline.

Because the streaming engine is chunk-invariant, record boundaries do not
affect the output: running a clip through the compiled river pipeline yields
exactly the ensembles, patterns and labels of a batch ``run()`` over the
same clip — :func:`collect_result` decodes them back into
:class:`~repro.pipeline.results.PipelineResult` form for convenience.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..river.operator_base import Operator
from ..river.operators.io_ops import ClipSource
from ..river.channels import CHANNEL_CAPACITY, QueueChannel
from ..river.pipeline import Pipeline as RiverPipeline, PipelineSegment, split_into_segments
from ..river.placement import Deployment, Host, StationScheduler, station_hash
from ..river.records import (
    Record,
    RecordType,
    ScopeType,
    Subtype,
    bad_close_scope,
    close_scope,
    data_record,
    fragment_record,
    open_scope,
)
from ..synth.clips import AcousticClip
from .builder import begin_run, end_run, refuse_second_writer
from .results import (
    ENSEMBLE_EVENTS,
    ClassifiedEvent,
    EnsembleEvent,
    EnsembleFragmentEvent,
    FeaturesEvent,
    PipelineEvent,
    PipelineResult,
    SignalChunk,
    ensemble_from_fragments,
)
from .stages import ExtractStage, FeatureStage, Stage

__all__ = [
    "ExtractStageOperator",
    "EnsembleStageOperator",
    "EnsemblePartitionOperator",
    "EnsembleMergeOperator",
    "ScopeDecoder",
    "DEPLOY_BACKENDS",
    "compile_to_river",
    "collect_result",
    "deploy_clips_via_river",
    "event_to_records",
    "replica_groups",
    "run_clips_via_river",
]

#: Execution fabrics understood by :func:`deploy_clips_via_river`.
DEPLOY_BACKENDS = ("simulated", "process")

#: Context keys carrying fan-out routing metadata through a replica chain.
#: The partition operator writes them, replicas preserve them on transformed
#: scopes, and the merge operator strips them, so they never appear in the
#: pipeline's final output (fan-out streams stay bit-identical to linear).
ROUTING_REPLICA = "fanout_replica"
ROUTING_ORDINAL = "fanout_ordinal"

_ENSEMBLE = ScopeType.ENSEMBLE.value
_CLIP = ScopeType.CLIP.value
_AUDIO = Subtype.AUDIO.value
_FRAGMENT = Subtype.FRAGMENT.value
_FEATURES = Subtype.FEATURES.value
_LABEL = Subtype.LABEL.value
#: The LABEL record's empty payload (read-only, so every verdict shares it).
_NO_SAMPLES = np.zeros(0)
_NO_SAMPLES.flags.writeable = False


def event_to_records(event: PipelineEvent, depth: int, index: int) -> list[Record]:
    """Encode one ensemble-lineage event — the codec's only writer.

    A terminal event becomes a whole buffered scope numbered ``index``; a
    fragment event becomes the one record it stands for (``index`` numbers
    the scope on open / close, the slice on data); a partial per-pattern
    event becomes FEATURES records numbered from ``index``.
    """
    if isinstance(event, EnsembleFragmentEvent):
        if event.kind == "open":
            context = {
                "start": int(event.start),
                "sample_rate": int(event.sample_rate),
                "fragmented": True,
            }
            return [open_scope(depth, _ENSEMBLE, index, context)]
        if event.kind == "data":
            context = {"start": int(event.start), "offset": int(event.offset)}
            return [fragment_record(event.samples, depth + 1, index, context)]
        return [close_scope(depth, _ENSEMBLE, index)]
    ensemble = event.ensemble
    if ensemble is None:
        return [
            data_record(pattern, _FEATURES, depth + 1, _ENSEMBLE, index + offset)
            for offset, pattern in enumerate(event.patterns)
        ]
    context = {
        "start": int(ensemble.start),
        "end": int(ensemble.end),
        "sample_rate": int(ensemble.sample_rate),
    }
    if ensemble.label is not None:
        context["ens_label"] = ensemble.label
    if isinstance(event, (FeaturesEvent, ClassifiedEvent)):
        context["n_patterns"] = len(event.patterns)
    inner = depth + 1
    # One context dict for the whole scope: a record's context is replaced,
    # never mutated in place, so its records may share it.
    records = [
        open_scope(depth, _ENSEMBLE, index, context),
        data_record(ensemble.samples, _AUDIO, inner, _ENSEMBLE, index, context),
    ]
    records.extend(
        data_record(pattern, _FEATURES, inner, _ENSEMBLE, sequence, context)
        for sequence, pattern in enumerate(event.patterns)
    )
    if isinstance(event, ClassifiedEvent):
        verdict = {**context, "label": event.label, "votes": dict(event.votes)}
        records.append(data_record(_NO_SAMPLES, _LABEL, inner, _ENSEMBLE, index, verdict))
    records.append(close_scope(depth, _ENSEMBLE, index))
    return records


class ScopeDecoder:
    """Decode ensemble scopes back into events — the codec's only reader.

    :meth:`feed` takes the record stream one record at a time.  Records
    outside an ensemble scope decode to nothing; a scope yields its one
    terminal event (:class:`ClassifiedEvent` / :class:`FeaturesEvent` /
    :class:`EnsembleEvent`) at its CloseScope, whichever shape it travelled
    in; a bad-closed scope yields nothing.  With ``stream=True`` — for
    callers wrapping something that consumes fragments — a *fragmented*
    scope is instead decoded while still open, into the open / data / close
    fragment events and partial per-pattern events an in-process fragment
    pipeline would have produced (an empty partial before the close stands
    for the ``n_patterns`` stamp: a feature stage ran).
    """

    def __init__(self, stream: bool = False, default_rate: int | None = None) -> None:
        self.stream = stream
        #: Rate of scopes whose opener names none (e.g. the enclosing clip's).
        self.default_rate = default_rate
        #: Sample rate of the scope opened last.
        self.rate = 0
        self._opener: dict | None = None

    @property
    def streaming(self) -> bool:
        """Inside a fragmented scope that is being decoded while open."""
        return self._opener is not None and self._streaming

    def reset(self) -> None:
        self._opener = None

    def feed(self, record: Record) -> list[PipelineEvent]:
        kind = record.record_type
        if kind is RecordType.DATA:
            return self._data(record) if self._opener is not None else []
        if record.scope_type != _ENSEMBLE:
            return []
        if kind is RecordType.OPEN_SCOPE:
            self._opener = opener = record.context
            self._start = int(opener.get("start", 0))
            self.rate = int(opener.get("sample_rate", self.default_rate or 22050))
            self._streaming = self.stream and bool(opener.get("fragmented"))
            self._samples = 0
            self._parts: list[np.ndarray] = []
            self._patterns: list[np.ndarray] = []
            self._verdict: dict | None = None
            if self._streaming:
                return [EnsembleFragmentEvent("open", self._start, self.rate)]
        elif self._opener is not None and (
            kind is RecordType.CLOSE_SCOPE or kind is RecordType.BAD_CLOSE_SCOPE
        ):
            opener, self._opener = self._opener, None
            if kind is RecordType.CLOSE_SCOPE:
                return self._close(opener, record.context)
        return []

    def _data(self, record: Record) -> list[PipelineEvent]:
        subtype = record.subtype
        if subtype == _LABEL:
            self._verdict = record.context
            return []
        payload = np.asarray(record.payload, dtype=float).ravel()
        if subtype == _FEATURES:
            if self._streaming:
                return [FeaturesEvent(None, (payload,))]
            self._patterns.append(payload)
        elif subtype == _AUDIO or subtype == _FRAGMENT:
            if not self._streaming:
                self._parts.append(payload)
                return []
            # Slices tile the run contiguously, so arrival order is offset order.
            offset = int(record.context.get("offset", self._start + self._samples))
            self._samples += payload.size
            return [
                EnsembleFragmentEvent(
                    "data", self._start, self.rate, samples=payload, offset=offset
                )
            ]
        return []

    def _close(self, opener: dict, close: dict) -> list[PipelineEvent]:
        # A feature stage stamps how many patterns it built: on the opener of
        # a buffered scope, on the close of a pumped one.
        stamped = opener.get("n_patterns", close.get("n_patterns"))
        end = opener.get("end")
        if self._streaming:
            events: list[PipelineEvent] = []
            if stamped is not None:
                events.append(FeaturesEvent(None, ()))
            if end is None:
                end = self._start + max(self._samples, 1)
            events.append(
                EnsembleFragmentEvent("close", self._start, self.rate, end=int(end))
            )
            return events
        if not self._parts:
            return []
        ensemble = ensemble_from_fragments(
            self._parts, self._start, end, self.rate, label=opener.get("ens_label")
        )
        patterns = tuple(self._patterns)
        if self._verdict is not None:
            votes = dict(self._verdict.get("votes") or {})
            return [ClassifiedEvent(ensemble, patterns, self._verdict.get("label"), votes)]
        if patterns or stamped is not None:
            # Stamped with no patterns: a feature stage ran and the run was
            # too short — an empty FeaturesEvent keeps the short count alive.
            return [FeaturesEvent(ensemble, patterns)]
        return [EnsembleEvent(ensemble)]


class _StageOperator(Operator):
    """One run of the wrapped stage per clip scope: ``begin_run`` at its
    OpenScope (recording ``recording_name(clip_index)``), ``end_run`` at its
    CloseScope with the flushed events encoded inside the clip.  A
    BadCloseScope, or a clip still open at END_OF_STREAM, abandons the run
    unflushed.  Records outside clip scopes are one run, ended at the next
    clip OpenScope or END_OF_STREAM over an unknown length, so a store stage
    leaves its recording incomplete."""

    def __init__(self, stage: Stage, name: str) -> None:
        super().__init__(name)
        self.stage = stage
        self._depth = 0
        #: None between runs, else whether a clip scope began this one.
        self._clip: bool | None = None

    def _encode(self, events: list[PipelineEvent]) -> list[Record]:
        """The records of events the stage flushed, at the clip's depth."""
        raise NotImplementedError

    def _begin(self, rate: int, clip: Record | None = None) -> None:
        recording, station = None, ""
        if clip is not None:
            from ..store.schema import recording_name

            self._depth = clip.scope + 1
            index = clip.context.get("clip_index")
            recording = None if index is None else recording_name(index)
            station = clip.context.get("station_id") or ""
        begin_run(self.stage, rate, recording, station)
        self._clip = clip is not None

    def _finish(self, total_samples: int | None) -> list[Record]:
        """End the run over ``total_samples`` samples (None: unknown)."""
        self._clip = None
        return self._encode(end_run(self.stage, total_samples))

    def _abandon(self) -> list[Record]:
        self._clip = None
        self.stage.reset()
        return []

    def _boundary(self, record: Record) -> list[Record] | None:
        """What a clip scope record or END_OF_STREAM becomes (None: neither)."""
        if record.is_end:
            return self.flush() + [record]
        if record.scope_type != _CLIP or record.is_data:
            return None
        if record.is_open:
            outputs = self._finish(None) if self._clip is False else []
            self._begin(int(record.context.get("sample_rate", 0)), record)
            return outputs + [record]
        if self._clip:
            total = int(record.context.get("total_samples", 0))
            return (self._abandon() if record.is_bad_close else self._finish(total)) + [record]
        return [record]

    def flush(self) -> list[Record]:
        if self._clip is None:
            return []
        return self._abandon() if self._clip else self._finish(None)

    def reset(self) -> None:
        super().reset()
        self._abandon()


class ExtractStageOperator(_StageOperator):
    """Run the extract stage over clip-scoped audio records.

    The output stream contains ensembles only (like the classic ``cutter``
    operator): an ensemble scope per completed ensemble, with the clip's
    scope records forwarded around them — buffered scopes, or with
    ``ExtractStage(emit="fragments")`` fragmented ones streamed while the
    run is still open (see the module docstring for both shapes).  Every
    clip close carries ``total_samples``, the audio its run saw; a run
    abandoned mid-ensemble bad-closes the fragmented scope it left open.
    """

    def __init__(self, stage: ExtractStage, name: str = "extract-stage") -> None:
        super().__init__(stage, name)
        self._index = 0
        #: Next fragment of fragmented scope ``_index`` (None: none open).
        self._frag_sequence: int | None = None

    def _encode(self, events: list[PipelineEvent]) -> list[Record]:
        records: list[Record] = []
        for event in events:
            if not isinstance(event, (EnsembleFragmentEvent, EnsembleEvent)):
                continue
            kind = getattr(event, "kind", None)
            if kind == "data":
                index = self._frag_sequence
                self._frag_sequence += 1
            else:
                index = self._index
                if kind == "open":
                    self._frag_sequence = 0
                else:
                    # A whole ensemble or a fragment close ends scope `index`.
                    self._index += 1
                    self._frag_sequence = None
            records.extend(event_to_records(event, self._depth, index))
        return records

    def _begin(self, rate: int, clip: Record | None = None) -> None:
        super()._begin(rate, clip)
        self._index = 0

    def _abandon(self) -> list[Record]:
        records = super()._abandon()
        if self._frag_sequence is not None:  # abandoned mid-ensemble
            records.append(bad_close_scope(self._depth, _ENSEMBLE, self._index))
            self._frag_sequence = None
        return records

    def process(self, record: Record) -> list[Record]:
        if record.is_close and record.scope_type == _CLIP:
            record.context = {**record.context, "total_samples": self.stage.samples_seen}
        outputs = self._boundary(record)
        if outputs is not None:
            return outputs
        if not (record.is_data and record.subtype == _AUDIO):
            return [record]
        if self._clip is None:
            self._begin(self.stage.sample_rate)
        chunk = SignalChunk(
            samples=record.payload,
            sample_rate=self.stage.sample_rate,
            offset=self.stage.samples_seen,
        )
        return self._encode(self.stage.process(chunk))


def _ensemble_records(events: list[PipelineEvent], depth: int, index: int) -> list[Record]:
    """Scopes of the whole ensembles among ``events``; markers and partial
    per-pattern events mean something only while pumping."""
    return [
        record
        for event in events
        if isinstance(event, ENSEMBLE_EVENTS) and event.ensemble is not None
        for record in event_to_records(event, depth, index)
    ]


class EnsembleStageOperator(_StageOperator):
    """Run a per-ensemble stage (features, classify, plugins) over scopes.

    With ``replica`` set, the operator is one instance of a fan-out group:
    it only consumes ensemble scopes whose
    :data:`ROUTING_REPLICA` context tag matches its index and forwards every
    other record — including sibling replicas' scopes — untouched, so a
    chain of replicas behaves like k parallel operators in a linear stream.

    A scope is consumed whole — decoded at its close, the stage's output
    re-encoded in its place, every buffered scope of a batch in one stage
    call (:meth:`process_many`) — unless it is fragmented and the wrapped stage
    consumes fragments (:attr:`~repro.pipeline.stages.Stage.consumes_fragments`):
    then the operator *pumps*, forwarding every record of the open scope and
    appending each pattern the stage completes from a slice the moment it
    exists.  Stages that need the whole ensemble (classification voting)
    keep the buffered path.
    """

    def __init__(
        self,
        stage: Stage,
        name: str | None = None,
        replica: int | None = None,
        group: str | None = None,
    ) -> None:
        super().__init__(stage, name or f"{stage.name}-stage")
        self.replica = replica
        #: Fan-out group label (the fanned stage's name) — schedulers use it
        #: to keep sibling replicas on distinct hosts; None outside fan-out.
        self.fanout_group = group
        self._decoder = ScopeDecoder(stream=getattr(stage, "consumes_fragments", False))
        #: Opener of the scope being consumed (None between scopes), whether
        #: that scope is pumped, how many patterns were appended to it and
        #: whether the stage consumed its audio (forwarded no data fragment).
        self._opener: Record | None = None
        self._pumping = False
        self._appended = 0
        self._consumed = False
        #: What the batch holds back, in stream order: ready outputs, and
        #: ``(opener, events)`` for each buffered scope whose terminal events
        #: wait for the stage (see :meth:`process_many`).
        self._pending: list[list[Record] | tuple[Record, list[PipelineEvent]]] = []

    def _encode(self, events: list[PipelineEvent]) -> list[Record]:
        return _ensemble_records(events, self._depth, 0)

    def process(self, record: Record) -> list[Record]:
        return list(self.process_many((record,)))

    def process_many(self, records: Iterable[Record]) -> Iterator[Record]:
        """Consume a batch of records, handing the stage the terminal events
        of every buffered scope among them in one
        :meth:`~repro.pipeline.stages.Stage.process_each` call.

        A buffered scope's event is deferred at its close, and so is every
        output behind it; the deferred run goes to the stage at the next
        record that needs the stage in sync — a clip scope record, END, a
        record of a pumped scope — or at the end of the batch.  Each
        scope's outputs are then spliced back in its place, so the batch
        yields exactly what :meth:`process` per record would."""
        for record in records:
            yield from self._consume(record)
        yield from self._settle()

    def _consume(self, record: Record) -> list[Record]:
        """One record of a batch: the outputs now ready, in stream order."""
        if self._opener is None:
            if record.is_end or (record.scope_type == _CLIP and not record.is_data):
                return self._settle() + self._boundary(record)
            if not (record.is_open and record.scope_type == _ENSEMBLE) or (
                self.replica is not None
                and record.context.get(ROUTING_REPLICA) != self.replica
            ):
                # Outside every ensemble scope, or inside one addressed to a
                # sibling replica (or already transformed by one): its inner
                # records follow while no scope is ours, so they pass too.
                return self._hold([record])
            self._opener = record
            self._appended = 0
            self._consumed = False
        opener = self._opener
        events = self._decoder.feed(record)
        if record is opener:
            self._pumping = self._decoder.streaming
            if self._clip is None:
                self._begin(self._decoder.rate)
        elif record.is_close and record.scope_type == _ENSEMBLE:
            self._opener = None
        if self._pumping:
            return self._settle() + self._pump(record, events, opener.scope)
        if events:  # the scope's one terminal event, at its clean close
            self._pending.append((opener, events))
        return []

    def _hold(self, outputs: list[Record]) -> list[Record]:
        """``outputs`` now, or queued behind a deferred scope."""
        if self._pending:
            self._pending.append(outputs)
            return []
        return outputs

    def _settle(self) -> list[Record]:
        """Run the deferred scopes' events through the stage in one call and
        return every held output, each scope's re-encoded in its place."""
        if not self._pending:
            return []
        pending, self._pending = self._pending, []
        scopes = [entry for entry in pending if type(entry) is tuple]
        made = iter(self.stage.process_each([event for _, events in scopes for event in events]))
        outputs: list[Record] = []
        for entry in pending:
            if type(entry) is not tuple:
                outputs.extend(entry)
                continue
            opener, events = entry
            encoded = [
                record
                for _ in events
                for record in _ensemble_records(next(made), opener.scope, opener.sequence)
            ]
            outputs.extend(self._preserve_routing(opener, encoded))
        return outputs

    def _pump(self, record: Record, events: list[PipelineEvent], depth: int) -> list[Record]:
        """Forward one record of a pumped scope, show the stage the events
        it decodes to and append the patterns the stage made of a slice."""
        outputs = [record]
        for event in events:
            # Markers and terminal events the stage forwards are dropped: the
            # original records already went out.
            made = self.stage.process(event)
            if not isinstance(event, EnsembleFragmentEvent):
                continue
            if event.kind == "data":
                self._consumed = self._consumed or all(out is not event for out in made)
                for partial in made:
                    if isinstance(partial, FeaturesEvent) and partial.partial:
                        appended = event_to_records(partial, depth, self._appended)
                        self._appended += len(appended)
                        outputs.extend(appended)
            elif event.kind == "close" and self._consumed and not self._appended:
                # Too short for a single pattern: stamp the close (see the
                # module docstring) so the short count survives downstream.
                record.context = {**record.context, "n_patterns": 0}
        return outputs

    @staticmethod
    def _preserve_routing(opener: Record, encoded: list[Record]) -> list[Record]:
        """Carry fan-out routing tags from the consumed scope's opener onto
        the transformed scope, so the downstream merge can restore order."""
        routing = {
            key: opener.context[key]
            for key in (ROUTING_REPLICA, ROUTING_ORDINAL)
            if key in opener.context
        }
        if routing:
            for record in encoded:
                if record.is_open and record.scope_type == _ENSEMBLE:
                    record.context = {**record.context, **routing}
        return encoded

    def reset(self) -> None:
        super().reset()
        self._opener = None
        self._pending = []
        self._decoder.reset()


class EnsemblePartitionOperator(Operator):
    """Deterministically route ensemble scopes to fan-out replicas.

    Each ensemble OpenScope is tagged with the index of the replica that
    must process it and a monotonically increasing ordinal.  The default
    ``partition="station"`` policy keys on the station that recorded the
    enclosing clip (stable CRC-32 hash modulo the replica count), so
    ensembles from different stations flow through different operator
    instances while one station's ensembles always share a replica —
    exactly the placement the paper's multi-station observatory needs.
    Clips without a station id (and ``partition="roundrobin"``) fall back
    to cycling through the replicas per ensemble.
    """

    PARTITIONS = ("station", "roundrobin")

    def __init__(
        self, fan_out: int, partition: str = "station", name: str = "ensemble-partition"
    ) -> None:
        super().__init__(name)
        if fan_out < 1:
            raise ValueError(f"fan_out must be >= 1, got {fan_out}")
        if partition not in self.PARTITIONS:
            raise ValueError(
                f"partition must be one of {', '.join(self.PARTITIONS)}; "
                f"got {partition!r}"
            )
        self.fan_out = fan_out
        self.partition = partition
        self._station = None
        self._ordinal = 0
        self._round_robin = 0

    def _replica_for(self) -> int:
        if self.partition == "station" and self._station is not None:
            return station_hash(self._station) % self.fan_out
        replica = self._round_robin % self.fan_out
        self._round_robin += 1
        return replica

    def process(self, record: Record) -> list[Record]:
        if record.is_open and record.scope_type == _CLIP:
            self._station = record.context.get("station_id")
            return [record]
        if (
            record.is_open
            and record.scope_type == _ENSEMBLE
            and ROUTING_REPLICA not in record.context
        ):
            record.context = {
                **record.context,
                ROUTING_REPLICA: self._replica_for(),
                ROUTING_ORDINAL: self._ordinal,
            }
            self._ordinal += 1
        return [record]

    def reset(self) -> None:
        super().reset()
        self._station = None
        self._ordinal = 0
        self._round_robin = 0


class EnsembleMergeOperator(Operator):
    """Strip fan-out routing tags and restore ordinal (corpus) order.

    Tagged ensemble scopes are buffered whole and released strictly in the
    order the partition operator numbered them; a scope that arrives early
    (e.g. because a replica held a sibling's scope until its flush) waits in
    the reorder buffer.  Any scopes still pending at a clip boundary or at
    flush are released in ordinal order — ordinals lost to a repaired
    (bad-closed) scope upstream therefore delay output only until the next
    boundary, never forever.  Untagged records pass straight through, so the
    merge is a no-op outside fan-out groups.
    """

    def __init__(self, name: str = "ensemble-merge") -> None:
        super().__init__(name)
        self._buffer: list[Record] | None = None
        self._pending: dict[int, list[Record]] = {}
        self._next_ordinal = 0
        self._ordinal_of_current = 0

    @staticmethod
    def _strip(record: Record) -> Record:
        if ROUTING_REPLICA in record.context or ROUTING_ORDINAL in record.context:
            record.context = {
                key: value
                for key, value in record.context.items()
                if key not in (ROUTING_REPLICA, ROUTING_ORDINAL)
            }
        return record

    def _release_ready(self) -> list[Record]:
        """Emit buffered scopes that are next in ordinal order."""
        outputs: list[Record] = []
        while self._next_ordinal in self._pending:
            outputs.extend(self._pending.pop(self._next_ordinal))
            self._next_ordinal += 1
        return outputs

    def _release_all(self) -> list[Record]:
        """Emit everything pending in ordinal order (boundary/flush path)."""
        outputs: list[Record] = []
        for ordinal in sorted(self._pending):
            outputs.extend(self._pending.pop(ordinal))
            self._next_ordinal = max(self._next_ordinal, ordinal + 1)
        return outputs

    def process(self, record: Record) -> list[Record]:
        if self._buffer is not None:
            self._buffer.append(self._strip(record))
            if record.is_close and record.scope_type == _ENSEMBLE:
                scope, ordinal = self._buffer, self._ordinal_of_current
                self._buffer = None
                # extend, never assign: a stage may emit several scopes per
                # input ensemble, and they all carry the input's ordinal.
                self._pending.setdefault(ordinal, []).extend(scope)
                return self._release_ready()
            return []
        if (
            record.is_open
            and record.scope_type == _ENSEMBLE
            and ROUTING_ORDINAL in record.context
        ):
            self._ordinal_of_current = int(record.context[ROUTING_ORDINAL])
            self._buffer = [self._strip(record)]
            return []
        if record.is_close and record.scope_type == _CLIP:
            return self._release_all() + [record]
        if record.is_end:
            return self._release_all() + [record]
        return [record]

    def flush(self) -> list[Record]:
        leftovers: list[Record] = []
        if self._buffer is not None:
            # A tagged scope whose close never arrived — surface what we
            # have rather than dropping it silently.
            leftovers = self._buffer
            self._buffer = None
        return self._release_all() + leftovers

    def reset(self) -> None:
        super().reset()
        self._buffer = None
        self._pending = {}
        self._next_ordinal = 0
        self._ordinal_of_current = 0


def _prefer_streaming_features(stages: Sequence[Stage]) -> None:
    """Keep pumped feature stages memory-bounded inside river graphs.

    A pumped :class:`~repro.pipeline.stages.FeatureStage` never needs its
    terminal whole-ensemble event — the operator streams patterns out as
    FEATURES records and drops terminal events — so reassembling fragments
    inside the stage would only buffer audio nobody reads.  Flip freshly
    instantiated feature stages to ``emit="patterns"``; on buffered (non
    fragment) graphs the flag has no effect at all.
    """
    for stage in stages:
        if isinstance(stage, FeatureStage):
            stage.emit = "patterns"


def _normalize_fan_out(fan_out, stages: list[Stage]) -> dict[str, int]:
    """Resolve the fan_out argument into a per-stage replica count."""
    per_stage: dict[str, int] = {}
    if isinstance(fan_out, dict):
        known = {stage.name for stage in stages}
        for stage_name, count in fan_out.items():
            if stage_name not in known:
                raise ValueError(
                    f"fan_out names unknown stage {stage_name!r}; "
                    f"this pipeline has: {', '.join(sorted(known))}"
                )
            per_stage[stage_name] = int(count)
    else:
        per_stage = {
            stage.name: int(fan_out)
            for stage in stages
            if not isinstance(stage, ExtractStage) and stage.name != "store"
        }
    for stage_name, count in per_stage.items():
        if count < 1:
            raise ValueError(
                f"fan_out for stage {stage_name!r} must be >= 1, got {count}"
            )
    if "store" in per_stage:
        raise ValueError(
            "the store sink persists through a single writer and cannot be "
            "fanned out"
        )
    extract_names = {s.name for s in stages if isinstance(s, ExtractStage)}
    fanned_extract = [n for n, k in per_stage.items() if n in extract_names and k > 1]
    if fanned_extract:
        raise ValueError(
            "the extract stage is a stateful chunk consumer and cannot be "
            f"fanned out (requested fan_out for {fanned_extract[0]!r})"
        )
    return per_stage


def compile_to_river(
    builder,
    name: str = "acoustic-pipeline",
    fan_out: int | dict[str, int] = 1,
    partition: str = "station",
    store=None,
) -> RiverPipeline:
    """Instantiate a builder's stage graph as a Dynamic River pipeline.

    Fresh stage instances are created (trace accumulation disabled, since a
    river stream may be unbounded); the wrapped operators can be split into
    :class:`~repro.river.pipeline.PipelineSegment`\\ s and placed on hosts
    like any other operator chain.

    ``fan_out`` compiles each per-ensemble stage into that many parallel
    replicas behind an :class:`EnsemblePartitionOperator` /
    :class:`EnsembleMergeOperator` pair (an int applies to every
    per-ensemble stage; a mapping sets the count per stage name).  The
    extract stage consumes the raw chunk stream sequentially and cannot be
    fanned out.  ``partition`` selects the routing policy (``"station"`` or
    ``"roundrobin"``).  Fan-out never changes the output of stages that keep
    no state across ensembles: the merge restores corpus order, so the
    record stream is bit-identical to ``fan_out=1``.

    The graph compiles in declaration order.  A declared ``store`` stage
    becomes a :class:`~repro.store.StoreSinkOperator` wrapping that stage at
    its own position — it stores what that position sees, exactly as the
    stage does in process — and ``store`` (a directory path) appends one at
    the tail.  A sink forwards every record, so fan-out and segment cuts
    flow around it; it is never fanned out.  ``store`` naming a path a
    declared store stage writes raises
    :class:`~repro.pipeline.builder.PipelineBuildError`.
    """
    refuse_second_writer(builder, store)
    stages = builder.instantiate(keep_traces=False)
    _prefer_streaming_features(stages)
    per_stage = _normalize_fan_out(fan_out, stages)
    if store is not None:
        stages.append(builder.registry.create("store", path=store))
    operators: list[Operator] = []
    for spec_index, stage in enumerate(stages):
        if isinstance(stage, ExtractStage):
            operators.append(ExtractStageOperator(stage))
            continue
        if stage.name == "store":
            from ..store.river_sink import StoreSinkOperator

            operators.append(StoreSinkOperator(stage, name=f"store-sink-{spec_index}"))
            continue
        count = per_stage.get(stage.name, 1)
        if count == 1:
            operators.append(EnsembleStageOperator(stage))
            continue
        operators.append(
            EnsemblePartitionOperator(
                count, partition=partition, name=f"{stage.name}-partition"
            )
        )
        # One independent instantiation per extra replica — of exactly the
        # stage being fanned out — so replicas never share mutable state
        # (the classifier object itself is shared by construction, exactly
        # as thread workers share it).
        replicas = [stage] + [
            builder.instantiate(only={spec_index}, keep_traces=False)[0] for _ in range(count - 1)
        ]
        _prefer_streaming_features(replicas)
        for replica_index, replica_stage in enumerate(replicas):
            operators.append(
                EnsembleStageOperator(
                    replica_stage,
                    name=f"{stage.name}-stage-r{replica_index}",
                    replica=replica_index,
                    group=stage.name,
                )
            )
        operators.append(EnsembleMergeOperator(name=f"{stage.name}-merge"))
    return RiverPipeline(operators, name=name)


def collect_result(records: Sequence[Record], sample_rate: int | None = None) -> PipelineResult:
    """Decode a compiled pipeline's output records back into a result.

    Ensemble scopes become index-aligned (ensemble, patterns, label) rows —
    a truncated (bad-closed) scope never does; ``total_samples`` is taken
    from the clip CloseScope annotation the extract operator leaves behind
    (0 when absent, e.g. on repaired streams).
    """
    rate = int(sample_rate or 0)
    total_samples = 0
    decoder = ScopeDecoder(default_rate=rate or None)
    events: list[PipelineEvent] = []
    for record in records:
        if record.scope_type == _CLIP and not record.is_data:
            if record.is_open and not rate:
                rate = int(record.context.get("sample_rate") or 0)
                decoder.default_rate = rate or None
            elif record.is_close:
                total_samples += int(record.context.get("total_samples", 0))
            continue
        events.extend(decoder.feed(record))
    return PipelineResult.from_events(events, sample_rate=rate, total_samples=total_samples)


def replica_groups(segments: Sequence[PipelineSegment]) -> dict[str, str]:
    """Map fan-out replica segment names to their stage's group label.

    ``compile_to_river`` stamps every replica operator with the fanned
    stage's name (``EnsembleStageOperator.fanout_group``); a segment whose
    pipeline contains such an operator belongs to that group.  Reading the
    stamp — rather than parsing operator names — keeps this in lockstep
    with however the compiler labels its replicas.  Schedulers use the
    group label to spread the replicas of one stage across distinct hosts.
    """
    groups: dict[str, str] = {}
    for segment in segments:
        label = next(
            (
                op.fanout_group
                for op in segment.pipeline.operators
                if getattr(op, "fanout_group", None)
            ),
            None,
        )
        if label is not None:
            groups[segment.name] = label
    return groups


def _coerce_hosts(hosts) -> dict[str, float]:
    """Normalise the ``hosts`` argument into a name → speed mapping."""
    if hosts is None:
        hosts = 2
    if isinstance(hosts, int):
        if hosts < 1:
            raise ValueError(f"hosts must be >= 1, got {hosts}")
        return {f"host-{index}": 1000.0 for index in range(hosts)}
    if isinstance(hosts, dict):
        named = {str(name): float(speed) for name, speed in hosts.items()}
    else:
        named = {str(name): 1000.0 for name in hosts}
    if not named:
        raise ValueError(f"hosts must name at least one host, got {hosts!r}")
    return named


def deploy_clips_via_river(
    pipeline,
    clips: Sequence[AcousticClip],
    backend: str = "simulated",
    hosts=None,
    fan_out: int | dict[str, int] = 1,
    partition: str = "station",
    record_size: int = 4096,
    stall_timeout: float = 60.0,
    store=None,
) -> PipelineResult:
    """Deploy the compiled river graph on a fabric and run the clips through it.

    The same compiled graph — ``to_river(fan_out=...)`` split into per-host
    segments and placed by a :class:`~repro.river.placement.StationScheduler`
    (replicas spread across hosts, everything else partitioned sticky by
    segment name) — runs on the chosen ``backend``:

    * ``"simulated"`` — cooperative :class:`~repro.river.placement.Host`
      objects stepped round-robin inside this process (deterministic, no OS
      resources; the fabric used by experiments and most tests);
    * ``"process"`` — one real OS process per host, each a one-host
      deployment, wired with TCP :class:`~repro.river.transport.SocketChannel`
      links between hosts and plain queues within one.

    Both fabrics produce bit-identical results — to each other and to batch
    ``run()`` — because the record stream, the operator order and the
    scheduling turn are the same; only where the work executes changes.
    Both fail the same way: segments still not done once nothing can move
    them are a :class:`~repro.river.errors.PlacementError` naming them and
    their hosts — after one idle round here (the whole stream is fed up
    front), after ``stall_timeout`` seconds without movement on the process
    fabric.  ``hosts`` is an int (that many equal hosts), an iterable of
    names, or a ``name -> speed`` mapping (speeds weight the scheduler and
    the simulated turn; the process fabric treats every host as one worker).
    """
    if backend not in DEPLOY_BACKENDS:
        raise ValueError(
            f"backend must be one of {', '.join(DEPLOY_BACKENDS)}; got {backend!r}"
        )
    deployment = Deployment(
        hosts={
            name: Host(name, speed=speed)
            for name, speed in _coerce_hosts(hosts).items()
        }
    )
    river = pipeline.to_river(fan_out=fan_out, partition=partition, store=store)
    segments = split_into_segments(river)
    groups = replica_groups(segments)
    plan = StationScheduler.for_deployment(deployment).plan(segments, groups)
    source = ClipSource(list(clips), record_size=record_size)
    if backend == "process":
        from ..river.transport import ProcessDeployment

        fabric = ProcessDeployment(segments, plan, stall_timeout=stall_timeout)
        return collect_result(fabric.run(source.generate()))
    # Bound the inter-segment channels like the socket fabric does (the feed
    # channel stays unbounded — the whole source is enqueued up front — and
    # the tail stays unbounded because run() has no consumer for it).
    for upstream, downstream in zip(segments, segments[1:]):
        bounded = QueueChannel(capacity=CHANNEL_CAPACITY)
        upstream.rewire(output_channel=bounded)
        downstream.rewire(input_channel=bounded)
    for segment in segments:
        deployment.place(segment, plan[segment.name], group=groups.get(segment.name))
    for record in source.generate():
        segments[0].input_channel.put(record)
    deployment.run()
    if deployment.unfinished():
        # The stream was fed to its end and nothing moves any more:
        # returning the partial tail would be silent truncation.
        raise deployment.stall_error()
    return collect_result(list(segments[-1].drain_output()))


def run_clips_via_river(
    pipeline,
    clips: Sequence[AcousticClip],
    record_size: int = 4096,
    fan_out: int | dict[str, int] = 1,
    partition: str = "station",
    store=None,
) -> PipelineResult:
    """Convenience: stream clips through the compiled river pipeline.

    ``pipeline`` is an :class:`~repro.pipeline.builder.AcousticPipeline` or a
    :class:`~repro.pipeline.builder.BuiltPipeline`; each clip is chunked into
    ``record_size`` audio records exactly as a station uplink would deliver
    it.  ``fan_out`` / ``partition`` / ``store`` are forwarded to
    ``to_river``.  Returns the combined result over all clips.
    """
    river = pipeline.to_river(fan_out=fan_out, partition=partition, store=store)
    source = ClipSource(list(clips), record_size=record_size)
    outputs = river.run_source(source)
    rate = int(clips[0].sample_rate) if clips else None
    return collect_result(outputs, sample_rate=rate)
