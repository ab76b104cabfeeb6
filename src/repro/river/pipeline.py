"""Pipelines and pipeline segments.

A Dynamic River *pipeline* is a sequential set of operations composed between
a data source and its final sink.  A *pipeline segment* is a sequence of
operators producing a partial result; a :class:`PipelineSegment` receives
and emits records over channels (the paper's ``streamin`` / ``streamout``),
which lets a pipeline span networked hosts and be recomposed dynamically by
moving segments among hosts (see :mod:`repro.river.placement`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .channels import Channel, QueueChannel
from .errors import ChannelClosed, ChannelFull
from .operator_base import Operator, SourceOperator, ensure_end_of_stream
from .records import Record, RecordType
from .scopes import ScopeStack

__all__ = ["Pipeline", "PipelineSegment", "SegmentState", "split_into_segments"]


class Pipeline:
    """An in-process chain of operators."""

    def __init__(self, operators: list[Operator], name: str = "pipeline") -> None:
        if not operators:
            raise ValueError("a pipeline needs at least one operator")
        self.name = name
        self.operators = list(operators)

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)

    def operator(self, name: str) -> Operator:
        """Look up an operator by name."""
        for op in self.operators:
            if op.name == name:
                return op
        raise KeyError(f"no operator named {name!r} in pipeline {self.name!r}")

    # -- execution -----------------------------------------------------------

    def process_records(self, records: Iterable[Record]) -> Iterator[Record]:
        """Push a batch of records through every operator in order.

        The one push path: each operator consumes the previous one's output
        stream (:meth:`~repro.river.operator_base.Operator.process_many`),
        and ``records`` is drawn lazily, so a chain of per-record operators
        yields a record's outputs before it draws the next record.
        """
        stream = iter(records)
        for op in self.operators:
            stream = op._invoke_many(stream)
        return stream

    def process_record(self, record: Record) -> list[Record]:
        """Push one record through every operator in order."""
        return list(self.process_records((record,)))

    def flush(self) -> list[Record]:
        """Flush every operator in order, cascading flushed records downstream.

        Single downstream pass: records flushed by (or cascaded into)
        operator *i* are handed to operator *i + 1* exactly once, as one
        batch, so the cost is linear in pipeline depth × record volume and no
        stateful operator sees a record twice.
        """
        batch: list[Record] = []
        for op in self.operators:
            batch = [*op._invoke_many(batch), *op._invoke_flush()]
        return batch

    def run(self, records: Iterable[Record]) -> list[Record]:
        """Run a finite record stream through the pipeline and collect the output.

        An END_OF_STREAM record is appended if the input lacks one; when it is
        seen, operators are flushed in order and the marker is forwarded last.
        """
        outputs: list[Record] = []
        for record in ensure_end_of_stream(records):
            if record.record_type is RecordType.END_OF_STREAM:
                outputs.extend(self.flush())
                outputs.append(record)
                break
            outputs.extend(self.process_record(record))
        return outputs

    def run_source(self, source: SourceOperator) -> list[Record]:
        """Run a source operator's records through this pipeline."""
        return self.run(source.generate())

    def reset(self) -> None:
        for op in self.operators:
            op.reset()


@dataclass
class SegmentState:
    """Lifecycle state of a pipeline segment."""

    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"
    STOPPED = "stopped"


@dataclass
class PipelineSegment:
    """A pipeline fragment connected to input and output channels.

    The segment pulls records from ``input_channel``, pushes results to
    ``output_channel`` and keeps a :class:`ScopeStack` so that, if it is
    stopped or its upstream dies with scopes open, it can emit BadCloseScope
    records and leave the downstream stream well-formed.  This is the only
    place channel I/O and scope repair happen — the paper's ``streamin`` /
    ``streamout`` operators are this class, not separate operators.  An
    empty ``get()`` means "nothing yet" and is never treated as a failure;
    only :class:`~repro.river.errors.ChannelClosed` triggers a repair.
    """

    name: str
    pipeline: Pipeline
    input_channel: Channel | None = None
    output_channel: Channel = field(default_factory=QueueChannel)
    state: str = SegmentState.RUNNING
    records_processed: int = 0
    #: Scope state of the segment's *output* stream.
    scope_stack: ScopeStack = field(default_factory=lambda: ScopeStack(strict=False))
    #: Simulated seconds of processing consumed (filled in by the host model).
    processing_seconds: float = 0.0
    #: Records produced but not yet accepted by a (bounded) output channel.
    #: Backpressure: while the outbox is non-empty the segment consumes no
    #: further input, so a slow consumer throttles its producer instead of
    #: crashing it with :class:`ChannelFull`.
    _outbox: deque = field(default_factory=deque, repr=False)

    # -- helpers -------------------------------------------------------------

    def _emit(self, records: Iterable[Record]) -> None:
        for record in records:
            self.scope_stack.observe(record)
            self._outbox.append(record)
        self._drain_outbox()

    def _drain_outbox(self) -> bool:
        """Move outbox records onto the output channel; False while blocked."""
        while self._outbox:
            try:
                self.output_channel.put(self._outbox[0])
            except ChannelFull:
                return False
            self._outbox.popleft()
        return True

    @property
    def pending_output(self) -> int:
        """Records held back by a full output channel."""
        return len(self._outbox)

    def _finish(self) -> None:
        self._emit(self.pipeline.flush())
        # Close anything left open before forwarding the end-of-stream marker.
        self._emit(self.scope_stack.closing_records("segment finished with open scopes"))
        from .records import end_of_stream

        self._emit_raw(end_of_stream())
        self.state = SegmentState.FINISHED

    def _emit_raw(self, record: Record) -> None:
        self._outbox.append(record)
        self._drain_outbox()

    def rewire(
        self,
        input_channel: Channel | None = None,
        output_channel: Channel | None = None,
    ) -> "PipelineSegment":
        """Swap the segment's channels before it has processed anything.

        Deployment fabrics use this to attach their own transport — the
        process transport rebuilds a pickled segment inside a worker and
        rewires it onto socket / queue channels.  Rewiring a segment that
        already consumed records would silently strand whatever its old
        channels still hold, so that is refused.
        """
        if self.records_processed or self._outbox or self.state != SegmentState.RUNNING:
            raise ValueError(
                f"segment {self.name!r} has already processed records; "
                "rewire is only valid on a fresh segment"
            )
        if input_channel is not None:
            self.input_channel = input_channel
        if output_channel is not None:
            self.output_channel = output_channel
        return self

    # -- execution -----------------------------------------------------------

    def step(self, max_records: int = 1) -> int:
        """Process up to ``max_records`` input records; returns how many were handled.

        The step pushes its input through the pipeline as one batch
        (:meth:`Pipeline.process_records`), drawn from the input channel
        only as the operators ask for it and never more than
        ``max_records`` records — the bound on what a batching operator
        holds.  Outputs are emitted as the pipeline yields them, so a
        segment of per-record operators still emits each record's outputs
        before it pulls the next.  Backpressure: a segment whose bounded
        output channel filled up first retries its held-back records; until
        they fit, no new input is consumed, and once outputs back up mid-step
        the batch stops drawing input (a finished segment keeps draining its
        tail this way).
        """
        if not self._drain_outbox():
            return 0
        if self.state != SegmentState.RUNNING:
            return 0
        if self.input_channel is None:
            raise ValueError(f"segment {self.name!r} has no input channel to pull from")
        pulled = _Pull(self, max_records)
        for output in self.pipeline.process_records(pulled):
            self._emit((output,))
        if pulled.closed:
            # Upstream died: repair scopes and end our own stream cleanly.
            self.abort("upstream channel closed")
        elif pulled.ended:
            self._finish()
        return pulled.handled

    def abort(self, reason: str) -> None:
        """Terminate the segment, closing open scopes with BadCloseScope records."""
        if self.state not in (SegmentState.RUNNING, SegmentState.STOPPED):
            return
        self._emit(self.scope_stack.closing_records(reason))
        from .records import end_of_stream

        self._emit_raw(end_of_stream())
        self.state = SegmentState.FAILED

    def stop(self) -> None:
        """Pause the segment (used while it is being relocated to another host)."""
        if self.state == SegmentState.RUNNING:
            self.state = SegmentState.STOPPED

    def resume(self) -> None:
        """Resume a stopped segment."""
        if self.state == SegmentState.STOPPED:
            self.state = SegmentState.RUNNING

    @property
    def finished(self) -> bool:
        return self.state in (SegmentState.FINISHED, SegmentState.FAILED)

    @property
    def done(self) -> bool:
        """Finished *and* every record delivered — the fabrics' one notion of done.

        A segment that read END_OF_STREAM while its bounded output channel
        was full is ``finished`` with the marker still in its outbox; until
        the outbox drains, downstream has not seen the stream's end.
        """
        return self.finished and not self._outbox

    def drain_output(self) -> Iterator[Record]:
        """Yield everything currently waiting on the output channel."""
        while True:
            try:
                record = self.output_channel.get()
            except ChannelClosed:
                return
            if record is None:
                return
            yield record


class _Pull:
    """A segment step's input batch: records drawn off the input channel one
    at a time as the pipeline asks for them — at most ``limit``, none once
    the segment's outbox backs up, and none past END_OF_STREAM or a closed
    upstream, which end the batch and are left to the segment."""

    def __init__(self, segment: PipelineSegment, limit: int) -> None:
        self.segment = segment
        self.limit = limit
        self.handled = 0
        self.ended = False
        self.closed = False

    def __iter__(self) -> Iterator[Record]:
        segment = self.segment
        channel = segment.input_channel
        while self.handled < self.limit and not segment._outbox:
            try:
                record = channel.get()
            except ChannelClosed:
                self.closed = True
                return
            if record is None:
                return
            self.handled += 1
            segment.records_processed += 1
            if record.record_type is RecordType.END_OF_STREAM:
                self.ended = True
                return
            yield record


def split_into_segments(
    pipeline: Pipeline,
    boundaries: Iterable[int] | None = None,
    channel_factory=QueueChannel,
) -> list[PipelineSegment]:
    """Cut a pipeline into channel-wired :class:`PipelineSegment`\\ s.

    ``boundaries`` lists the operator indices at which to cut (a boundary
    ``i`` starts a new segment at operator ``i``); by default every operator
    becomes its own segment — the finest placement granularity, which is
    what per-stage fan-out deployments use so each replica operator can live
    on its own host.  Consecutive segments are wired output→input with
    channels from ``channel_factory``; feed records into the first segment's
    ``input_channel`` and drain the last segment's ``output_channel``.

    Segments are named after their first operator, so placement schedulers
    can key on operator names (e.g. ``features-stage-r0``).
    """
    operators = list(pipeline.operators)
    if boundaries is None:
        cuts = list(range(len(operators)))
    else:
        cuts = sorted(set(boundaries) | {0})
        if any(cut < 0 or cut >= len(operators) for cut in cuts):
            raise ValueError(
                f"boundaries must be operator indices in [0, {len(operators)}), "
                f"got {sorted(set(boundaries))}"
            )
    spans = list(zip(cuts, cuts[1:] + [len(operators)]))
    segments: list[PipelineSegment] = []
    upstream: Channel = channel_factory()
    for start, end in spans:
        group = operators[start:end]
        name = group[0].name
        segment = PipelineSegment(
            name=name,
            pipeline=Pipeline(group, name=f"{pipeline.name}/{name}"),
            input_channel=upstream,
            output_channel=channel_factory(),
        )
        segments.append(segment)
        upstream = segment.output_channel
    return segments
