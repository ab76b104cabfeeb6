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

    def process_record(self, record: Record) -> list[Record]:
        """Push one record through every operator in order."""
        batch = [record]
        for op in self.operators:
            next_batch: list[Record] = []
            for item in batch:
                next_batch.extend(op._invoke(item))
            batch = next_batch
            if not batch:
                break
        return batch

    def flush(self) -> list[Record]:
        """Flush every operator in order, cascading flushed records downstream.

        Single downstream pass: records flushed by (or cascaded into)
        operator *i* are handed to operator *i + 1* exactly once, so the
        cost is linear in pipeline depth × record volume and no stateful
        operator sees a record twice.
        """
        batch: list[Record] = []
        for op in self.operators:
            cascaded: list[Record] = []
            for record in batch:
                cascaded.extend(op._invoke(record))
            cascaded.extend(op._invoke_flush())
            batch = cascaded
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

    def _emit(self, records: list[Record]) -> None:
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

        A segment whose bounded output channel filled up first retries its
        held-back records; until they fit, no new input is consumed (and a
        finished segment keeps draining its tail this way).
        """
        if not self._drain_outbox():
            return 0
        if self.state != SegmentState.RUNNING:
            return 0
        if self.input_channel is None:
            raise ValueError(f"segment {self.name!r} has no input channel to pull from")
        handled = 0
        for _ in range(max_records):
            if self._outbox:
                # Output backlogged mid-step: stop pulling input.
                break
            try:
                record = self.input_channel.get()
            except ChannelClosed:
                # Upstream died: repair scopes and end our own stream cleanly.
                self.abort("upstream channel closed")
                break
            if record is None:
                break
            handled += 1
            self.records_processed += 1
            if record.record_type is RecordType.END_OF_STREAM:
                self._finish()
                break
            self._emit(self.pipeline.process_record(record))
        return handled

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
