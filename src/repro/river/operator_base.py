"""Operator base classes.

A Dynamic River *operator* consumes records and emits zero or more records.
Operators are synchronous and push-based: the enclosing pipeline or segment
hands every operator its input as one batch through
:meth:`Operator.process_many` and calls :meth:`Operator.flush` when the
stream ends, forwarding whatever the operator yields downstream.  A batch is
an iterable consumed lazily — a segment step pulls a record off its input
channel only when the first operator asks for the next one, and never more
than the step's allowance — and the default :meth:`~Operator.process_many`
calls :meth:`Operator.process` on each record and yields its outputs before
asking for the next.  A chain of such operators therefore still moves one
record at a time; an operator that overrides ``process_many`` to share work
across records (the ensemble stage operators) may hold outputs until the
batch ends, and must yield exactly what ``process`` per record would have,
in the same order.  Keeping operators free of threads makes the engine
deterministic and easy to test; concurrency lives at the segment / host
level (see :mod:`repro.river.placement`).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .records import Record, RecordType, end_of_stream

__all__ = ["Operator", "SourceOperator", "SinkOperator", "FunctionOperator", "PassThrough"]


class Operator:
    """Base class: a named record transformer with per-operator counters."""

    def __init__(self, name: str | None = None) -> None:
        self.name = name or type(self).__name__.lower()
        self.records_in = 0
        self.records_out = 0

    # -- interface -----------------------------------------------------------

    def process(self, record: Record) -> list[Record]:
        """Consume one record and return the records to emit downstream."""
        raise NotImplementedError

    def process_many(self, records: Iterable[Record]) -> Iterator[Record]:
        """Consume a batch of records, yielding what to emit downstream.

        The default pushes each record through :meth:`process` and yields
        its outputs before drawing the next record from ``records``.
        """
        for record in records:
            yield from self.process(record)

    def flush(self) -> list[Record]:
        """Emit any buffered records at end of stream (default: nothing)."""
        return []

    def reset(self) -> None:
        """Discard internal state so the operator can be reused."""
        self.records_in = 0
        self.records_out = 0

    # -- bookkeeping wrapper used by pipelines --------------------------------

    def _invoke_many(self, records: Iterable[Record]) -> Iterator[Record]:
        for output in self.process_many(self._counted(records)):
            self.records_out += 1
            yield output

    def _counted(self, records: Iterable[Record]) -> Iterator[Record]:
        for record in records:
            self.records_in += 1
            yield record

    def _invoke_flush(self) -> list[Record]:
        outputs = self.flush()
        self.records_out += len(outputs)
        return outputs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r} in={self.records_in} out={self.records_out}>"


class SourceOperator(Operator):
    """An operator that generates records instead of consuming them."""

    def generate(self) -> Iterator[Record]:
        """Yield the source's records, ending with an END_OF_STREAM marker."""
        raise NotImplementedError

    def process(self, record: Record) -> list[Record]:
        raise TypeError(f"source operator {self.name!r} does not accept input records")


class SinkOperator(Operator):
    """An operator that terminates the pipeline and collects results."""

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self.collected: list[Record] = []

    def process(self, record: Record) -> list[Record]:
        self.collected.append(record)
        return []

    def reset(self) -> None:
        super().reset()
        self.collected = []


class FunctionOperator(Operator):
    """Wrap a plain function ``record -> list[Record]`` as an operator."""

    def __init__(self, fn, name: str | None = None) -> None:
        super().__init__(name or getattr(fn, "__name__", "function"))
        self._fn = fn

    def process(self, record: Record) -> list[Record]:
        return self._fn(record)


class PassThrough(Operator):
    """Forwards every record unchanged (useful as a placeholder in tests)."""

    def process(self, record: Record) -> list[Record]:
        return [record]


def ensure_end_of_stream(records: Iterable[Record]) -> Iterator[Record]:
    """Yield ``records`` and append an END_OF_STREAM marker if missing."""
    last: Record | None = None
    for record in records:
        last = record
        yield record
    if last is None or last.record_type is not RecordType.END_OF_STREAM:
        yield end_of_stream()
