"""Stream plumbing operators: tee, filters and throttle.

Moving records between segments (the paper's ``streamout`` / ``streamin``)
is not an operator: :class:`~repro.river.pipeline.PipelineSegment` owns a
segment's channel I/O and repairs scope structure with BadCloseScope
records when its upstream disappears mid-scope.
"""

from __future__ import annotations

from ..channels import Channel
from ..operator_base import Operator
from ..records import Record

__all__ = ["Tee", "SubtypeFilter", "ScopeTypeFilter", "Throttle"]


class Tee(Operator):
    """Copy every record to a side channel while forwarding it downstream."""

    def __init__(self, channel: Channel, name: str = "tee") -> None:
        super().__init__(name)
        self.channel = channel

    def process(self, record: Record) -> list[Record]:
        self.channel.put(record.copy())
        return [record]


class SubtypeFilter(Operator):
    """Forward only data records whose subtype is in the allowed set.

    Scope and end-of-stream records always pass through so stream structure
    is preserved.
    """

    def __init__(self, subtypes: set[str] | list[str], name: str = "subtypefilter") -> None:
        super().__init__(name)
        self.subtypes = set(subtypes)

    def process(self, record: Record) -> list[Record]:
        if record.is_data and record.subtype not in self.subtypes:
            return []
        return [record]


class ScopeTypeFilter(Operator):
    """Forward only the scopes of a given type (and everything inside them)."""

    def __init__(self, scope_type: str, name: str = "scopetypefilter") -> None:
        super().__init__(name)
        self.scope_type = scope_type
        self._inside = 0

    def process(self, record: Record) -> list[Record]:
        if record.is_open and record.scope_type == self.scope_type:
            self._inside += 1
            return [record]
        if record.is_close and record.scope_type == self.scope_type and self._inside:
            self._inside -= 1
            return [record]
        if self._inside or record.is_end:
            return [record]
        return []

    def reset(self) -> None:
        super().reset()
        self._inside = 0


class Throttle(Operator):
    """Emit at most ``limit`` data records, then drop the rest.

    Useful for bounding test and benchmark runs on long streams; scope and
    end-of-stream records still pass so the stream stays well-formed.
    """

    def __init__(self, limit: int, name: str = "throttle") -> None:
        super().__init__(name)
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        self.limit = limit
        self._seen = 0

    def process(self, record: Record) -> list[Record]:
        if not record.is_data:
            return [record]
        if self._seen >= self.limit:
            return []
        self._seen += 1
        return [record]

    def reset(self) -> None:
        super().reset()
        self._seen = 0
