"""Stream plumbing operators: a subtype filter.

Moving records between segments (the paper's ``streamout`` / ``streamin``)
is not an operator: :class:`~repro.river.pipeline.PipelineSegment` owns a
segment's channel I/O and repairs scope structure with BadCloseScope
records when its upstream disappears mid-scope.
"""

from __future__ import annotations

from ..operator_base import Operator
from ..records import Record

__all__ = ["SubtypeFilter"]


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
