"""A Dynamic River sink operator persisting record streams as they flow.

:class:`StoreSinkOperator` is a declared ``"store"`` stage compiled into a
river graph: ``compile_to_river`` wraps each declared
:class:`StoreWriterStage` in one, at the stage's own position, and
``to_river(store=...)`` / ``deploy(..., store=...)`` append one at the tail.
It reads the clip scope for what only the stream knows (clip index, station,
``total_samples``), decodes ensemble scopes with the river codec —
:class:`~repro.pipeline.river_adapter.ScopeDecoder`, streaming, so a
fragmented scope is appended slice by slice while still open — and hands the
events to the stage, which does all the persisting and applies its one naming
and station rule (:meth:`StoreWriterStage.begin`).  Records are forwarded
unchanged, so fan-out and segment cuts flow around the sink wherever it sits.
A bad-closed (truncated) scope is abandoned, never sealed: what it already
flushed reads as incomplete.
"""

from __future__ import annotations

from ..pipeline.river_adapter import ScopeDecoder
from ..river.operator_base import Operator
from ..river.records import Record, ScopeType
from .backends import StoreError
from .schema import recording_name
from .stage import StoreWriterStage

__all__ = ["StoreSinkOperator"]


class StoreSinkOperator(Operator):
    """Persist ensemble scopes to a store while forwarding every record.

    ``store`` is a declared :class:`StoreWriterStage` or a store directory
    path (a default stage on that path).
    """

    def __init__(self, store, name: str = "store-sink") -> None:
        super().__init__(name)
        stage = store if isinstance(store, StoreWriterStage) else StoreWriterStage(store)
        if stage.path is None:
            raise StoreError(
                "a store stage compiled into a river graph needs path= — a "
                "live StoreWriter cannot cross segment or process boundaries"
            )
        self.stage = stage
        self._clip_count = 0
        self._decoder = ScopeDecoder(stream=True)

    def process(self, record: Record) -> list[Record]:
        if record.is_end:
            self.flush()
        elif record.scope_type != ScopeType.CLIP.value:
            for event in self._decoder.feed(record):
                self.stage.process(event)
            if record.is_bad_close and record.scope_type == ScopeType.ENSEMBLE.value:
                self.stage.abandon_ensemble()
        elif record.is_open:
            index = record.context.get("clip_index", self._clip_count)
            self._clip_count += 1
            self.stage.reset()
            self.stage.start(int(record.context.get("sample_rate", 0)))
            self.stage.begin(recording_name(index), record.context.get("station_id") or "")
        elif record.is_close:
            # Completes the recording; outside a clip scope the stage has no
            # recording and ignores every event.
            self.stage.observe_stream_end(int(record.context.get("total_samples", 0)))
            self.stage.flush()
            self.stage.reset()
        return [record]

    def flush(self) -> list[Record]:
        # A clip still open here was truncated: its recording stays incomplete.
        if self._clip_count:
            self.stage.writer.flush()
            self.stage.reset()
        self._decoder.reset()
        return []

    def reset(self) -> None:
        super().reset()
        self._decoder.reset()
        self.stage.reset()
