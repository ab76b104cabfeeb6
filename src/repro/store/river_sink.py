"""A Dynamic River sink operator persisting record streams as they flow.

:class:`StoreSinkOperator` sits at the tail of a compiled river graph
(``to_river(store=...)`` / ``deploy(store=...)`` appends it).  It reads the
clip scope for what only the stream knows (recording name, station,
``total_samples``), decodes ensemble scopes with the river codec —
:class:`~repro.pipeline.river_adapter.ScopeDecoder`, streaming, so a
fragmented scope is appended slice by slice while still open — and hands the
events to a :class:`StoreWriterStage`, which does all the persisting.
Records are forwarded unchanged.  A bad-closed (truncated) scope is
abandoned, never sealed: what it already flushed reads as incomplete.
"""

from __future__ import annotations

from ..pipeline.river_adapter import ScopeDecoder
from ..river.operator_base import Operator
from ..river.records import Record, ScopeType
from .backends import StoreError
from .schema import recording_name
from .stage import STAGE_FLUSH_VALUES, StoreWriterStage

__all__ = ["StoreSinkOperator"]


class StoreSinkOperator(Operator):
    """Persist ensemble scopes to a store while forwarding every record."""

    def __init__(
        self,
        path,
        backend: str = "auto",
        flush_values: int = STAGE_FLUSH_VALUES,
        name: str = "store-sink",
    ) -> None:
        super().__init__(name)
        if path is None:
            raise StoreError(
                "the river store sink needs a store path (a live writer "
                "cannot cross process boundaries)"
            )
        self.path = str(path)
        self.backend = backend
        self.flush_values = flush_values
        self._clip_count = 0
        self._decoder = ScopeDecoder(stream=True)
        self._stage: StoreWriterStage | None = None

    def __getstate__(self) -> dict:
        # Picklable for the process fabric: the live writer never crosses a
        # process boundary, each process re-opens the store lazily by path.
        return {**self.__dict__, "_stage": None}

    @property
    def stage(self) -> StoreWriterStage:
        if self._stage is None:
            self._stage = StoreWriterStage(
                self.path, backend=self.backend, flush_values=self.flush_values
            )
        return self._stage

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
            stage = self.stage
            stage.reset()
            stage.recording = recording_name(index)
            stage.station = record.context.get("station_id") or ""
            stage.start(int(record.context.get("sample_rate", 0)))
        elif record.is_close:
            # Completes the recording; outside a clip scope the stage has no
            # recording and ignores every event.
            self.stage.observe_stream_end(int(record.context.get("total_samples", 0)))
            self.stage.flush()
            self.stage.reset()
        return [record]

    def flush(self) -> list[Record]:
        # A clip still open here was truncated: its recording stays incomplete.
        if self._stage is not None:
            self._stage.writer.flush()
            self._stage.reset()
        self._decoder.reset()
        return []

    def reset(self) -> None:
        super().reset()
        self._decoder.reset()
        if self._stage is not None:
            self._stage.reset()
