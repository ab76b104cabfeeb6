"""The declared ``"store"`` stage as a Dynamic River operator.

``compile_to_river`` wraps each declared :class:`StoreWriterStage` in a
:class:`StoreSinkOperator` at the stage's own position, and
``to_river(store=...)`` / ``deploy(..., store=...)`` append one at the tail.
The sink is an :class:`~repro.pipeline.river_adapter.EnsembleStageOperator`
over that stage, so a clip scope is one run of it: a clean close seals the
clip's recording complete; a BadCloseScope, or a bare stream's unknown
length, leaves it incomplete.  Like every ensemble operator it re-emits what
the stage forwards — fragmented scopes record for record, buffered ones
re-encoded at their close, bad-closed buffered ones dropped — so fan-out and
segment cuts flow around the sink wherever it sits."""

from __future__ import annotations

from ..pipeline.river_adapter import EnsembleStageOperator
from .backends import StoreError
from .stage import StoreWriterStage

__all__ = ["StoreSinkOperator"]


class StoreSinkOperator(EnsembleStageOperator):
    """Persist ensemble scopes to a store while re-emitting them.

    ``store`` is a declared :class:`StoreWriterStage` or a store directory
    path (a default stage on that path).
    """

    def __init__(self, store, name: str = "store-sink") -> None:
        stage = store if isinstance(store, StoreWriterStage) else StoreWriterStage(store)
        if stage.path is None:
            raise StoreError(
                "a store stage compiled into a river graph needs path= — a "
                "live StoreWriter cannot cross segment or process boundaries"
            )
        super().__init__(stage, name=name)
