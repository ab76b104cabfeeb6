"""Dynamic River records.

A Dynamic River pipeline moves *records* between operators.  Each record has
a header with the fields the paper describes (Section 2):

* ``record_type`` — data or one of the scope-control types;
* ``subtype`` — an application-specific tag for data records (e.g. audio
  samples, anomaly scores, trigger values, spectra, feature vectors);
* ``scope`` — the nesting depth of the scope this record belongs to
  (0 = outermost);
* ``scope_type`` — an application-specific scope tag (e.g. ``scope_clip`` or
  ``scope_ensemble``);
* ``sequence`` — a monotonically increasing per-producer sequence number,
  used to detect gaps after recomposition;
* ``context`` — optional key/value metadata (an ``OpenScope`` record can
  carry, for example, the sampling rate of the clip it opens).

Data records carry a numpy payload; scope records normally carry none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np

__all__ = [
    "RecordType",
    "ScopeType",
    "Subtype",
    "Record",
    "data_record",
    "fragment_record",
    "open_scope",
    "close_scope",
    "bad_close_scope",
    "end_of_stream",
]


class RecordType(str, Enum):
    """The kind of a record."""

    DATA = "data"
    OPEN_SCOPE = "open_scope"
    CLOSE_SCOPE = "close_scope"
    #: Emitted to close a scope that did not reach its intended point of
    #: closure (e.g. because an upstream segment terminated unexpectedly).
    BAD_CLOSE_SCOPE = "bad_close_scope"
    #: Marks the end of the stream; sources emit it when they finish so
    #: downstream operators can flush and shut down gracefully.
    END_OF_STREAM = "end_of_stream"


class ScopeType(str, Enum):
    """Well-known scope types used by the acoustic pipeline."""

    CLIP = "scope_clip"
    ENSEMBLE = "scope_ensemble"
    SESSION = "scope_session"
    GENERIC = "scope_generic"


class Subtype(str, Enum):
    """Well-known data-record subtypes used by the acoustic pipeline."""

    AUDIO = "audio"
    #: One streamed slice of a still-open ensemble's audio.  A fragmented
    #: ensemble scope carries several of these instead of one AUDIO record;
    #: decoders concatenate them in sequence order.  They travel over the
    #: same wire framing as every other record, so process deployments
    #: stream fragments across sockets unchanged.
    FRAGMENT = "fragment"
    ANOMALY_SCORE = "anomaly_score"
    TRIGGER = "trigger"
    COMPLEX_SPECTRUM = "complex_spectrum"
    SPECTRUM = "spectrum"
    FEATURES = "features"
    #: Classification verdict for an ensemble scope (label in the context).
    LABEL = "label"
    GENERIC = "generic"


@dataclass
class Record:
    """One pipeline record: header fields plus an optional numpy payload."""

    record_type: RecordType
    subtype: str = Subtype.GENERIC.value
    scope: int = 0
    scope_type: str = ScopeType.GENERIC.value
    sequence: int = 0
    payload: np.ndarray | None = None
    context: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scope < 0:
            raise ValueError(f"scope depth must be >= 0, got {self.scope}")
        if self.payload is not None:
            self.payload = np.asarray(self.payload)

    # -- predicates ----------------------------------------------------------

    @property
    def is_data(self) -> bool:
        return self.record_type is RecordType.DATA

    @property
    def is_open(self) -> bool:
        return self.record_type is RecordType.OPEN_SCOPE

    @property
    def is_close(self) -> bool:
        return self.record_type in (RecordType.CLOSE_SCOPE, RecordType.BAD_CLOSE_SCOPE)

    @property
    def is_bad_close(self) -> bool:
        return self.record_type is RecordType.BAD_CLOSE_SCOPE

    @property
    def is_end(self) -> bool:
        return self.record_type is RecordType.END_OF_STREAM

    # -- helpers -------------------------------------------------------------

    def copy(self, **overrides: Any) -> "Record":
        """A shallow copy with selected fields replaced."""
        fields = {
            "record_type": self.record_type,
            "subtype": self.subtype,
            "scope": self.scope,
            "scope_type": self.scope_type,
            "sequence": self.sequence,
            "payload": None if self.payload is None else self.payload.copy(),
            "context": dict(self.context),
        }
        fields.update(overrides)
        return Record(**fields)

    def payload_length(self) -> int:
        """Number of payload elements (0 when there is no payload)."""
        return 0 if self.payload is None else int(self.payload.size)


def data_record(
    payload: np.ndarray,
    subtype: str = Subtype.AUDIO.value,
    scope: int = 0,
    scope_type: str = ScopeType.GENERIC.value,
    sequence: int = 0,
    context: dict[str, Any] | None = None,
) -> Record:
    """Convenience constructor for a data record."""
    return Record(RecordType.DATA, subtype, scope, scope_type, sequence, payload, context or {})


def fragment_record(
    payload: np.ndarray,
    scope: int = 0,
    sequence: int = 0,
    context: dict[str, Any] | None = None,
) -> Record:
    """One streamed audio slice of a fragmented ensemble scope.

    Convenience constructor for :data:`Subtype.FRAGMENT` data records; the
    scope type is always :data:`ScopeType.ENSEMBLE` because fragments only
    occur inside an ensemble scope being streamed while still open.
    """
    return data_record(
        payload,
        subtype=Subtype.FRAGMENT.value,
        scope=scope,
        scope_type=ScopeType.ENSEMBLE.value,
        sequence=sequence,
        context=context,
    )


def open_scope(
    scope: int,
    scope_type: str = ScopeType.GENERIC.value,
    sequence: int = 0,
    context: dict[str, Any] | None = None,
) -> Record:
    """Convenience constructor for an OpenScope record."""
    return Record(
        record_type=RecordType.OPEN_SCOPE,
        scope=scope,
        scope_type=scope_type,
        sequence=sequence,
        context=context or {},
    )


def close_scope(
    scope: int, scope_type: str = ScopeType.GENERIC.value, sequence: int = 0
) -> Record:
    """Convenience constructor for a CloseScope record."""
    return Record(
        record_type=RecordType.CLOSE_SCOPE, scope=scope, scope_type=scope_type, sequence=sequence
    )


def bad_close_scope(
    scope: int, scope_type: str = ScopeType.GENERIC.value, sequence: int = 0, reason: str = ""
) -> Record:
    """Convenience constructor for a BadCloseScope record."""
    context = {"reason": reason} if reason else {}
    return Record(
        record_type=RecordType.BAD_CLOSE_SCOPE,
        scope=scope,
        scope_type=scope_type,
        sequence=sequence,
        context=context,
    )


def end_of_stream(sequence: int = 0) -> Record:
    """Convenience constructor for an end-of-stream marker."""
    return Record(record_type=RecordType.END_OF_STREAM, sequence=sequence)
