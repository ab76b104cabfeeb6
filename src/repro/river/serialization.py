"""Record wire format.

Channels move records between pipeline segments that may live on different
hosts, so records need a byte-level representation.  The format is
deliberately simple and self-describing:

``magic (4s) | version (B) | header_len (I) | header JSON | payload bytes``

The header JSON carries every header field plus the payload dtype and shape;
the payload is the raw little-endian array bytes.  JSON keeps the format
debuggable; the payload stays binary so audio does not balloon in size.

For byte-stream transports (TCP sockets, files) a record is additionally
*framed* with a 4-byte little-endian length prefix: :func:`frame_record`
produces ``len (I) | packed record`` and :class:`RecordFrameDecoder`
incrementally reassembles records from arbitrarily-chunked byte pieces.
Every channel that moves records as bytes — :class:`~repro.river.channels.
ByteChannel` and :class:`~repro.river.transport.SocketChannel` — shares this
one framing, so a record crossing an in-process byte channel is encoded
bit-for-bit like a record crossing a real socket.

Zero-copy views API
-------------------

The byte format above is fixed, but there are two ways to produce it.
:func:`pack_record` / :func:`frame_record` return one contiguous ``bytes``
object — convenient, but materialising it copies the payload.  The hot wire
path uses the *views* variants instead: :func:`pack_record_views` /
:func:`frame_record_views` return a short list of buffers — a small
``prefix + header JSON`` head plus a :class:`memoryview` straight over the
record's (contiguous) payload array — whose concatenation is byte-identical
to the legacy functions (``b"".join(pack_record_views(r)) ==
pack_record(r)``, property-tested).  Vectored transports hand that list to
``socket.sendmsg`` so the payload goes from the numpy array to the kernel
without a single intermediate copy; the byte functions are now thin
``b"".join`` wrappers over the same encoder.  Because the payload buffer is
shared, callers must not mutate the array until the views have been fully
consumed (sent or joined).

On the receive side :func:`unpack_record` accepts any buffer-protocol
object plus an ``offset`` and materialises exactly one array copy per
record (``np.frombuffer(...).copy()`` — the copy that makes the record own
its payload); :class:`RecordFrameDecoder` keeps an offset cursor into its
buffer instead of deleting consumed prefixes frame by frame, compacts
periodically, and decodes frame-aligned input straight from the caller's
buffer without staging it at all.

The format is *content-agnostic*: every record type and subtype — including
the :data:`~repro.river.records.Subtype.FRAGMENT` records that stream a
still-open ensemble's audio slice by slice — travels as header JSON plus
raw payload bytes, which is what lets :class:`~repro.river.transport.
ProcessDeployment` pump incremental ensemble fragments across sockets
without any per-type wire code.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Iterator

import numpy as np

from .errors import SerializationError
from .records import Record, RecordType

__all__ = [
    "pack_record",
    "pack_record_views",
    "unpack_record",
    "pack_stream",
    "unpack_stream",
    "frame_record",
    "frame_record_views",
    "unframe_record",
    "RecordFrameDecoder",
    "MAGIC",
    "VERSION",
    "FRAME_PREFIX",
    "DEFAULT_MAX_FRAME_BYTES",
]

MAGIC = b"DRIV"
VERSION = 1

_PREFIX = struct.Struct("<4sBI")

#: Length prefix for framed records on byte-stream transports.
FRAME_PREFIX = struct.Struct("<I")

#: Ceiling on the length a frame prefix may announce before the decoder
#: refuses it.  Generous — far above any real record — but bounded, so a
#: corrupt or hostile prefix cannot make a decoder buffer gigabytes forever.
DEFAULT_MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Consumed-prefix length above which the decoder compacts its buffer.
_COMPACT_BYTES = 1 << 16

#: The header codec, built once: ``json.dumps`` with non-default separators
#: builds an encoder per call.  The encoder writes no whitespace, so the
#: decoder reads one JSON value spanning the whole header.
_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"))
_JSON_DECODER = json.JSONDecoder()


def _payload_view(payload: np.ndarray) -> memoryview:
    """A flat byte view over a C-contiguous array, copy-free where possible."""
    if payload.ndim == 0 or payload.size == 0:
        # memoryview.cast cannot flatten 0-d views or shapes containing a
        # zero; these payloads are at most itemsize bytes, so copying is free.
        return memoryview(payload.tobytes())
    return memoryview(payload).cast("B")


def _encode_record(record: Record) -> tuple[bytes, memoryview | None]:
    """The single encoder: (prefix + header JSON, payload byte view or None)."""
    header: dict = {
        "record_type": record.record_type.value,
        "subtype": record.subtype,
        "scope": record.scope,
        "scope_type": record.scope_type,
        "sequence": record.sequence,
        "context": record.context,
    }
    body: memoryview | None = None
    if record.payload is not None:
        payload = np.ascontiguousarray(record.payload)
        header["dtype"] = payload.dtype.str
        header["shape"] = list(payload.shape)
        body = _payload_view(payload)
    try:
        header_bytes = _JSON_ENCODER.encode(header).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"record context is not JSON-serialisable: {exc}") from exc
    return _PREFIX.pack(MAGIC, VERSION, len(header_bytes)) + header_bytes, body


def pack_record_views(record: Record) -> list[memoryview]:
    """Serialise one record as a list of buffers, payload copy-free.

    The concatenation of the returned views is byte-identical to
    :func:`pack_record`; the payload view aliases the record's array, so the
    array must not be mutated until the views are consumed.
    """
    head, body = _encode_record(record)
    views = [memoryview(head)]
    if body is not None and len(body):
        # A zero-length payload contributes no wire bytes; dropping its view
        # keeps vectored senders free of empty iovec entries.
        views.append(body)
    return views


def pack_record(record: Record) -> bytes:
    """Serialise one record to bytes."""
    return b"".join(pack_record_views(record))


def _payload_layout(header: dict) -> tuple[np.dtype, tuple[int, ...]]:
    """The payload dtype and shape a header announces, refused unless they
    describe plain array bytes — they size the read that follows."""
    try:
        dtype = np.dtype(header["dtype"])
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"corrupt record header: dtype {header['dtype']!r}: {exc}") from exc
    if dtype.hasobject:
        raise SerializationError(
            f"corrupt record header: dtype {header['dtype']!r} holds Python objects"
        )
    shape = header.get("shape")
    if type(shape) is list:
        for n in shape:  # a plain loop: this runs once per payload record
            if type(n) is not int or n < 0:
                break
        else:
            return dtype, tuple(shape)
    raise SerializationError(
        f"corrupt record header: shape {shape!r} is not a list of non-negative ints"
    )


#: Wire name -> record type (a dict lookup, not an enum call per record).
_RECORD_TYPES = {record_type.value: record_type for record_type in RecordType}


def _header_fields(header) -> tuple:
    """The record fields a decoded header names: the header refused with a
    :class:`SerializationError` unless it is a JSON object, and each field
    unless it has the type a record holds."""
    if type(header) is not dict:
        raise SerializationError(
            f"corrupt record header: {type(header).__name__} {header!r:.40} is not an object"
        )
    name = header.get("record_type")
    record_type = _RECORD_TYPES.get(name) if type(name) is str else None
    subtype = header.get("subtype", "generic")
    scope = header.get("scope", 0)
    scope_type = header.get("scope_type", "scope_generic")
    sequence = header.get("sequence", 0)
    context = header.get("context", {})
    if (
        record_type is not None
        and type(subtype) is str
        and type(scope) is int
        and scope >= 0
        and type(scope_type) is str
        and type(sequence) is int
        and sequence >= 0
        and type(context) is dict
    ):
        return record_type, subtype, scope, scope_type, sequence, context
    # Something is off: name the first field that is.
    if record_type is None:
        raise SerializationError(f"unknown record type in header: {name!r}")
    for field, value in (("subtype", subtype), ("scope_type", scope_type)):
        if type(value) is not str:
            raise SerializationError(f"corrupt record header: {field} {value!r} is not a string")
    for field, value in (("scope", scope), ("sequence", sequence)):
        if type(value) is not int or value < 0:
            raise SerializationError(
                f"corrupt record header: {field} {value!r} is not a non-negative int"
            )
    raise SerializationError(f"corrupt record header: context {context!r} is not an object")


def unpack_record(blob, offset: int = 0) -> tuple[Record, int]:
    """Deserialise one record from ``blob`` at ``offset``.

    ``blob`` may be any buffer-protocol object (``bytes``, ``bytearray``,
    ``memoryview``); nothing before the payload is copied, and the payload
    is materialised with exactly one copy (the one that makes the returned
    record own its data).  Returns the record and the number of bytes
    consumed from ``offset``, so a buffer holding several packed records can
    be walked incrementally.
    """
    borrowed = isinstance(blob, memoryview)
    view = blob if borrowed else memoryview(blob)
    try:
        total = len(view)
        if total - offset < _PREFIX.size:
            raise SerializationError("truncated record: missing prefix")
        magic, version, header_len = _PREFIX.unpack_from(view, offset)
        if magic != MAGIC:
            raise SerializationError(f"bad magic {magic!r}")
        if version != VERSION:
            raise SerializationError(f"unsupported wire version {version}")
        header_start = offset + _PREFIX.size
        header_end = header_start + header_len
        if total < header_end:
            raise SerializationError("truncated record: missing header")
        try:
            text = bytes(view[header_start:header_end]).decode("utf-8")
            header, end = _JSON_DECODER.raw_decode(text)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SerializationError(f"corrupt record header: {exc}") from exc
        if end != len(text):
            raise SerializationError(
                f"corrupt record header: extra data after the JSON value at {end}"
            )
        record_type, subtype, scope, scope_type, sequence, context = _header_fields(header)

        payload = None
        consumed = header_end - offset
        if "dtype" in header:
            dtype, shape = _payload_layout(header)
            # math.prod beats np.prod by ~40x on the tiny tuples seen here,
            # which is material for small control frames.
            count = math.prod(shape)
            body_len = count * dtype.itemsize
            if total < header_end + body_len:
                raise SerializationError("truncated record: missing payload")
            payload = (
                np.frombuffer(view, dtype=dtype, count=count, offset=header_end)
                .reshape(shape)
                .copy()
            )
            consumed = header_end + body_len - offset
        record = Record(record_type, subtype, scope, scope_type, sequence, payload, context)
        return record, consumed
    finally:
        # Release our export before the caller mutates the underlying buffer
        # (the frame decoder compacts its bytearray); a view the caller
        # passed in is the caller's to manage.
        if not borrowed:
            view.release()


def frame_record_views(record: Record) -> list[memoryview]:
    """Serialise one record with the stream framing, as copy-free buffers.

    The concatenation of the returned views is byte-identical to
    :func:`frame_record`: ``4-byte little-endian length | packed record``.
    Vectored transports hand this list straight to ``socket.sendmsg``.
    """
    head, body = _encode_record(record)
    length = len(head) + (len(body) if body is not None else 0)
    views = [memoryview(FRAME_PREFIX.pack(length) + head)]
    if body is not None and len(body):
        views.append(body)
    return views


def frame_record(record: Record) -> bytes:
    """Serialise one record with the length-prefixed stream framing.

    This is the single wire encoding shared by every byte-stream channel:
    ``4-byte little-endian length | pack_record bytes``.
    """
    return b"".join(frame_record_views(record))


def unframe_record(blob) -> tuple[Record, int]:
    """Deserialise one framed record from the front of ``blob``.

    Returns the record and the total bytes consumed (prefix included).
    Raises :class:`SerializationError` when the frame is incomplete.
    """
    borrowed = isinstance(blob, memoryview)
    view = blob if borrowed else memoryview(blob)
    try:
        if len(view) < FRAME_PREFIX.size:
            raise SerializationError("truncated frame: missing length prefix")
        (length,) = FRAME_PREFIX.unpack_from(view, 0)
        end = FRAME_PREFIX.size + length
        if len(view) < end:
            raise SerializationError(
                f"truncated frame: prefix announces {length} bytes, "
                f"only {len(view) - FRAME_PREFIX.size} present"
            )
        record, consumed = unpack_record(view, FRAME_PREFIX.size)
        if consumed != length:
            raise SerializationError(
                f"corrupt frame: prefix announces {length} bytes but the record "
                f"consumed {consumed}"
            )
        return record, end
    finally:
        if not borrowed:
            view.release()


class RecordFrameDecoder:
    """Incrementally reassemble framed records from a chunked byte stream.

    Feed it whatever a socket ``recv`` (or any other byte source) delivers —
    pieces may split frames anywhere, including inside the length prefix —
    and it returns every record completed so far.  ``pending_bytes`` exposes
    how much of an unfinished frame is buffered, which transports use to
    distinguish a clean end of stream from a peer that died mid-record.

    The decoder never copies more than it must: frame-aligned input is
    decoded straight from the caller's buffer without staging; otherwise an
    offset cursor walks the internal buffer (no per-frame ``del``) and
    consumed prefixes are reclaimed in periodic compactions.  A frame whose
    prefix announces more than ``max_frame_bytes`` raises
    :class:`SerializationError` immediately instead of buffering without
    bound on a corrupt or hostile length.
    """

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        if max_frame_bytes < 1:
            raise ValueError(f"max_frame_bytes must be >= 1, got {max_frame_bytes}")
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._cursor = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes of an incomplete frame currently buffered."""
        return len(self._buffer) - self._cursor

    def _decode_frames(self, buffer, start: int, stop: int, records: list[Record]) -> int:
        """Decode every complete frame in ``buffer[start:stop]``; new cursor."""
        prefix_size = FRAME_PREFIX.size
        while stop - start >= prefix_size:
            (length,) = FRAME_PREFIX.unpack_from(buffer, start)
            if length > self.max_frame_bytes:
                raise SerializationError(
                    f"frame prefix announces {length} bytes, above this decoder's "
                    f"max_frame_bytes of {self.max_frame_bytes}; refusing to "
                    "buffer it (corrupt or hostile length prefix)"
                )
            end = start + prefix_size + length
            if stop < end:
                break
            record, consumed = unpack_record(buffer, start + prefix_size)
            if consumed != length:
                raise SerializationError(
                    f"corrupt frame: prefix announces {length} bytes but the "
                    f"record consumed {consumed}"
                )
            records.append(record)
            start = end
        return start

    def _compact(self) -> None:
        cursor = self._cursor
        if not cursor:
            return
        if cursor == len(self._buffer):
            del self._buffer[:]
            self._cursor = 0
        elif cursor >= _COMPACT_BYTES and 2 * cursor >= len(self._buffer):
            del self._buffer[:cursor]
            self._cursor = 0

    def feed(self, data) -> list[Record]:
        """Absorb ``data`` (any bytes-like) and return the records it completed."""
        records: list[Record] = []
        if not self.pending_bytes:
            # Fast path: nothing buffered, so complete frames decode straight
            # from the caller's buffer; only a trailing partial frame is staged.
            view = data if isinstance(data, memoryview) else memoryview(data)
            try:
                offset = self._decode_frames(view, 0, len(view), records)
                if offset < len(view):
                    if self._buffer:
                        del self._buffer[:]
                    self._cursor = 0
                    self._buffer.extend(view[offset:])
            finally:
                if view is not data:
                    view.release()
            return records
        self._buffer.extend(data)
        try:
            self._cursor = self._decode_frames(
                self._buffer, self._cursor, len(self._buffer), records
            )
        finally:
            self._compact()
        return records


def pack_stream(records: list[Record]) -> bytes:
    """Serialise a list of records back to back."""
    return b"".join(view for record in records for view in pack_record_views(record))


def unpack_stream(blob) -> Iterator[Record]:
    """Iterate over the records packed in ``blob``."""
    view = memoryview(blob)
    offset = 0
    total = len(view)
    while offset < total:
        record, consumed = unpack_record(view, offset)
        yield record
        offset += consumed
