"""The wire decoder refuses a record header it cannot trust.

The header's ``dtype`` and ``shape`` size the payload read that follows, so
a dtype numpy cannot parse, a dtype holding Python objects or a shape that
is not a list of non-negative ints is a :class:`SerializationError` naming
the field — never a numpy ``ValueError`` / ``TypeError``, and never a
"consumed" count pointing back into the header.  The same holds for the
record fields themselves: a header that is not a JSON object, a ``scope``
or ``sequence`` that is not a non-negative int, a ``subtype`` or
``scope_type`` that is not a string and a ``context`` that is not an object
are refused at the decoder, not left to fail later inside an operator.
"""

from __future__ import annotations

import json
import socket
import time

import numpy as np
import pytest

from repro.river.records import data_record
from repro.river.serialization import (
    _PREFIX,
    FRAME_PREFIX,
    MAGIC,
    VERSION,
    RecordFrameDecoder,
    SerializationError,
    pack_record,
    unpack_record,
    unpack_stream,
)
from repro.river.transport import SocketChannel, transport_available

CORRUPT = {
    "negative shape": ("shape", [-1], "shape"),
    "object dtype": ("dtype", "O", "dtype"),
    "unknown dtype": ("dtype", "nope", "dtype"),
    "scalar shape": ("shape", 5, "shape"),
    "non-int shape": ("shape", [2.5, 2], "shape"),
    "negative scope": ("scope", -1, "scope"),
    "string scope": ("scope", "1", "scope"),
    "float scope": ("scope", 1.5, "scope"),
    "null scope": ("scope", None, "scope"),
    "bool scope": ("scope", True, "scope"),
    "negative sequence": ("sequence", -3, "sequence"),
    "string sequence": ("sequence", "x", "sequence"),
    "list sequence": ("sequence", [0], "sequence"),
    "list context": ("context", [1], "context"),
    "string context": ("context", "sample_rate", "context"),
    "null context": ("context", None, "context"),
    "numeric subtype": ("subtype", 5, "subtype"),
    "object scope_type": ("scope_type", {"a": 1}, "scope_type"),
    "list record_type": ("record_type", ["data"], "record type"),
}


def corrupt_record(field: str, value) -> bytes:
    """A packed 5-sample audio record whose header says ``field: value``."""
    blob = pack_record(data_record(np.arange(5.0), "audio"))
    _, _, header_len = _PREFIX.unpack_from(blob, 0)
    header = json.loads(blob[_PREFIX.size : _PREFIX.size + header_len])
    header[field] = value
    encoded = json.dumps(header).encode("utf-8")
    return _PREFIX.pack(MAGIC, VERSION, len(encoded)) + encoded + blob[_PREFIX.size + header_len :]


@pytest.mark.parametrize("case", sorted(CORRUPT))
class TestCorruptHeader:
    def test_unpack_record_names_the_field(self, case):
        field, value, named = CORRUPT[case]
        with pytest.raises(SerializationError, match=named):
            unpack_record(corrupt_record(field, value))

    def test_unpack_stream_raises_the_same_error(self, case):
        field, value, named = CORRUPT[case]
        good = pack_record(data_record(np.ones(3), "audio"))
        with pytest.raises(SerializationError, match=named):
            list(unpack_stream(good + corrupt_record(field, value)))

    def test_frame_decoder_raises_the_same_error(self, case):
        field, value, named = CORRUPT[case]
        blob = corrupt_record(field, value)
        with pytest.raises(SerializationError, match=named):
            RecordFrameDecoder().feed(FRAME_PREFIX.pack(len(blob)) + blob)


def packed_header(header) -> bytes:
    """A record whose header is the JSON value ``header``, with no payload."""
    encoded = json.dumps(header).encode("utf-8")
    return _PREFIX.pack(MAGIC, VERSION, len(encoded)) + encoded


@pytest.mark.parametrize("header", [[1, 2], "x", 7, None, True, 2.5], ids=repr)
def test_non_object_header_is_a_serialization_error(header):
    with pytest.raises(SerializationError, match="is not an object"):
        unpack_record(packed_header(header))
    with pytest.raises(SerializationError, match="is not an object"):
        RecordFrameDecoder().feed(FRAME_PREFIX.pack(len(packed_header(header))) + packed_header(header))


@pytest.mark.parametrize("text", ['{"record_type":"data"} x', '{"record_type":"data"}{}'])
def test_data_after_the_header_value_is_a_serialization_error(text):
    encoded = text.encode("utf-8")
    with pytest.raises(SerializationError, match="extra data"):
        unpack_record(_PREFIX.pack(MAGIC, VERSION, len(encoded)) + encoded)


def test_a_minimal_header_still_decodes_with_defaults():
    record, consumed = unpack_record(packed_header({"record_type": "close_scope"}))
    assert consumed == len(packed_header({"record_type": "close_scope"}))
    assert (record.subtype, record.scope, record.scope_type, record.sequence, record.context) == (
        "generic", 0, "scope_generic", 0, {}
    )


@pytest.mark.skipif(not transport_available(), reason="no loopback interface")
def test_socket_channel_get_raises_serialization_error():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname())
        server, _ = listener.accept()
    receiver = SocketChannel(server, label="corrupt-peer")
    blob = corrupt_record("dtype", "O")
    client.sendall(FRAME_PREFIX.pack(len(blob)) + blob)
    deadline = time.monotonic() + 5.0
    try:
        with pytest.raises(SerializationError, match="dtype"):
            while time.monotonic() < deadline:
                receiver.get()
                time.sleep(0.001)
    finally:
        client.close()
        receiver.close()
