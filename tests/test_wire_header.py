"""The wire decoder refuses a record header that does not describe plain
array bytes.

The header's ``dtype`` and ``shape`` size the payload read that follows, so
a dtype numpy cannot parse, a dtype holding Python objects or a shape that
is not a list of non-negative ints is a :class:`SerializationError` naming
the field — never a numpy ``ValueError`` / ``TypeError``, and never a
"consumed" count pointing back into the header.
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
