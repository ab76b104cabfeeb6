"""Property tests for the record wire format and the stream framing.

Satellite contract for the process transport: *any* record the engine can
produce — every record type, every scope type, int / float payloads of any
shape including zero-length, JSON context of nested values — survives
``pack_record``/``unpack_record`` and ``pack_stream``/``unpack_stream``
exactly, and the length-prefixed framing used by ``ByteChannel`` and
``SocketChannel`` reassembles records from arbitrarily-chunked byte streams
no matter where the chunk boundaries fall.

The zero-copy wire path adds a second contract (``TestViewFraming``): the
buffer lists returned by ``pack_record_views`` / ``frame_record_views``
join to *exactly* the legacy byte functions' output — which itself must
stay byte-identical to the pre-views encoder, kept verbatim in
``tests/_seed_anchors.py`` as the anchor — for arbitrary records, dtypes, zero-length payloads and
non-contiguous input arrays; and the offset-cursor decoder survives
adversarial chunkings (1-byte feeds, splits inside the prefix, many frames
per feed, compaction-crossing volumes) while rejecting poisoned length
prefixes instead of buffering forever.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.river import (
    Record,
    RecordFrameDecoder,
    RecordType,
    ScopeType,
    SerializationError,
    Subtype,
    frame_record,
    frame_record_views,
    pack_record,
    pack_record_views,
    pack_stream,
    unframe_record,
    unpack_record,
    unpack_stream,
)
from repro.river.serialization import FRAME_PREFIX

from _seed_anchors import seed_frame_record, seed_pack_record

# -- strategies ----------------------------------------------------------------

#: JSON-representable context values; floats stay finite because JSON's
#: NaN does not compare equal after a round trip.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False, width=64)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)

contexts = st.dictionaries(st.text(max_size=10), json_values, max_size=4)

payload_dtypes = st.sampled_from(["<i4", "<i8", "<f4", "<f8"])


def _elements(dtype: np.dtype):
    if dtype.kind == "f":
        return st.floats(
            allow_nan=False, allow_infinity=False, width=8 * dtype.itemsize
        )
    info = np.iinfo(dtype)
    return st.integers(min_value=int(info.min), max_value=int(info.max))


payloads = st.none() | payload_dtypes.flatmap(
    lambda code: hnp.arrays(
        dtype=np.dtype(code),
        shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
        elements=_elements(np.dtype(code)),
    )
)

records = st.builds(
    Record,
    record_type=st.sampled_from(list(RecordType)),
    subtype=st.sampled_from([member.value for member in Subtype]) | st.text(max_size=10),
    scope=st.integers(min_value=0, max_value=7),
    scope_type=st.sampled_from([member.value for member in ScopeType]),
    sequence=st.integers(min_value=0, max_value=2**31),
    payload=payloads,
    context=contexts,
)


def assert_records_equal(a: Record, b: Record) -> None:
    assert a.record_type == b.record_type
    assert a.subtype == b.subtype
    assert a.scope == b.scope
    assert a.scope_type == b.scope_type
    assert a.sequence == b.sequence
    assert a.context == b.context
    if a.payload is None:
        assert b.payload is None
    else:
        assert b.payload is not None
        assert a.payload.dtype == b.payload.dtype
        assert a.payload.shape == b.payload.shape
        np.testing.assert_array_equal(a.payload, b.payload)


# -- properties ----------------------------------------------------------------


class TestRecordRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(record=records)
    def test_pack_unpack_is_exact(self, record):
        blob = pack_record(record)
        unpacked, consumed = unpack_record(blob)
        assert consumed == len(blob)
        assert_records_equal(record, unpacked)

    @settings(max_examples=40, deadline=None)
    @given(batch=st.lists(records, max_size=5))
    def test_stream_round_trip_preserves_order_and_content(self, batch):
        blob = pack_stream(batch)
        unpacked = list(unpack_stream(blob))
        assert len(unpacked) == len(batch)
        for original, restored in zip(batch, unpacked):
            assert_records_equal(original, restored)


class TestFramedTransport:
    @settings(max_examples=40, deadline=None)
    @given(record=records)
    def test_unframe_inverts_frame(self, record):
        blob = frame_record(record)
        restored, consumed = unframe_record(blob)
        assert consumed == len(blob)
        assert_records_equal(record, restored)

    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.lists(records, min_size=1, max_size=4),
        chunk_size=st.integers(min_value=1, max_value=37),
    )
    def test_decoder_survives_arbitrary_chunking(self, batch, chunk_size):
        """Chunk boundaries may fall anywhere — inside the length prefix,
        the header, the payload — without changing a single record."""
        stream = b"".join(frame_record(record) for record in batch)
        decoder = RecordFrameDecoder()
        restored: list[Record] = []
        for start in range(0, len(stream), chunk_size):
            restored.extend(decoder.feed(stream[start : start + chunk_size]))
        assert decoder.pending_bytes == 0
        assert len(restored) == len(batch)
        for original, decoded in zip(batch, restored):
            assert_records_equal(original, decoded)

    @settings(max_examples=40, deadline=None)
    @given(record=records, cut=st.integers(min_value=0, max_value=10_000))
    def test_truncated_frame_is_rejected_not_misread(self, record, cut):
        blob = frame_record(record)
        truncated = blob[: min(cut, len(blob) - 1)]
        with pytest.raises(SerializationError):
            unframe_record(truncated)

    def test_zero_length_payload_survives_the_wire(self):
        record = Record(
            record_type=RecordType.DATA,
            subtype=Subtype.LABEL.value,
            payload=np.zeros(0),
            context={"label": "NOCA"},
        )
        restored, _ = unframe_record(frame_record(record))
        assert restored.payload is not None
        assert restored.payload.size == 0
        assert restored.payload.dtype == np.float64
        assert restored.context == {"label": "NOCA"}


# -- zero-copy views framing ---------------------------------------------------


class TestViewFraming:
    """The tentpole contract: views join to the exact legacy bytes."""

    @settings(max_examples=80, deadline=None)
    @given(record=records)
    def test_pack_views_join_to_legacy_bytes(self, record):
        views = pack_record_views(record)
        assert all(isinstance(view, memoryview) for view in views)
        joined = b"".join(views)
        assert joined == pack_record(record)
        assert joined == seed_pack_record(record)

    @settings(max_examples=80, deadline=None)
    @given(record=records)
    def test_frame_views_join_to_legacy_bytes(self, record):
        joined = b"".join(frame_record_views(record))
        assert joined == frame_record(record)
        assert joined == seed_frame_record(record)

    @settings(max_examples=40, deadline=None)
    @given(
        payload=payload_dtypes.flatmap(
            lambda code: hnp.arrays(
                dtype=np.dtype(code),
                shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=6),
                elements=_elements(np.dtype(code)),
            )
        ),
        transform=st.sampled_from(["transpose", "stride", "flip"]),
    )
    def test_non_contiguous_payloads_pack_identically(self, payload, transform):
        """Views over a non-contiguous array still serialise to the bytes of
        its contiguous copy — ``ascontiguousarray`` happens inside."""
        if transform == "transpose":
            skewed = payload.T
        elif transform == "stride":
            skewed = payload[::2]
        else:
            skewed = payload[::-1]
        assert skewed.size == 0 or not skewed.flags["C_CONTIGUOUS"] or transform == "stride"
        record = Record(record_type=RecordType.DATA, payload=skewed)
        contiguous = Record(record_type=RecordType.DATA, payload=np.ascontiguousarray(skewed))
        assert b"".join(pack_record_views(record)) == seed_pack_record(contiguous)
        restored, _ = unpack_record(pack_record(record))
        np.testing.assert_array_equal(restored.payload, np.ascontiguousarray(skewed))

    @settings(max_examples=40, deadline=None)
    @given(record=records)
    def test_payload_view_aliases_the_array(self, record):
        """The big buffer really is zero-copy: it aliases the record's own
        payload memory whenever that array is contiguous."""
        views = pack_record_views(record)
        if record.payload is None or record.payload.nbytes == 0:
            assert len(views) == 1
            return
        assert len(views) == 2
        if record.payload.flags["C_CONTIGUOUS"]:
            assert np.shares_memory(
                np.frombuffer(views[1], dtype=np.uint8),
                record.payload,
            )

    @settings(max_examples=40, deadline=None)
    @given(batch=st.lists(records, min_size=1, max_size=4), prefix_pad=st.integers(0, 3))
    def test_unpack_record_walks_offsets_without_reslicing(self, batch, prefix_pad):
        """``unpack_record(view, offset)`` over one memoryview is exactly the
        old slice-per-record walk."""
        blob = b"\x00" * prefix_pad + pack_stream(batch)
        view = memoryview(blob)
        offset = prefix_pad
        for original in batch:
            record, consumed = unpack_record(view, offset)
            assert_records_equal(original, record)
            # Records own their payloads — nothing aliases the source buffer.
            if record.payload is not None:
                assert record.payload.base is None
            offset += consumed
        assert offset == len(blob)


class TestOffsetCursorDecoder:
    """The rebuilt decoder under adversarial chunkings."""

    @settings(max_examples=25, deadline=None)
    @given(batch=st.lists(records, min_size=1, max_size=3))
    def test_one_byte_feeds(self, batch):
        stream = b"".join(frame_record(record) for record in batch)
        decoder = RecordFrameDecoder()
        restored: list[Record] = []
        for index in range(len(stream)):
            restored.extend(decoder.feed(stream[index : index + 1]))
        assert decoder.pending_bytes == 0
        assert len(restored) == len(batch)
        for original, decoded in zip(batch, restored):
            assert_records_equal(original, decoded)

    @settings(max_examples=40, deadline=None)
    @given(batch=st.lists(records, min_size=2, max_size=6), split=st.integers(1, 3))
    def test_split_inside_the_prefix_then_many_frames_per_feed(self, batch, split):
        """First feed ends mid-prefix; the second carries everything else —
        several complete frames in one feed."""
        stream = b"".join(frame_record(record) for record in batch)
        decoder = RecordFrameDecoder()
        first = decoder.feed(stream[:split])
        assert first == []
        assert decoder.pending_bytes == split
        rest = decoder.feed(stream[split:])
        assert len(first) + len(rest) == len(batch)
        for original, decoded in zip(batch, rest):
            assert_records_equal(original, decoded)
        assert decoder.pending_bytes == 0

    def test_compaction_over_a_long_stream(self, rng=np.random.default_rng(7)):
        """Pump far more than the compaction threshold through misaligned
        feeds; the cursor buffer must not grow with the stream."""
        record = Record(record_type=RecordType.DATA, payload=rng.standard_normal(4096))
        frame = frame_record(record)
        stream = frame * 64  # ~2 MiB >> the 64 KiB compaction threshold
        decoder = RecordFrameDecoder()
        restored = 0
        chunk = len(frame) + 13  # misaligned: every feed splits a frame
        for start in range(0, len(stream), chunk):
            restored += len(decoder.feed(stream[start : start + chunk]))
        assert restored == 64
        assert decoder.pending_bytes == 0
        assert len(decoder._buffer) < 2 * chunk

    def test_frame_aligned_feeds_bypass_the_buffer(self, rng=np.random.default_rng(8)):
        record = Record(record_type=RecordType.DATA, payload=rng.standard_normal(512))
        decoder = RecordFrameDecoder()
        for _ in range(4):
            (restored,) = decoder.feed(frame_record(record))
            assert_records_equal(record, restored)
            assert decoder.pending_bytes == 0
            assert len(decoder._buffer) == 0  # nothing was ever staged

    def test_poisoned_length_prefix_is_rejected_not_buffered(self):
        """A corrupt prefix announcing gigabytes must raise, not make the
        decoder buffer forever waiting for a frame that never completes."""
        decoder = RecordFrameDecoder(max_frame_bytes=1 << 20)
        poisoned = FRAME_PREFIX.pack(4 * 1024 * 1024 * 1024 - 1) + b"\x00" * 16
        with pytest.raises(SerializationError, match=str(4 * 1024 * 1024 * 1024 - 1)):
            decoder.feed(poisoned)

    def test_poisoned_prefix_rejected_mid_stream_too(self, rng=np.random.default_rng(9)):
        decoder = RecordFrameDecoder(max_frame_bytes=1 << 20)
        good = frame_record(Record(record_type=RecordType.DATA, payload=rng.standard_normal(8)))
        # Split so the poison arrives while a partial good frame is buffered.
        stream = good + FRAME_PREFIX.pack((1 << 31) + 7)
        assert decoder.feed(stream[: len(good) // 2]) == []
        with pytest.raises(SerializationError, match="max_frame_bytes"):
            decoder.feed(stream[len(good) // 2 :])

    def test_default_ceiling_is_generous(self):
        from repro.river.serialization import DEFAULT_MAX_FRAME_BYTES

        assert DEFAULT_MAX_FRAME_BYTES == 256 * 1024 * 1024
        assert RecordFrameDecoder().max_frame_bytes == DEFAULT_MAX_FRAME_BYTES
        with pytest.raises(ValueError):
            RecordFrameDecoder(max_frame_bytes=0)

    def test_frame_with_trailing_junk_is_rejected(self, rng=np.random.default_rng(10)):
        """A frame whose prefix over-announces (record + junk padding) is
        corrupt and must raise, exactly like ``unframe_record``."""
        blob = pack_record(Record(record_type=RecordType.DATA, payload=rng.standard_normal(4)))
        framed = FRAME_PREFIX.pack(len(blob) + 2) + blob + b"\x00\x00"
        with pytest.raises(SerializationError, match="corrupt frame"):
            RecordFrameDecoder().feed(framed)
