"""Unit tests for Dynamic River records, scopes, serialization and channels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.river import (
    ByteChannel,
    ChannelClosed,
    QueueChannel,
    Record,
    RecordType,
    ScopeError,
    ScopeStack,
    ScopeType,
    SerializationError,
    Subtype,
    bad_close_scope,
    close_scope,
    data_record,
    end_of_stream,
    open_scope,
    pack_record,
    pack_stream,
    unpack_record,
    unpack_stream,
    validate_stream,
)


class TestRecords:
    def test_data_record_predicates(self):
        record = data_record(np.arange(4.0), subtype=Subtype.AUDIO.value, scope=1)
        assert record.is_data and not record.is_open and not record.is_close and not record.is_end
        assert record.payload_length() == 4

    def test_scope_record_predicates(self):
        assert open_scope(0).is_open
        assert close_scope(0).is_close
        assert bad_close_scope(0, reason="crash").is_bad_close
        assert bad_close_scope(0, reason="crash").context["reason"] == "crash"
        assert end_of_stream().is_end

    def test_copy_is_deep_for_payload(self):
        record = data_record(np.zeros(3))
        clone = record.copy()
        clone.payload[0] = 5.0
        assert record.payload[0] == 0.0

    def test_copy_with_overrides(self):
        record = data_record(np.zeros(3), scope=1)
        clone = record.copy(scope=2, subtype="other")
        assert clone.scope == 2 and clone.subtype == "other"
        assert record.scope == 1

    def test_negative_scope_rejected(self):
        with pytest.raises(ValueError):
            Record(record_type=RecordType.DATA, scope=-1)


class TestScopeStack:
    def test_balanced_nesting(self):
        stack = ScopeStack()
        stack.observe(open_scope(0, ScopeType.CLIP.value))
        stack.observe(open_scope(1, ScopeType.ENSEMBLE.value))
        assert stack.depth == 2
        assert stack.current.scope_type == ScopeType.ENSEMBLE.value
        stack.observe(close_scope(1, ScopeType.ENSEMBLE.value))
        stack.observe(close_scope(0, ScopeType.CLIP.value))
        assert stack.depth == 0

    def test_close_without_open_raises_in_strict_mode(self):
        stack = ScopeStack(strict=True)
        with pytest.raises(ScopeError):
            stack.observe(close_scope(0))

    def test_violations_collected_in_lenient_mode(self):
        stack = ScopeStack(strict=False)
        stack.observe(close_scope(0))
        stack.observe(open_scope(3))  # wrong depth
        assert len(stack.violations) == 2

    def test_type_mismatch_detected(self):
        stack = ScopeStack(strict=False)
        stack.observe(open_scope(0, ScopeType.CLIP.value))
        stack.observe(close_scope(0, ScopeType.ENSEMBLE.value))
        assert stack.violations

    def test_closing_records_innermost_first(self):
        stack = ScopeStack()
        stack.observe(open_scope(0, ScopeType.CLIP.value))
        stack.observe(open_scope(1, ScopeType.ENSEMBLE.value))
        closings = stack.closing_records("upstream died")
        assert [r.scope for r in closings] == [1, 0]
        assert all(r.is_bad_close for r in closings)
        assert stack.depth == 0

    def test_validate_stream_detects_unclosed_scope(self):
        records = [open_scope(0), data_record(np.zeros(2), scope=1)]
        with pytest.raises(ScopeError):
            validate_stream(records, strict=True)
        violations = validate_stream(records, strict=False)
        assert violations

    def test_validate_stream_accepts_balanced_stream(self):
        records = [
            open_scope(0, ScopeType.CLIP.value),
            data_record(np.zeros(2), scope=1, scope_type=ScopeType.CLIP.value),
            close_scope(0, ScopeType.CLIP.value),
            end_of_stream(),
        ]
        assert validate_stream(records) == []


class TestSerialization:
    def test_roundtrip_data_record(self, rng):
        record = data_record(
            rng.normal(size=100),
            subtype=Subtype.AUDIO.value,
            scope=2,
            scope_type=ScopeType.ENSEMBLE.value,
            sequence=42,
            context={"sample_rate": 16000, "station_id": "s-1"},
        )
        unpacked, consumed = unpack_record(pack_record(record))
        assert consumed == len(pack_record(record))
        assert unpacked.record_type is RecordType.DATA
        assert unpacked.subtype == record.subtype
        assert unpacked.scope == 2
        assert unpacked.scope_type == record.scope_type
        assert unpacked.sequence == 42
        assert unpacked.context == record.context
        np.testing.assert_allclose(unpacked.payload, record.payload)

    def test_roundtrip_scope_record_without_payload(self):
        record = open_scope(1, ScopeType.CLIP.value, context={"sample_rate": 22050})
        unpacked, _ = unpack_record(pack_record(record))
        assert unpacked.is_open
        assert unpacked.payload is None
        assert unpacked.context["sample_rate"] == 22050

    def test_roundtrip_complex_payload(self, rng):
        payload = rng.normal(size=16) + 1j * rng.normal(size=16)
        record = data_record(payload, subtype=Subtype.COMPLEX_SPECTRUM.value)
        unpacked, _ = unpack_record(pack_record(record))
        np.testing.assert_allclose(unpacked.payload, payload)

    def test_stream_roundtrip_preserves_order(self, rng):
        records = [
            open_scope(0),
            data_record(rng.normal(size=10), sequence=1),
            data_record(rng.normal(size=5), sequence=2),
            close_scope(0),
            end_of_stream(),
        ]
        unpacked = list(unpack_stream(pack_stream(records)))
        assert [r.record_type for r in unpacked] == [r.record_type for r in records]
        assert [r.sequence for r in unpacked] == [r.sequence for r in records]

    def test_truncated_blob_rejected(self, rng):
        blob = pack_record(data_record(rng.normal(size=50)))
        with pytest.raises(SerializationError):
            unpack_record(blob[: len(blob) // 2])

    def test_bad_magic_rejected(self):
        blob = pack_record(end_of_stream())
        with pytest.raises(SerializationError):
            unpack_record(b"XXXX" + blob[4:])

    def test_unserialisable_context_rejected(self):
        record = data_record(np.zeros(2), context={"bad": object()})
        with pytest.raises(SerializationError):
            pack_record(record)


class TestChannels:
    def test_queue_channel_fifo(self):
        channel = QueueChannel()
        channel.put(data_record(np.zeros(1), sequence=1))
        channel.put(data_record(np.zeros(1), sequence=2))
        assert len(channel) == 2
        assert channel.get().sequence == 1
        assert channel.get().sequence == 2
        assert channel.get() is None

    def test_queue_channel_close_semantics(self):
        channel = QueueChannel()
        channel.put(end_of_stream())
        channel.close()
        with pytest.raises(ChannelClosed):
            channel.put(end_of_stream())
        assert channel.get().is_end
        with pytest.raises(ChannelClosed):
            channel.get()

    def test_byte_channel_serialises_records(self, rng):
        channel = ByteChannel()
        record = data_record(rng.normal(size=64), context={"offset": 3})
        channel.put(record)
        assert channel.bytes_transferred > 0
        received = channel.get()
        np.testing.assert_allclose(received.payload, record.payload)
        assert received.context == {"offset": 3}

    def test_byte_channel_uses_the_shared_stream_framing(self, rng):
        """Regression: ByteChannel must encode with frame_record — the exact
        length-prefixed framing socket transports use — not its own format."""
        from repro.river import frame_record, unframe_record

        record = data_record(rng.normal(size=32), sequence=5, context={"offset": 9})
        channel = ByteChannel()
        channel.put(record)
        framed = frame_record(record)
        assert channel.bytes_transferred == len(framed)
        restored, consumed = unframe_record(framed)
        assert consumed == len(framed)
        received = channel.get()
        np.testing.assert_array_equal(received.payload, restored.payload)
        assert received.context == restored.context == record.context
        assert received.sequence == restored.sequence == record.sequence


# -- Pipeline.flush ----------------------------------------------------------

from repro.river import Pipeline  # noqa: E402
from repro.river.operator_base import Operator, PassThrough  # noqa: E402


class _Buffering(Operator):
    """Holds every data record until flush (like rec2vect or a chunker)."""

    def __init__(self, name: str = "buffering") -> None:
        super().__init__(name)
        self.held: list[Record] = []

    def process(self, record: Record) -> list[Record]:
        if record.is_data:
            self.held.append(record)
            return []
        return [record]

    def flush(self) -> list[Record]:
        held, self.held = self.held, []
        return held


class _Doubling(Operator):
    """Emits every data record twice (fan-out makes re-walk bugs visible)."""

    def process(self, record: Record) -> list[Record]:
        if record.is_data:
            return [record, record.copy()]
        return [record]


class TestPipelineFlush:
    def test_flush_output_equivalence_with_inline_processing(self, rng):
        """Flushing buffered records downstream == processing them directly.

        Regression test for the old flush cascade, which re-walked every
        downstream operator per flushed record and pushed already-cascaded
        records through the tail operators a second time.
        """
        records = [data_record(rng.normal(size=4), sequence=i) for i in range(5)]
        buffered = Pipeline([_Buffering(), _Doubling()])
        for record in records:
            assert buffered.process_record(record) == []
        flushed = buffered.flush()

        direct = Pipeline([_Doubling()])
        expected = [out for record in records for out in direct.process_record(record)]
        assert len(flushed) == len(expected) == 10
        for got, want in zip(flushed, expected):
            np.testing.assert_array_equal(got.payload, want.payload)
            assert got.sequence == want.sequence

    def test_flush_visits_each_downstream_operator_exactly_once(self, rng):
        """No record may reach a downstream operator twice during flush."""
        counters = [PassThrough(name=f"count-{i}") for i in range(4)]
        pipeline = Pipeline([_Buffering()] + counters)
        for i in range(7):
            pipeline.process_record(data_record(rng.normal(size=2), sequence=i))
        outputs = pipeline.flush()
        assert len(outputs) == 7
        for counter in counters:
            assert counter.records_in == 7

    def test_flush_from_middle_operators_cascades_downstream_only(self, rng):
        """A mid-pipeline buffer's flush passes through the tail, not the head."""
        head = PassThrough(name="head")
        tail = PassThrough(name="tail")
        pipeline = Pipeline([head, _Buffering(), tail])
        for i in range(3):
            pipeline.process_record(data_record(rng.normal(size=2), sequence=i))
        head_seen = head.records_in
        outputs = pipeline.flush()
        assert len(outputs) == 3
        assert head.records_in == head_seen  # nothing flows backwards
        # The buffer swallowed every live record, so the tail sees each one
        # exactly once — during the flush cascade.
        assert tail.records_in == 3
