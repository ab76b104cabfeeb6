"""Tests for the real multi-process river transport.

The headline guarantee (``TestProcessTransportParity``): the same compiled
stage graph, split into segments and placed by the same scheduler plan,
produces **bit-identical** output on

* batch ``run()`` over the corpus,
* the simulated in-process :class:`~repro.river.placement.Deployment`, and
* the real :class:`~repro.river.transport.ProcessDeployment` — one OS
  process per host, TCP socket channels between hosts —

for fan-out k ∈ {1, 2, 4}.  The fault suite locks down the never-hang
contract: a SIGKILLed worker or a severed socket surfaces as
``PlacementError`` / ``ChannelSendError`` naming the stranded segment
within a bounded timeout.
"""

from __future__ import annotations

import os
import signal
import socket
import time

import numpy as np
import pytest

from repro import AcousticPipeline, FAST_EXTRACTION, MesoClassifier
from repro.pipeline import deploy_clips_via_river, replica_groups
from repro.river import (
    ByteChannel,
    ChannelClosed,
    ChannelFull,
    ChannelReceiveError,
    ChannelSendError,
    PlacementError,
    data_record,
    frame_record,
    split_into_segments,
)
from repro.river.operator_base import PassThrough, ensure_end_of_stream
from repro.river.operators import ClipSource, SubtypeFilter
from repro.river.pipeline import Pipeline, PipelineSegment
from repro.river.transport import (
    HostPlan,
    ProcessDeployment,
    SocketChannel,
    transport_available,
)
from repro.synth import ClipBuilder, get_species

pytestmark = pytest.mark.skipif(
    not transport_available(),
    reason="process transport needs a bindable loopback interface",
)

SAMPLE_RATE = 16000


def tcp_pair() -> tuple[socket.socket, socket.socket]:
    """A connected loopback TCP socket pair (client, server)."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.create_connection(listener.getsockname(), timeout=5.0)
    server, _ = listener.accept()
    listener.close()
    return client, server


def get_within(channel: SocketChannel, timeout: float = 5.0):
    """Poll a socket channel until a record arrives (bounded)."""
    deadline = time.monotonic() + timeout
    while True:
        record = channel.get()
        if record is not None:
            return record
        assert time.monotonic() < deadline, "no record within the timeout"
        time.sleep(0.001)


def get_failure(channel: SocketChannel, timeout: float = 5.0) -> Exception:
    """Poll ``get`` until it raises (bounded); returns the exception."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            channel.get()
        except Exception as exc:  # noqa: BLE001 - returned for inspection
            return exc
        time.sleep(0.001)
    raise AssertionError("channel.get never failed within the timeout")


def put_failure(channel: SocketChannel, record, timeout: float = 5.0) -> Exception:
    """Poll ``put`` until it raises (bounded); returns the exception."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            channel.put(record)
        except Exception as exc:  # noqa: BLE001 - returned for inspection
            return exc
        time.sleep(0.001)
    raise AssertionError("channel.put never failed within the timeout")


def assert_records_equal(a, b) -> None:
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
        np.testing.assert_array_equal(a.payload, b.payload)


class TestSocketChannel:
    def test_record_round_trips_over_a_real_socket(self, rng):
        client, server = tcp_pair()
        sender = SocketChannel(client, label="test-sender")
        receiver = SocketChannel(server, label="test-receiver")
        record = data_record(
            rng.normal(size=257), scope=1, sequence=9, context={"offset": 12}
        )
        sender.put(record)
        received = get_within(receiver)
        assert_records_equal(record, received)
        sender.close()
        receiver.close()

    def test_get_returns_none_until_a_full_frame_arrives(self):
        client, server = tcp_pair()
        receiver = SocketChannel(server)
        assert receiver.get() is None
        blob = frame_record(data_record(np.arange(8.0)))
        client.sendall(blob[:5])  # half a length prefix + header
        assert receiver.get() is None
        client.sendall(blob[5:])
        assert get_within(receiver) is not None
        client.close()
        receiver.close()

    def test_bounded_send_buffer_raises_channel_full(self, rng):
        client, server = tcp_pair()
        # Tiny kernel buffers so unsent records pile up in the channel.
        client.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sender = SocketChannel(client, capacity=4, label="bounded")
        record = data_record(rng.normal(size=8192))
        with pytest.raises(ChannelFull, match="capacity of 4"):
            for _ in range(1000):  # bounded: ~4 buffered records suffice
                sender.put(record)
        client.close()
        server.close()

    def test_clean_peer_close_drains_then_raises_channel_closed(self, rng):
        client, server = tcp_pair()
        sender = SocketChannel(client)
        receiver = SocketChannel(server)
        record = data_record(rng.normal(size=64))
        sender.put(record)
        sender.close()  # flush + FIN: a clean end of stream
        assert_records_equal(record, get_within(receiver))
        failure = get_failure(receiver)
        assert isinstance(failure, ChannelClosed)
        assert "closed and drained" in str(failure)

    def test_peer_death_mid_frame_raises_receive_error(self, rng):
        client, server = tcp_pair()
        receiver = SocketChannel(server, label="uplink")
        blob = frame_record(data_record(rng.normal(size=64)))
        client.sendall(blob[: len(blob) // 2])
        client.close()  # dies mid-record: the tail cannot be trusted
        failure = get_failure(receiver)
        assert isinstance(failure, ChannelReceiveError)
        assert "mid-record" in str(failure)
        assert "uplink" in str(failure)

    def test_severed_socket_raises_channel_send_error(self, rng):
        """The satellite contract: a severed inter-segment link fails fast,
        named, never hangs."""
        client, server = tcp_pair()
        sender = SocketChannel(client, capacity=None, label="edge[a->b]")
        server.close()  # sever the link
        failure = put_failure(sender, data_record(rng.normal(size=4096)))
        assert isinstance(failure, ChannelSendError)
        assert "edge[a->b]" in str(failure)

    def test_flush_to_a_stalled_peer_times_out(self, rng):
        client, server = tcp_pair()
        client.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sender = SocketChannel(client, capacity=None, timeout=0.3, label="stalled")
        for _ in range(8):
            sender.put(data_record(rng.normal(size=8192)))
        with pytest.raises(ChannelSendError, match="stopped reading"):
            sender.flush()
        client.close()
        server.close()

    def test_flush_nowait_alone_delivers_a_quiet_producers_tail(self, rng):
        """Frames the kernel refused during ``put`` must reach the peer
        through ``flush_nowait`` alone — a producer that has finished never
        calls ``put`` again (the fan-out stall's root cause)."""
        client, server = socket.socketpair()
        client.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sender = SocketChannel(client, capacity=None, label="quiet-producer")
        receiver = SocketChannel(server, capacity=None)
        sent = []
        while sender.flush_nowait():  # until the kernel refuses bytes
            assert len(sent) < 1000, "the kernel never pushed back"
            sent.append(data_record(rng.normal(size=8192), sequence=len(sent)))
            sender.put(sent[-1])
        assert len(sender) >= 1
        # The peer starts reading only now; the producer stays quiet.
        received = []
        deadline = time.monotonic() + 10.0
        while len(received) < len(sent):
            assert time.monotonic() < deadline, "queued frames never arrived"
            sender.flush_nowait()
            record = receiver.get()
            if record is not None:
                received.append(record)
        assert sender.flush_nowait() and len(sender) == 0
        for a, b in zip(sent, received):
            assert_records_equal(a, b)
        sender.close()
        receiver.close()


class TestZeroCopyWirePath:
    """The scatter-gather wire path: vectored sends, recv_into, TCP_NODELAY."""

    def test_tcp_nodelay_set_on_both_sides(self):
        """Satellite regression: Nagle must be off on connect *and* accept
        sides, or small control/OpenScope/CloseScope frames queue behind
        unacked data."""
        client, server = tcp_pair()
        sender = SocketChannel(client, label="connect-side")
        receiver = SocketChannel(server, label="accept-side")
        assert client.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        assert server.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        sender.close()
        receiver.close()

    @pytest.mark.skipif(
        not hasattr(socket.socket, "sendmsg"), reason="platform lacks sendmsg"
    )
    def test_sendmsg_coalesces_queued_frames(self, rng):
        """Once frames queue behind a full kernel buffer, draining them takes
        far fewer syscalls than frames — sendmsg gathers many per call."""
        client, server = tcp_pair()
        client.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sender = SocketChannel(client, capacity=None, label="coalescing")
        # One large record wedges the kernel buffer ...
        sender.put(data_record(rng.normal(size=8192)))
        # ... so these small records pile up in the channel's frame queue.
        for sequence in range(50):
            sender.put(data_record(np.arange(4.0), sequence=sequence))
        queued = len(sender._send_buffer)
        assert queued > 10, "records never queued; cannot measure coalescing"
        before = sender.send_syscalls
        deadline = time.monotonic() + 10.0
        while sender._send_buffer:
            assert time.monotonic() < deadline, "drain never completed"
            server.recv(1 << 20)
            sender.flush_nowait()
        syscalls = sender.send_syscalls - before
        assert syscalls < queued / 2, (
            f"{syscalls} syscalls for {queued} queued frames: no coalescing"
        )
        client.close()
        server.close()

    def test_fallback_send_path_round_trips(self, rng):
        """use_sendmsg=False exercises the per-buffer send loop used where
        vectored I/O is unavailable — byte-identical on the wire."""
        client, server = tcp_pair()
        sender = SocketChannel(client, use_sendmsg=False, label="fallback")
        receiver = SocketChannel(server)
        assert sender._sendmsg is None
        records = [
            data_record(rng.normal(size=1000), sequence=0),
            data_record(np.zeros(0), sequence=1),
            data_record(rng.normal(size=3), sequence=2, context={"offset": 7}),
        ]
        for record in records:
            sender.put(record)
        sender.flush()
        for record in records:
            assert_records_equal(record, get_within(receiver))
        sender.close()
        receiver.close()

    def test_recv_syscalls_counted_and_buffer_reused(self, rng):
        client, server = tcp_pair()
        sender = SocketChannel(client)
        receiver = SocketChannel(server)
        buffer_before = receiver._recv_buffer
        for sequence in range(5):
            sender.put(data_record(rng.normal(size=256), sequence=sequence))
        sender.flush()
        for _ in range(5):
            get_within(receiver)
        assert receiver.recv_syscalls >= 1
        assert receiver._recv_buffer is buffer_before  # preallocated, reused
        sender.close()
        receiver.close()

    def test_poisoned_prefix_surfaces_as_serialization_error(self):
        from repro.river import SerializationError

        client, server = tcp_pair()
        receiver = SocketChannel(server, label="poisoned")
        client.sendall(
            __import__("struct").pack("<I", (1 << 32) - 1) + b"\x00" * 64
        )
        deadline = time.monotonic() + 5.0
        with pytest.raises(SerializationError, match="max_frame_bytes"):
            while time.monotonic() < deadline:
                receiver.get()
                time.sleep(0.001)
        client.close()


class TestByteChannelSharedFraming:
    """Satellite regression: ByteChannel and SocketChannel share one wire
    encoding, so a record crossing either channel is byte-identical."""

    def test_byte_channel_equals_socket_channel(self, rng):
        record = data_record(
            rng.normal(size=100),
            subtype="audio",
            scope=2,
            scope_type="scope_ensemble",
            sequence=7,
            context={"station_id": "pole-3", "offset": 4096},
        )
        byte_channel = ByteChannel()
        byte_channel.put(record)
        via_bytes = byte_channel.get()

        client, server = tcp_pair()
        sender = SocketChannel(client)
        receiver = SocketChannel(server)
        sender.put(record)
        via_socket = get_within(receiver)
        sender.close()
        receiver.close()

        assert_records_equal(via_bytes, via_socket)
        assert_records_equal(record, via_bytes)

    def test_byte_channel_accounts_framed_bytes(self, rng):
        record = data_record(rng.normal(size=16))
        channel = ByteChannel()
        channel.put(record)
        assert channel.bytes_transferred == len(frame_record(record))


@pytest.fixture(scope="module")
def station_corpus():
    rng = np.random.default_rng(21)
    builder = ClipBuilder(sample_rate=SAMPLE_RATE, duration=5.0)
    return [
        builder.build(["NOCA", "TUTI"], rng, songs_per_species=1, station_id=f"pole-{i}")
        for i in range(3)
    ]


@pytest.fixture(scope="module")
def trained_builder():
    rng = np.random.default_rng(3)
    meso = MesoClassifier()
    builder = (
        AcousticPipeline().extract(FAST_EXTRACTION).features(use_paa=True).classify(meso)
    )
    pipe = builder.build()
    for code in ("NOCA", "TUTI"):
        for _ in range(3):
            song = get_species(code).render(SAMPLE_RATE, rng)
            for vector in pipe.patterns_for(song):
                meso.partial_fit(vector, code)
    return builder


@pytest.fixture(scope="module")
def batch_reference(trained_builder, station_corpus):
    pipe = trained_builder.build()
    ensembles, labels, patterns = [], [], []
    for clip in station_corpus:
        result = pipe.run(clip)
        ensembles.extend(result.ensembles)
        labels.extend(result.labels)
        patterns.extend(result.patterns)
    return ensembles, labels, patterns


def assert_same_results(reference, result) -> None:
    ensembles, labels, patterns = reference
    assert len(result.ensembles) == len(ensembles)
    for a, b in zip(ensembles, result.ensembles):
        assert a.start == b.start and a.end == b.end
        np.testing.assert_array_equal(a.samples, b.samples)
    assert labels == result.labels
    for a, b in zip(patterns, result.patterns):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)


class TestProcessTransportParity:
    """The acceptance criterion: process fabric ≡ simulated fabric ≡ batch."""

    @pytest.mark.parametrize("fan_out", [1, 2, 4])
    def test_process_backend_is_bit_identical(
        self, trained_builder, station_corpus, batch_reference, fan_out
    ):
        simulated = deploy_clips_via_river(
            trained_builder, station_corpus, backend="simulated", fan_out=fan_out, hosts=3
        )
        process = deploy_clips_via_river(
            trained_builder,
            station_corpus,
            backend="process",
            fan_out=fan_out,
            hosts=3,
            stall_timeout=30.0,
        )
        assert_same_results(batch_reference, simulated)
        assert_same_results(batch_reference, process)

    def test_co_located_segments_share_one_process(
        self, trained_builder, station_corpus, batch_reference
    ):
        """One host = one worker, queue channels inside: still identical."""
        process = deploy_clips_via_river(
            trained_builder,
            station_corpus,
            backend="process",
            fan_out=2,
            hosts=1,
            stall_timeout=30.0,
        )
        assert_same_results(batch_reference, process)

    def test_killed_worker_raises_placement_error(self, trained_builder, station_corpus):
        """A SIGKILLed worker surfaces as PlacementError naming the stranded
        segment — never a hang (bounded by the deployment's stall timeout)."""
        segments = split_into_segments(trained_builder.to_river())
        names = [segment.name for segment in segments]
        # Everything on host-a except the tail stage, so the victim worker
        # stays alive until END_OF_STREAM reaches it.
        placement = {name: "host-a" for name in names}
        placement[names[-1]] = "host-b"
        deployment = ProcessDeployment(
            segments, placement, stall_timeout=15.0, connect_timeout=10.0
        )
        killed: list[int] = []

        def kill_tail_worker(record) -> None:
            if not killed:
                victim = deployment.processes["host-b"]
                os.kill(victim.pid, signal.SIGKILL)
                killed.append(victim.pid)

        with pytest.raises(PlacementError) as error:
            deployment.run(
                ClipSource(station_corpus, record_size=4096).generate(),
                on_output=kill_tail_worker,
            )
        assert killed, "the fault was never injected"
        message = str(error.value)
        assert "host-b" in message
        assert names[-1] in message  # the stranded segment is identified
        assert "signal" in message


class TestTransportFaults:
    def test_killed_middle_worker_never_hangs(self, trained_builder, station_corpus):
        """Killing an upstream worker severs its outbound socket; the
        deployment still terminates with PlacementError naming the host."""
        segments = split_into_segments(trained_builder.to_river())
        names = [segment.name for segment in segments]
        placement = {name: "host-tail" for name in names}
        placement[names[0]] = "host-head"
        deployment = ProcessDeployment(
            segments, placement, stall_timeout=15.0, connect_timeout=10.0
        )
        killed: list[int] = []

        def kill_head_worker(record) -> None:
            if not killed:
                victim = deployment.processes["host-head"]
                os.kill(victim.pid, signal.SIGKILL)
                killed.append(victim.pid)

        start = time.monotonic()
        with pytest.raises(PlacementError, match="host-head"):
            deployment.run(
                ClipSource(station_corpus, record_size=4096).generate(),
                on_output=kill_head_worker,
            )
        assert killed, "the fault was never injected"
        # Bounded: detection must not wait out several stall windows.
        assert time.monotonic() - start < 60.0

    def test_alternating_hosts_deliver_a_finished_segments_tail(self):
        """h0→h1→h0→h1, the placement every fan-out plan produces: p0
        finishes with frames still queued on its socket while p2, on the
        same host, waits (via h1) for exactly those frames.  The payload
        overruns the kernel socket buffers, so without the per-round drain
        in ``ProcessHost._pump`` this stalls (``segments p2 made no
        progress``)."""
        segments = [
            PipelineSegment(f"p{i}", Pipeline([PassThrough()], name=f"p{i}"))
            for i in range(4)
        ]
        placement = {"p0": "h0", "p1": "h1", "p2": "h0", "p3": "h1"}
        records = [
            data_record(np.full(1 << 15, float(i)), sequence=i) for i in range(120)
        ]  # 120 x 256 KiB
        outputs = ProcessDeployment(segments, placement, stall_timeout=5.0).run(
            ensure_end_of_stream(records)
        )
        assert len(outputs) == len(records) + 1
        for a, b in zip(records, outputs):
            assert_records_equal(a, b)

    def test_worker_stall_names_the_stuck_segments(self):
        """A stall detected inside a worker's pump blames the segments that
        made no progress, not ``'<startup>'``."""
        segments = [
            PipelineSegment("swallow", Pipeline([SubtypeFilter([])], name="swallow")),
            PipelineSegment("starved", Pipeline([PassThrough()], name="starved")),
        ]
        placement = {"swallow": "h0", "starved": "h1"}

        def trickle():
            # Keeps the parent and h0 busy well past h1's stall window.
            for sequence in range(200):
                yield data_record(np.zeros(4), sequence=sequence)
                time.sleep(0.01)

        with pytest.raises(PlacementError) as error:
            ProcessDeployment(segments, placement, stall_timeout=0.5).run(trickle())
        message = str(error.value)
        assert "host 'h1' failed in segment 'starved'" in message
        assert "segments starved made no progress" in message
        assert "<startup>" not in message

    def test_operator_crash_is_blamed_on_the_segment_being_stepped(self):
        """An operator raising inside a worker is reported against the
        segment whose turn it was, not the host's first or last one."""
        from repro.river import FaultInjector

        segments = [
            PipelineSegment("head", Pipeline([PassThrough()], name="head")),
            PipelineSegment(
                "crashy", Pipeline([FaultInjector(crash_after=3)], name="crashy")
            ),
            PipelineSegment("tail", Pipeline([PassThrough()], name="tail")),
        ]
        placement = {"head": "h0", "crashy": "h0", "tail": "h1"}
        records = [data_record(np.zeros(4), sequence=i) for i in range(10)]
        with pytest.raises(PlacementError) as error:
            ProcessDeployment(segments, placement, stall_timeout=5.0).run(
                ensure_end_of_stream(records)
            )
        message = str(error.value)
        assert "host 'h0' failed in segment 'crashy'" in message
        assert "SegmentCrash" in message

    def test_a_deployment_can_run_twice(self):
        """Regression: the second ``run()`` polled the first run's closed
        control pipes (raw ``OSError: handle is closed``)."""
        segments = [
            PipelineSegment(f"p{i}", Pipeline([PassThrough()], name=f"p{i}"))
            for i in range(4)
        ]
        placement = {"p0": "h0", "p1": "h1", "p2": "h0", "p3": "h1"}
        records = [data_record(np.full(8, float(i)), sequence=i) for i in range(20)]
        deployment = ProcessDeployment(segments, placement, stall_timeout=5.0)
        first = deployment.run(ensure_end_of_stream(records))
        second = deployment.run(ensure_end_of_stream(records))
        assert len(first) == len(second) == len(records) + 1
        for a, b in zip(first, second):
            assert_records_equal(a, b)

    def test_removed_fabric_options_are_type_errors(self, trained_builder):
        segment = PipelineSegment("p", Pipeline([PassThrough()], name="p"))
        for removed in ("channel_capacity", "batch_size", "start_method"):
            with pytest.raises(TypeError):
                ProcessDeployment([segment], {"p": "h"}, **{removed: 1})
        for removed in ("loopback", "channel_capacity", "batch_size"):
            with pytest.raises(TypeError):
                HostPlan(host="h", entries=(), **{removed: 1})
        for removed in ("channel_capacity", "sample_rate"):
            with pytest.raises(TypeError):
                deploy_clips_via_river(trained_builder, [], **{removed: 1})

    def test_missing_placement_rejected(self, trained_builder):
        segments = split_into_segments(trained_builder.to_river())
        with pytest.raises(PlacementError, match=segments[-1].name):
            ProcessDeployment(segments, {segments[0].name: "host-a"})

    def test_deploy_rejects_unknown_backend(self, trained_builder, station_corpus):
        with pytest.raises(ValueError, match="backend"):
            deploy_clips_via_river(trained_builder, station_corpus, backend="quantum")


class TestSchedulerPlanIntegration:
    def test_replica_groups_spread_across_hosts(self, trained_builder):
        segments = split_into_segments(trained_builder.to_river(fan_out={"features": 3}))
        groups = replica_groups(segments)
        replicas = [name for name in groups if groups[name] == "features"]
        assert len(replicas) == 3
        from repro.river import Host, StationScheduler

        scheduler = StationScheduler(
            hosts={f"h{i}": Host(f"h{i}", speed=1000.0) for i in range(3)}
        )
        plan = scheduler.plan(segments, groups)
        assert set(plan) == {segment.name for segment in segments}
        assert len({plan[name] for name in replicas}) == 3  # all distinct hosts
