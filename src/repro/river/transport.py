"""Real multi-process river transport: OS-process segment hosts over sockets.

:mod:`repro.river.placement` runs pipeline segments on *simulated* hosts —
cooperative objects stepped round-robin inside one Python process.  This
module is the same deployment model on a real fabric:

* :class:`SocketChannel` — the :class:`~repro.river.channels.Channel`
  protocol over a connected TCP socket, using the shared length-prefixed
  record framing (:func:`~repro.river.serialization.frame_record_views` —
  buffer-protocol views handed to vectored ``sendmsg`` sends, ``recv_into``
  on a reusable buffer on the way back in, no intermediate payload copies).
  Sends are non-blocking with a bounded in-flight buffer, so
  :class:`~repro.river.errors.ChannelFull` backpressure survives the wire
  exactly as it does on a bounded :class:`~repro.river.channels.
  QueueChannel`; a lost peer surfaces as :class:`~repro.river.errors.
  ChannelSendError` / :class:`~repro.river.errors.ChannelReceiveError`,
  never as a hang.
* :class:`ProcessHost` — the worker-side runtime.  It receives pickled
  :class:`~repro.river.pipeline.PipelineSegment` specs, rebuilds their
  operators, wires inbound/outbound channels (sockets across process
  boundaries, plain queues between co-located segments), places them on a
  one-host :class:`~repro.river.placement.Deployment` and steps that until
  every segment is done — the simulated fabric's scheduler, on sockets.
* :class:`ProcessDeployment` — the parent-side runner.  It takes the output
  of :func:`~repro.river.pipeline.split_into_segments` plus a placement
  (segment name → host name, e.g. from a :class:`~repro.river.placement.
  StationScheduler`), launches one OS process per host, feeds the source
  records in and collects the final segment's output.  Worker death or a
  severed link raises :class:`~repro.river.errors.PlacementError` naming
  the stranded segments within a bounded timeout.

The fabric is *transparent*: the record stream collected from a
``ProcessDeployment`` is bit-identical to the one produced by the simulated
:class:`~repro.river.placement.Deployment` and by an in-process
``Pipeline.run`` over the same operators (the ``TestProcessTransportParity``
suite locks this down).  That transparency extends to *fragmented* ensemble
scopes (``ExtractStage(emit="fragments")``): their
:data:`~repro.river.records.Subtype.FRAGMENT` records are ordinary data
records over the shared framing, so a still-open ensemble streams across a
socket slice by slice — no host ever needs to hold a whole ensemble for the
extract/feature stages (``tests/test_fragments.py`` asserts process-river
fragment parity for fan-out k in {1, 2, 4}).
"""

from __future__ import annotations

import multiprocessing
import pickle
import socket
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .channels import CHANNEL_CAPACITY, Channel, QueueChannel
from .errors import (
    ChannelClosed,
    ChannelFull,
    ChannelReceiveError,
    ChannelSendError,
    PlacementError,
)
from .pipeline import PipelineSegment
from .placement import Deployment, Host
from .records import Record, RecordType
from .serialization import RecordFrameDecoder, frame_record_views

__all__ = [
    "SocketChannel",
    "ProcessHost",
    "ProcessDeployment",
    "HostPlan",
    "SegmentEntry",
    "transport_available",
]

LOOPBACK = "127.0.0.1"

#: Sentinel host name for the deployment's own endpoints (feed / collect).
PARENT = "__parent__"

#: Seconds slept when a pump loop makes no progress.
_IDLE_SLEEP = 0.001

#: recv size for socket channels (also the reusable recv_into buffer size).
_RECV_SIZE = 1 << 16

#: Buffers handed to one sendmsg call.  Far below any platform's IOV_MAX
#: (1024 on Linux) while still coalescing dozens of queued frames into a
#: single syscall.
_SENDMSG_MAX_BUFFERS = 64


def transport_available() -> bool:
    """True when the process transport can run here (loopback TCP binds).

    The transport itself works with any multiprocessing start method; tests
    use this to skip gracefully inside sandboxes without a usable loopback
    interface.
    """
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.bind((LOOPBACK, 0))
        finally:
            probe.close()
    except OSError:
        return False
    return True


def _start_method() -> str:
    """Prefer fork (cheap, inherits nothing we rely on); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


class SocketChannel(Channel):
    """The channel protocol over a connected stream socket.

    ``put`` frames the record with :func:`~repro.river.serialization.
    frame_record_views` — a small head buffer plus a memoryview straight
    over the payload array, no intermediate copy — and sends without
    blocking; frames the kernel refuses are held in an in-flight buffer of
    at most ``capacity`` records — once it is full, ``put`` raises
    :class:`ChannelFull`, giving producers the same backpressure contract
    as a bounded queue.  Queued frames drain through ``socket.sendmsg``
    (vectored I/O — one syscall covers up to ``_SENDMSG_MAX_BUFFERS``
    buffers across many frames), falling back to per-buffer ``send`` loops
    where ``sendmsg`` is unavailable.  ``get`` reads via ``recv_into`` on a
    preallocated reusable buffer, reassembles frames with
    :class:`RecordFrameDecoder` and returns one record (or ``None`` when no
    complete frame has arrived).  ``TCP_NODELAY`` is set on TCP sockets so
    small control / OpenScope / CloseScope frames are not Nagle-delayed
    behind unacked data.

    Failure handling mirrors ``SocketChunkSource``'s never-hang contract:

    * peer reset / broken pipe on send → :class:`ChannelSendError`;
    * connection error on receive → :class:`ChannelReceiveError`;
    * EOF in the middle of a frame → :class:`ChannelReceiveError`;
    * clean EOF with everything drained → :class:`ChannelClosed` (exactly
      what a drained closed queue raises, so segments repair scopes the
      same way on both fabrics).
    """

    def __init__(
        self,
        sock: socket.socket,
        capacity: int | None = CHANNEL_CAPACITY,
        timeout: float = 10.0,
        label: str = "socket-channel",
        use_sendmsg: bool | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (e.g. an AF_UNIX pair in tests)
        self._sock = sock
        self.capacity = capacity
        self.timeout = timeout
        self.label = label
        if use_sendmsg is None:
            use_sendmsg = hasattr(sock, "sendmsg")
        self._sendmsg = sock.sendmsg if use_sendmsg else None
        #: One entry per queued frame: the frame's not-yet-sent buffer views.
        self._send_buffer: deque[list[memoryview]] = deque()
        self._decoder = RecordFrameDecoder()
        self._recv_buffer = bytearray(_RECV_SIZE)
        self._recv_view = memoryview(self._recv_buffer)
        self._inbox: deque[Record] = deque()
        self._eof = False
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.send_syscalls = 0
        self.recv_syscalls = 0

    # -- sending ---------------------------------------------------------------

    def _consume_sent(self, sent: int) -> None:
        """Drop ``sent`` bytes of queued frame views from the front."""
        while self._send_buffer:
            views = self._send_buffer[0]
            while views:
                head = views[0]
                # >= admits zero-length views at sent == 0, so a drained
                # frame is always popped rather than wedging the queue.
                if sent >= len(head):
                    sent -= len(head)
                    views.pop(0)
                else:
                    views[0] = head[sent:]
                    return
            self._send_buffer.popleft()
            if not sent:
                return

    def flush_nowait(self) -> bool:
        """Push buffered bytes into the socket without blocking.

        True when nothing is left to send.  ``put`` only drains on the
        producer's own calls, so whoever owns a channel whose producer has
        gone quiet (a finished segment) must keep calling this until it is.
        """
        while self._send_buffer:
            if self._sendmsg is not None:
                # Vectored send: coalesce the views of as many queued frames
                # as fit one iovec into a single syscall.
                buffers: list[memoryview] = []
                total = 0
                for views in self._send_buffer:
                    if buffers and len(buffers) + len(views) > _SENDMSG_MAX_BUFFERS:
                        break
                    for view in views:
                        buffers.append(view)
                        total += len(view)
                try:
                    sent = self._sendmsg(buffers)
                except (BlockingIOError, InterruptedError):
                    return False
                except OSError as exc:
                    raise ChannelSendError(f"{self.label}: peer lost mid-send: {exc}") from exc
                self.bytes_sent += sent
                self.send_syscalls += 1
                self._consume_sent(sent)
                if sent < total:
                    return False
            else:
                view = self._send_buffer[0][0]
                try:
                    sent = self._sock.send(view)
                except (BlockingIOError, InterruptedError):
                    return False
                except OSError as exc:
                    raise ChannelSendError(f"{self.label}: peer lost mid-send: {exc}") from exc
                self.bytes_sent += sent
                self.send_syscalls += 1
                self._consume_sent(sent)
                if sent < len(view):
                    return False
        return True

    def put(self, record: Record) -> None:
        if self._closed:
            raise ChannelClosed(f"{self.label}: cannot put on a closed channel")
        self.flush_nowait()
        if self.capacity is not None and len(self._send_buffer) >= self.capacity:
            raise ChannelFull(
                f"{self.label}: {len(self._send_buffer)} records in flight "
                f"reached the channel capacity of {self.capacity}"
            )
        self._send_buffer.append(frame_record_views(record))
        self.flush_nowait()

    def flush(self, timeout: float | None = None) -> None:
        """Block (bounded) until every buffered record reached the kernel.

        Raises :class:`ChannelSendError` if the peer stops reading for
        longer than the timeout — a stalled consumer must never turn into
        an indefinite hang.
        """
        deadline = time.monotonic() + (self.timeout if timeout is None else timeout)
        while not self.flush_nowait():
            if time.monotonic() > deadline:
                raise ChannelSendError(
                    f"{self.label}: peer stopped reading; "
                    f"{len(self._send_buffer)} records still unsent after "
                    f"{self.timeout if timeout is None else timeout:.1f}s"
                )
            time.sleep(_IDLE_SLEEP)

    # -- receiving -------------------------------------------------------------

    def _drain_socket(self) -> None:
        if self._eof:
            return
        # Stop reading once the inbox holds `capacity` records: the kernel
        # receive buffer then fills, TCP flow control pushes back on the
        # producer, its send buffer fills, and its `put` raises ChannelFull —
        # bounded backpressure end to end, not just on the send side.
        while self.capacity is None or len(self._inbox) < self.capacity:
            try:
                received = self._sock.recv_into(self._recv_buffer)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                raise ChannelReceiveError(
                    f"{self.label}: connection lost mid-stream: {exc}"
                ) from exc
            if not received:
                self._eof = True
                if self._decoder.pending_bytes:
                    raise ChannelReceiveError(
                        f"{self.label}: peer disconnected mid-record "
                        f"({self._decoder.pending_bytes} bytes of an "
                        "unfinished frame); the stream did not end on a "
                        "record boundary"
                    )
                return
            self.bytes_received += received
            self.recv_syscalls += 1
            self._inbox.extend(self._decoder.feed(self._recv_view[:received]))

    def get(self) -> Record | None:
        if self._inbox:
            return self._inbox.popleft()
        if not self._closed:
            self._drain_socket()
        if self._inbox:
            return self._inbox.popleft()
        if self._eof or self._closed:
            raise ChannelClosed(f"{self.label}: channel is closed and drained")
        return None

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Flush what the peer will still take, then close the socket."""
        if self._closed:
            return
        try:
            self.flush()
        except ChannelSendError:
            pass
        finally:
            self._closed = True
            try:
                self._sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed or (self._eof and not self._inbox)

    def __len__(self) -> int:
        return len(self._inbox) + len(self._send_buffer)


# -- worker-side plan ----------------------------------------------------------


@dataclass(frozen=True)
class SegmentEntry:
    """One segment hosted by a worker: its pickled spec plus channel wiring.

    ``inbound`` / ``outbound`` are ``(kind, edge_id)`` descriptors with kind
    ``"socket"`` (crosses a process boundary) or ``"queue"`` (both endpoint
    segments live on this host).
    """

    name: str
    payload: bytes
    inbound: tuple[str, str]
    outbound: tuple[str, str]


@dataclass(frozen=True)
class HostPlan:
    """Everything one worker process needs to run its segments."""

    host: str
    entries: tuple[SegmentEntry, ...]
    connect_timeout: float = 10.0
    stall_timeout: float = 60.0


class ProcessHost:
    """Worker-side runtime hosting one OS process worth of segments.

    Rebuilds each :class:`~repro.river.pipeline.PipelineSegment` from its
    pickled spec, binds a listener per inbound socket edge, reports the
    ports to the parent, connects its outbound edges once the parent sends
    the wiring, and places the segments on a one-host
    :class:`~repro.river.placement.Deployment`: its ``step_all`` is the
    scheduling turn and its ``unfinished()`` says who is not done.  Bytes
    crossing a socket count as movement too, and because a peer may still
    be working a stall is ``stall_timeout`` seconds without movement, not
    one idle round.  Any failure is reported back over the control pipe
    before the process exits non-zero, so the parent can name the failing
    segment instead of timing out blind.
    """

    def __init__(self, plan: HostPlan, conn) -> None:
        self.plan = plan
        self.conn = conn
        self.deployment = Deployment(hosts={plan.host: Host(plan.host)})
        self._sockets: list[SocketChannel] = []

    # -- handshake -------------------------------------------------------------

    def _edge_label(self, edge_id: str, role: str) -> str:
        return f"{edge_id} ({role} on host {self.plan.host!r})"

    def _wire(self) -> None:
        listeners: dict[str, socket.socket] = {}
        for entry in self.plan.entries:
            kind, edge_id = entry.inbound
            if kind == "socket":
                listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                listener.bind((LOOPBACK, 0))
                listener.listen(1)
                listener.settimeout(self.plan.connect_timeout)
                listeners[edge_id] = listener
        self.conn.send(
            ("ports", {edge_id: s.getsockname()[1] for edge_id, s in listeners.items()})
        )
        wiring = self._recv_control("wiring")
        channels: dict[str, Channel] = {}
        # Connect every outbound edge FIRST: all listeners (ours, other
        # workers', the parent's collector) exist before the wiring message
        # is sent, and a TCP connect succeeds as soon as the peer listens —
        # it never waits for accept().  Accepting first instead can deadlock
        # two workers whose segments feed each other.
        for entry in self.plan.entries:
            kind, edge_id = entry.outbound
            if kind != "socket" or edge_id in channels:
                continue
            try:
                sock = socket.create_connection(
                    wiring[edge_id], timeout=self.plan.connect_timeout
                )
            except OSError as exc:
                raise ChannelSendError(
                    f"could not connect {self._edge_label(edge_id, 'producer')}: {exc}"
                ) from exc
            channels[edge_id] = self._track(
                SocketChannel(
                    sock,
                    timeout=self.plan.stall_timeout,
                    label=self._edge_label(edge_id, "producer"),
                )
            )
        for edge_id, listener in listeners.items():
            try:
                conn, _ = listener.accept()
            except (socket.timeout, OSError) as exc:
                raise ChannelReceiveError(
                    f"no producer connected to {self._edge_label(edge_id, 'consumer')} "
                    f"within {self.plan.connect_timeout:.1f}s: {exc}"
                ) from exc
            finally:
                listener.close()
            channels[edge_id] = self._track(
                SocketChannel(
                    conn,
                    timeout=self.plan.stall_timeout,
                    label=self._edge_label(edge_id, "consumer"),
                )
            )
        for entry in self.plan.entries:
            segment: PipelineSegment = pickle.loads(entry.payload)
            segment.rewire(
                input_channel=self._channel(entry.inbound, channels),
                output_channel=self._channel(entry.outbound, channels),
            )
            self.deployment.place(segment, self.plan.host)

    def _track(self, channel: SocketChannel) -> SocketChannel:
        self._sockets.append(channel)
        return channel

    def _channel(self, descriptor: tuple[str, str], channels: dict[str, Channel]) -> Channel:
        kind, edge_id = descriptor
        if edge_id not in channels:
            if kind != "queue":
                raise PlacementError(f"unwired socket edge {edge_id!r}")
            # Co-located segments get the same bounded backpressure as a
            # socket edge; the consumer lives in this very worker, so the
            # producer's outbox throttling drains it, never deadlocks.
            channels[edge_id] = QueueChannel(capacity=CHANNEL_CAPACITY)
        return channels[edge_id]

    def _recv_control(self, expected: str):
        deadline = time.monotonic() + self.plan.connect_timeout
        while not self.conn.poll(0.05):
            if time.monotonic() > deadline:
                raise PlacementError(
                    f"host {self.plan.host!r}: no {expected!r} message from the "
                    f"deployment within {self.plan.connect_timeout:.1f}s"
                )
        kind, payload = self.conn.recv()
        if kind != expected:
            raise PlacementError(
                f"host {self.plan.host!r}: expected {expected!r} control "
                f"message, got {kind!r}"
            )
        return payload

    # -- pumping ---------------------------------------------------------------

    def _io_bytes(self) -> int:
        return sum(ch.bytes_sent + ch.bytes_received for ch in self._sockets)

    def _pump(self) -> list[str]:
        """Step until every segment is done or nothing moved for
        ``stall_timeout`` seconds; returns the segments still not done."""
        idle_deadline = time.monotonic() + self.plan.stall_timeout
        last_io = self._io_bytes()
        while True:
            moved = self.deployment.step_all()
            # A segment that finished with frames still queued never calls
            # put() again, and the blocking flush in run() waits for every
            # segment on this host — one of which may, via another host, be
            # waiting for exactly those frames.
            for channel in self._sockets:
                channel.flush_nowait()
            io_bytes = self._io_bytes()
            if io_bytes != last_io:
                moved += 1
                last_io = io_bytes
            stuck = self.deployment.unfinished()
            if not stuck or (not moved and time.monotonic() > idle_deadline):
                return stuck
            if moved:
                idle_deadline = time.monotonic() + self.plan.stall_timeout
            else:
                time.sleep(_IDLE_SLEEP)

    def run(self) -> None:
        """Worker entry point: wire, pump, flush, report."""
        # What an error is blamed on unless a segment was mid-step.
        blame = "<startup>"
        try:
            self._wire()
            blame = "<flush>"
            stuck = self._pump()
            if stuck:
                blame = ", ".join(stuck)
                raise PlacementError(
                    f"host {self.plan.host!r} stalled: segments {blame} made "
                    f"no progress for {self.plan.stall_timeout:.1f}s"
                )
            # Flush explicitly before closing: close() deliberately swallows
            # a failed flush (it is also the emergency-teardown path), but a
            # worker that could not deliver its tail records must report the
            # failure, not claim "done" over silently dropped output.  The
            # ChannelSendError's edge label names the segments involved.
            for channel in self._sockets:
                channel.flush()
            for channel in self._sockets:
                channel.close()
            segments = self.deployment.segments.values()
            self.conn.send(("done", {s.name: s.records_processed for s in segments}))
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            try:
                self.conn.send(
                    (
                        "error",
                        {
                            "host": self.plan.host,
                            "segment": self.deployment.stepping or blame,
                            "message": f"{type(exc).__name__}: {exc}",
                            "traceback": traceback.format_exc(),
                        },
                    )
                )
            except OSError:
                pass
            raise SystemExit(1) from exc
        finally:
            try:
                self.conn.close()
            except OSError:
                pass


def _process_host_main(plan_bytes: bytes, conn) -> None:
    """Top-level target for the worker processes (picklable under spawn)."""
    ProcessHost(pickle.loads(plan_bytes), conn).run()


# -- parent-side deployment ----------------------------------------------------


@dataclass
class _Edge:
    """One segment boundary: producer/consumer hosts plus its channel kind."""

    edge_id: str
    producer: str
    consumer: str

    @property
    def crosses(self) -> bool:
        return self.producer != self.consumer


@dataclass
class _Worker:
    host: str
    process: multiprocessing.process.BaseProcess
    conn: object
    segments: list[str]
    done: bool = False
    error: dict | None = None


class ProcessDeployment:
    """Run channel-wired pipeline segments on real OS processes.

    ``segments`` is the chain produced by :func:`~repro.river.pipeline.
    split_into_segments`; ``placement`` maps every segment name to a host
    name (one worker process per distinct host).  Consecutive segments
    placed on the same host talk over plain in-process
    :class:`~repro.river.channels.QueueChannel`\\ s; segment boundaries that
    cross hosts become TCP :class:`SocketChannel` links carrying the shared
    record framing.  The deployment itself feeds the source records into
    the first segment and collects the last segment's output.

    Failure contract (the reason this class exists beyond a demo): a worker
    that dies — killed, crashed, or unreachable — surfaces as
    :class:`~repro.river.errors.PlacementError` naming the dead host and
    its stranded segments within ``stall_timeout`` seconds.  ``run`` never
    hangs on a silent fabric.
    """

    def __init__(
        self,
        segments: Iterable[PipelineSegment],
        placement: Mapping[str, str],
        *,
        connect_timeout: float = 10.0,
        stall_timeout: float = 60.0,
    ) -> None:
        self.segments = list(segments)
        if not self.segments:
            raise PlacementError("a process deployment needs at least one segment")
        self.placement = dict(placement)
        missing = [s.name for s in self.segments if s.name not in self.placement]
        if missing:
            raise PlacementError(
                f"placement is missing hosts for segments: {', '.join(missing)}"
            )
        self.connect_timeout = connect_timeout
        self.stall_timeout = stall_timeout
        #: host name -> live worker process (populated by :meth:`run`; tests
        #: use it to kill a specific worker mid-stream).
        self.processes: dict[str, multiprocessing.process.BaseProcess] = {}
        self.events: list[tuple[str, str]] = []
        self._workers: list[_Worker] = []
        self._feed: SocketChannel | None = None
        self._collect: SocketChannel | None = None
        self._collect_listener: socket.socket | None = None

    # -- topology --------------------------------------------------------------

    def _edges(self) -> list[_Edge]:
        edges = []
        for index in range(len(self.segments) + 1):
            producer = (
                PARENT if index == 0 else self.placement[self.segments[index - 1].name]
            )
            consumer = (
                PARENT
                if index == len(self.segments)
                else self.placement[self.segments[index].name]
            )
            upstream = "source" if index == 0 else self.segments[index - 1].name
            downstream = (
                "sink" if index == len(self.segments) else self.segments[index].name
            )
            edges.append(
                _Edge(f"edge[{upstream}->{downstream}]", producer, consumer)
            )
        return edges

    def _plans(self, edges: list[_Edge]) -> dict[str, HostPlan]:
        plans: dict[str, list[SegmentEntry]] = {}
        for index, segment in enumerate(self.segments):
            host = self.placement[segment.name]
            inbound, outbound = edges[index], edges[index + 1]
            plans.setdefault(host, []).append(
                SegmentEntry(
                    name=segment.name,
                    payload=pickle.dumps(segment),
                    inbound=(
                        "socket" if inbound.crosses else "queue",
                        inbound.edge_id,
                    ),
                    outbound=(
                        "socket" if outbound.crosses else "queue",
                        outbound.edge_id,
                    ),
                )
            )
        return {
            host: HostPlan(
                host=host,
                entries=tuple(entries),
                connect_timeout=self.connect_timeout,
                stall_timeout=self.stall_timeout,
            )
            for host, entries in plans.items()
        }

    # -- lifecycle -------------------------------------------------------------

    def _launch(self, plans: dict[str, HostPlan]) -> None:
        ctx = multiprocessing.get_context(_start_method())
        for host, plan in plans.items():
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_process_host_main,
                args=(pickle.dumps(plan), child_conn),
                name=f"river-host-{host}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            worker = _Worker(
                host=host,
                process=process,
                conn=parent_conn,
                segments=[entry.name for entry in plan.entries],
            )
            self._workers.append(worker)
            self.processes[host] = process
            self.events.append(("spawn", f"{host} (pid {process.pid}): {', '.join(worker.segments)}"))

    def _handshake(self, edges: list[_Edge]) -> None:
        wiring: dict[str, tuple[str, int]] = {}
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind((LOOPBACK, 0))
        listener.listen(1)
        listener.settimeout(self.connect_timeout)
        self._collect_listener = listener
        wiring[edges[-1].edge_id] = (LOOPBACK, listener.getsockname()[1])
        deadline = time.monotonic() + self.connect_timeout
        for worker in self._workers:
            while not worker.conn.poll(0.05):
                if not worker.process.is_alive():
                    self._fail(f"host {worker.host!r} died during startup")
                if time.monotonic() > deadline:
                    self._fail(
                        f"host {worker.host!r} did not report its ports within "
                        f"{self.connect_timeout:.1f}s"
                    )
            kind, payload = worker.conn.recv()
            if kind == "error":
                worker.error = payload
                self._fail(f"host {worker.host!r} failed during startup")
            for edge_id, port in payload.items():
                wiring[edge_id] = (LOOPBACK, port)
        for worker in self._workers:
            worker.conn.send(("wiring", wiring))
        # The parent produces the feed edge (edge 0) and consumes the
        # collect edge (the final one).  Connect the feed first — exactly
        # like the workers, producer connections never wait on accept().
        try:
            feed_sock = socket.create_connection(
                wiring[edges[0].edge_id], timeout=self.connect_timeout
            )
        except OSError as exc:
            self._fail(f"could not connect the record feed: {exc}")
        self._feed = SocketChannel(
            feed_sock,
            timeout=self.stall_timeout,
            label=f"{edges[0].edge_id} (deployment feed)",
        )
        try:
            collect_sock, _ = listener.accept()
        except (socket.timeout, OSError) as exc:
            self._fail(f"the final segment never connected its output: {exc}")
        finally:
            listener.close()
            self._collect_listener = None
        self._collect = SocketChannel(
            collect_sock,
            capacity=None,
            timeout=self.stall_timeout,
            label=f"{edges[-1].edge_id} (deployment collector)",
        )

    # -- failure handling ------------------------------------------------------

    def _read_control(self) -> None:
        """Fold every control message already in the pipes into the workers."""
        for worker in self._workers:
            while worker.conn.poll(0):
                try:
                    kind, payload = worker.conn.recv()
                except (EOFError, OSError):
                    break
                if kind == "done":
                    worker.done = True
                elif kind == "error":
                    worker.error = payload

    def _poll_workers(self) -> None:
        self._read_control()
        for worker in self._workers:
            if worker.error is not None:
                self._fail(f"host {worker.host!r} reported a failure")
            if not worker.done and not worker.process.is_alive():
                self._fail(f"host {worker.host!r} died mid-stream")

    def _fail(self, reason: str) -> None:
        """Compose and raise the PlacementError naming every stranded segment."""
        # A worker reports its error before its sockets close, so a failure
        # first seen on a link still finds the worker's own account here.
        self._read_control()
        details = []
        for worker in self._workers:
            process = worker.process
            if worker.error is not None:
                details.append(
                    f"host {worker.host!r} failed in segment "
                    f"{worker.error.get('segment')!r}: {worker.error.get('message')}"
                )
            elif not worker.done and not process.is_alive():
                exitcode = process.exitcode
                death = (
                    f"killed by signal {-exitcode}"
                    if exitcode is not None and exitcode < 0
                    else f"exit code {exitcode}"
                )
                details.append(
                    f"host {worker.host!r} ({death}) stranded segments: "
                    + ", ".join(worker.segments)
                )
        message = f"process deployment failed: {reason}"
        if details:
            message += "; " + "; ".join(details)
        self.events.append(("failure", message))
        raise PlacementError(message)

    def _cleanup(self) -> None:
        # Terminate workers FIRST: on the failure path a wedged-but-alive
        # worker would otherwise make the feed channel's closing flush spin
        # for a full extra stall window before giving up, doubling the
        # promised detection latency.  On the happy path every worker has
        # already exited and terminate() is a no-op.
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
        for worker in self._workers:
            worker.process.join(timeout=self.connect_timeout)
            if worker.process.is_alive():  # pragma: no cover - last resort
                worker.process.kill()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        for channel in (self._feed, self._collect):
            if channel is not None:
                try:
                    channel.close()
                except Exception:
                    pass
        if self._collect_listener is not None:
            self._collect_listener.close()
            self._collect_listener = None

    # -- execution -------------------------------------------------------------

    def run(
        self,
        records: Iterable[Record],
        on_output: Callable[[Record], None] | None = None,
    ) -> list[Record]:
        """Launch the fabric, stream ``records`` through it, return the output.

        ``records`` feeds the first segment (e.g. ``ClipSource.generate()``);
        the returned list is the final segment's complete output stream,
        ending with its END_OF_STREAM marker — byte-for-byte what the
        simulated deployment's last output channel would hold.  ``on_output``
        is invoked for every collected record as it arrives (used by the
        fault-injection tests to act mid-stream).
        """
        edges = self._edges()
        outputs: list[Record] = []
        # Per-run state starts clean: segments are pickled afresh by _plans
        # and the parent's copies are never stepped, so a deployment can run
        # again — but never against the previous run's workers and sockets.
        self._workers.clear()
        self.processes.clear()
        self._feed = self._collect = None
        try:
            self._launch(self._plans(edges))
            self._handshake(edges)
            source = iter(records)
            pending: Record | None = None
            feeding = True
            end_seen = False
            idle_deadline = time.monotonic() + self.stall_timeout
            while not end_seen:
                progressed = False
                self._poll_workers()
                while feeding:
                    if pending is None:
                        pending = next(source, None)
                        if pending is None:
                            feeding = False
                            try:
                                self._feed.close()
                            except ChannelSendError as exc:
                                self._fail(f"feed link broken at close: {exc}")
                            break
                    try:
                        self._feed.put(pending)
                    except ChannelFull:
                        break
                    except (ChannelSendError, ChannelClosed) as exc:
                        self._fail(f"feed link broken: {exc}")
                    pending = None
                    progressed = True
                while True:
                    try:
                        record = self._collect.get()
                    except ChannelClosed:
                        self._fail(
                            "the output stream ended before its END_OF_STREAM "
                            "marker"
                        )
                    except ChannelReceiveError as exc:
                        self._fail(f"collect link broken: {exc}")
                    if record is None:
                        break
                    outputs.append(record)
                    progressed = True
                    if on_output is not None:
                        on_output(record)
                    if record.record_type is RecordType.END_OF_STREAM:
                        end_seen = True
                        break
                if progressed:
                    idle_deadline = time.monotonic() + self.stall_timeout
                else:
                    if time.monotonic() > idle_deadline:
                        self._fail(
                            f"no records moved for {self.stall_timeout:.1f}s"
                        )
                    time.sleep(_IDLE_SLEEP)
            self._join_workers()
            self.events.append(("finished", f"{len(outputs)} records collected"))
            return outputs
        finally:
            self._cleanup()

    def _join_workers(self) -> None:
        """Wait (bounded) for every worker to exit cleanly after END_OF_STREAM."""
        deadline = time.monotonic() + self.stall_timeout
        for worker in self._workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
        self._poll_workers()
        for worker in self._workers:
            if worker.process.is_alive():
                self._fail(
                    f"host {worker.host!r} kept running after the stream ended"
                )
            if worker.error is not None or (
                not worker.done and worker.process.exitcode != 0
            ):
                self._fail(f"host {worker.host!r} did not finish cleanly")
