"""Channels connecting pipeline operators and segments.

Three channel flavours are provided:

* :class:`QueueChannel` — an in-process FIFO used between operators running
  in the same segment / process.
* :class:`ByteChannel` — a FIFO that serialises records to the wire format
  on ``put`` and deserialises on ``get``; every record crosses the same code
  path it would on a real network link, so serialization bugs surface in
  local runs too.
* :class:`SimulatedLinkChannel` — a byte channel with a simulated network
  link in front of it: per-record latency from bandwidth and propagation
  delay, optional random loss, and an optional hard failure time (used by
  the fault-injection tests).

All channels share a tiny interface: ``put(record)``, ``get()`` returning a
record or ``None`` when nothing is available, ``close()`` and ``closed``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ChannelClosed, ChannelFull
from .records import Record
from .serialization import frame_record_views, pack_record, unframe_record, unpack_record

__all__ = ["Channel", "QueueChannel", "ByteChannel", "SimulatedLinkChannel", "LinkStats"]

#: Records a deployed inter-segment channel holds before ``put`` raises
#: :class:`ChannelFull` — one depth for queue and socket edges alike, so
#: backpressure sets in at the same point on the simulated and process fabrics.
CHANNEL_CAPACITY = 256


class Channel:
    """Base channel interface."""

    def put(self, record: Record) -> None:
        raise NotImplementedError

    def get(self) -> Record | None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def empty(self) -> bool:
        return len(self) == 0


@dataclass
class QueueChannel(Channel):
    """In-process FIFO channel, unbounded by default.

    With ``capacity`` set, ``put`` raises :class:`ChannelFull` once the
    backlog reaches the bound.  Bounded channels give deployments real
    backpressure: a fan-out replica that cannot keep up fills its input
    channel instead of silently buffering without limit, which is what the
    :class:`~repro.river.placement.QoSMonitor` backlog thresholds and the
    :class:`~repro.river.placement.StationScheduler` load model assume.
    """

    _queue: deque = field(default_factory=deque, repr=False)
    _closed: bool = field(default=False, repr=False)
    #: Maximum number of buffered records (None = unbounded).
    capacity: int | None = None

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")

    def put(self, record: Record) -> None:
        if self._closed:
            raise ChannelClosed("cannot put on a closed channel")
        if self.capacity is not None and len(self._queue) >= self.capacity:
            raise ChannelFull(
                f"channel backlog reached its capacity of {self.capacity} records"
            )
        self._queue.append(record)

    def get(self) -> Record | None:
        if not self._queue:
            if self._closed:
                raise ChannelClosed("channel is closed and drained")
            return None
        return self._queue.popleft()

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self._queue)


@dataclass
class ByteChannel(Channel):
    """FIFO channel that round-trips every record through the wire format.

    Records are encoded with the exact stream framing real socket transports
    use (:func:`~repro.river.serialization.frame_record_views` — the same
    view-based encoder :class:`~repro.river.transport.SocketChannel` hands
    to ``sendmsg``, length prefix included, joined here because an
    in-process queue needs one contiguous blob), so a record crossing a
    ``ByteChannel`` exercises the same bytes it would crossing a socket.
    """

    _queue: deque = field(default_factory=deque, repr=False)
    _closed: bool = field(default=False, repr=False)
    bytes_transferred: int = 0

    def put(self, record: Record) -> None:
        if self._closed:
            raise ChannelClosed("cannot put on a closed channel")
        blob = b"".join(frame_record_views(record))
        self.bytes_transferred += len(blob)
        self._queue.append(blob)

    def get(self) -> Record | None:
        if not self._queue:
            if self._closed:
                raise ChannelClosed("channel is closed and drained")
            return None
        record, _ = unframe_record(self._queue.popleft())
        return record

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self._queue)


@dataclass
class LinkStats:
    """Counters describing what a simulated link did to its traffic."""

    records_sent: int = 0
    records_dropped: int = 0
    bytes_sent: int = 0
    #: Simulated seconds spent transmitting (bytes / bandwidth + latency).
    transfer_seconds: float = 0.0


@dataclass
class SimulatedLinkChannel(Channel):
    """A lossy, bandwidth-limited link between two pipeline segments.

    The link does not sleep; it accounts simulated transfer time in
    :class:`LinkStats` so deployments can reason about throughput without
    wall-clock delays.  Losses are deterministic for a given seed.
    """

    #: Link bandwidth in bytes per simulated second (802.11b ~ 680 KB/s).
    bandwidth: float = 680_000.0
    #: Fixed per-record latency in simulated seconds.
    latency: float = 0.005
    #: Probability that a record is silently dropped in transit.
    loss_rate: float = 0.0
    #: Simulated time after which the link is hard-down (None = never).
    fail_after: float | None = None
    seed: int = 0
    stats: LinkStats = field(default_factory=LinkStats)
    _queue: deque = field(default_factory=deque, repr=False)
    _closed: bool = field(default=False, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if not (0.0 <= self.loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        self._rng = np.random.default_rng(self.seed)

    @property
    def failed(self) -> bool:
        """True once the link's simulated failure time has passed."""
        return self.fail_after is not None and self.stats.transfer_seconds >= self.fail_after

    def put(self, record: Record) -> None:
        if self._closed:
            raise ChannelClosed("cannot put on a closed channel")
        if self.failed:
            raise ChannelClosed("simulated link is down")
        blob = pack_record(record)
        self.stats.transfer_seconds += self.latency + len(blob) / self.bandwidth
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            self.stats.records_dropped += 1
            return
        self.stats.records_sent += 1
        self.stats.bytes_sent += len(blob)
        self._queue.append(blob)

    def get(self) -> Record | None:
        if not self._queue:
            if self._closed:
                raise ChannelClosed("channel is closed and drained")
            return None
        record, _ = unpack_record(self._queue.popleft())
        return record

    def close(self) -> None:
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self._queue)
