"""Channels connecting pipeline operators and segments.

Two channel flavours are provided:

* :class:`QueueChannel` — an in-process FIFO used between operators running
  in the same segment / process.
* :class:`ByteChannel` — a FIFO that serialises records to the wire format
  on ``put`` and deserialises on ``get``; every record crosses the same code
  path it would on a real network link, so serialization bugs surface in
  local runs too.

All channels share a tiny interface: ``put(record)``, ``get()`` returning a
record or ``None`` when nothing is available, ``close()`` and ``closed``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import ChannelClosed, ChannelFull
from .records import Record
from .serialization import frame_record_views, unframe_record

__all__ = ["Channel", "QueueChannel", "ByteChannel"]

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
