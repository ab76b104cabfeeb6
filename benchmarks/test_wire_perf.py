"""Performance gate for the zero-copy scatter-gather wire path.

Asserts that the buffer-protocol record framing keeps its measured
advantage over the copy-chain seed path it replaced — a same-box relative
comparison, so the gate is robust to how fast the machine itself is.  The
seed implementations (``tobytes`` + concatenation on send; ``del
buffer[:end]`` + double-copy decode on receive) live verbatim in
``tests/_seed_anchors.py`` as both the timing baseline and the
byte-identity anchor.  Each threshold is a named constant below, with the
ratio measured when the wire path landed (2026-08-08, one-core CI-class
container) as its reason.

Two workload mixes are measured, matching what a pumped river scope
carries:

* **large-FRAGMENT** — the firehose regime: FRAGMENT records with
  megabyte-class audio payloads, where every eliminated copy is a full
  payload memcpy.  Gated at ≥ 3× (the tentpole acceptance criterion).
* **small-control** — OpenScope/CloseScope/short-feature traffic, where
  JSON header work dominates both paths.  Gated only as a no-regression
  bound.

The syscall-coalescing test drives a real loopback socket pair under
backpressure and asserts queued frames drain in measurably fewer ``sendmsg``
syscalls than frames — the vectored-I/O half of the win.

Timing assertions are inherently noisy, so the gate only runs when
``PERF_GATE=1`` is set (CI runs it in the tier-2 perf-gate job alongside the
kernel gates; blocking on ``main``, advisory on fork PRs).  Each measurement
takes the best of several repeats to shed scheduler noise.
"""

from __future__ import annotations

import os
import socket
import time

import numpy as np
import pytest

from repro.river import (
    Record,
    RecordFrameDecoder,
    close_scope,
    data_record,
    fragment_record,
    frame_record_views,
    open_scope,
)
from repro.river.transport import SocketChannel, transport_available

from _seed_anchors import SeedRecordFrameDecoder, seed_frame_record

pytestmark = pytest.mark.skipif(
    os.environ.get("PERF_GATE") != "1",
    reason="perf gate only runs with PERF_GATE=1 (tier-2 CI job)",
)


def best_of(fn, repeats: int = 5, iters: int = 10) -> float:
    """Best mean-per-iteration over ``repeats`` timed batches."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - start) / iters)
    return best


# -- workloads ---------------------------------------------------------------


def large_fragment_records(count: int = 4, size: int = 1 << 18) -> list[Record]:
    """FRAGMENT records with 2 MiB float64 audio payloads (the firehose)."""
    rng = np.random.default_rng(0)
    return [
        fragment_record(
            rng.standard_normal(size), scope=1, sequence=index, context={"offset": index * size}
        )
        for index in range(count)
    ]


def small_control_records(count: int = 120) -> list[Record]:
    """The control-plane mix: open/close scopes plus short feature rows."""
    rng = np.random.default_rng(1)
    records: list[Record] = []
    for index in range(count // 3):
        records.append(
            open_scope(1, scope_type="scope_ensemble", sequence=3 * index, context={"start": index})
        )
        records.append(
            data_record(
                rng.standard_normal(24),
                subtype="features",
                scope=1,
                scope_type="scope_ensemble",
                sequence=3 * index + 1,
            )
        )
        records.append(close_scope(1, scope_type="scope_ensemble", sequence=3 * index + 2))
    return records


def wire_bytes(records: list[Record]) -> list[bytes]:
    """What actually crosses the socket for each record (both paths agree)."""
    return [b"".join(frame_record_views(record)) for record in records]


def seed_cycle(records: list[Record], wires: list[bytes]) -> int:
    """Frame + decode every record on the seed copy-chain path.

    The kernel transit (send copying userspace bytes out, recv copying them
    back in) costs the same on both paths, so it is elided from both: each
    cycle times the sender-side framing work plus the receiver-side decode
    of the pre-built wire bytes.
    """
    decoder = SeedRecordFrameDecoder()
    decoded = 0
    for record, wire in zip(records, wires):
        seed_frame_record(record)
        decoded += len(decoder.feed(wire))
    return decoded


def views_cycle(records: list[Record], wires: list[bytes]) -> int:
    """Frame + decode on the views path, kernel transit elided identically.

    ``frame_record_views`` is exactly what ``sendmsg`` consumes (the kernel
    gathers the iovec; no userspace join happens on the real path), and the
    decoder sees frame-aligned input just as ``recv_into`` hands it over.
    """
    decoder = RecordFrameDecoder()
    decoded = 0
    for record, wire in zip(records, wires):
        frame_record_views(record)
        decoded += len(decoder.feed(wire))
    return decoded


def assert_paths_byte_identical(records: list[Record]) -> None:
    for record in records:
        assert b"".join(frame_record_views(record)) == seed_frame_record(record)


# -- gates -------------------------------------------------------------------


# 23.3× at landing (20.1 ms → 0.86 ms per 4 × 2 MiB cycle); 3× is the wire
# path's acceptance criterion and leaves room for a loaded runner.
WIRE_LARGE_FRAGMENT_MIN_SPEEDUP = 3.0


def test_large_fragment_wire_speedup_holds():
    """The tentpole criterion: ≥ 3× framed-record throughput on large
    FRAGMENT payloads, byte-identical on the wire."""
    records = large_fragment_records()
    assert_paths_byte_identical(records)
    wires = wire_bytes(records)
    assert seed_cycle(records, wires) == len(records) == views_cycle(records, wires)

    new_time = best_of(lambda: views_cycle(records, wires))
    seed_time = best_of(lambda: seed_cycle(records, wires))
    speedup = seed_time / new_time
    payload_mb = records[0].payload.nbytes / 2**20
    assert speedup >= WIRE_LARGE_FRAGMENT_MIN_SPEEDUP, (
        f"large-FRAGMENT wire speedup regressed: {speedup:.2f}x < "
        f"{WIRE_LARGE_FRAGMENT_MIN_SPEEDUP}x "
        f"({payload_mb:.1f} MiB payloads; new {new_time * 1e3:.2f}ms, "
        f"seed {seed_time * 1e3:.2f}ms per cycle)"
    )


# 1.1× at landing (1299 µs → 1177 µs per 120-record cycle): JSON header work
# dominates both paths, so 0.8× is a no-regression bound with noise room.
WIRE_SMALL_CONTROL_MIN_SPEEDUP = 0.8


def test_small_control_wire_no_regression():
    """Header JSON dominates tiny frames on both paths; the views path must
    still never be slower than the copy chain it replaced."""
    records = small_control_records()
    assert_paths_byte_identical(records)
    wires = wire_bytes(records)

    new_time = best_of(lambda: views_cycle(records, wires))
    seed_time = best_of(lambda: seed_cycle(records, wires))
    speedup = seed_time / new_time
    assert speedup >= WIRE_SMALL_CONTROL_MIN_SPEEDUP, (
        f"small-control wire throughput regressed: {speedup:.2f}x < "
        f"{WIRE_SMALL_CONTROL_MIN_SPEEDUP}x "
        f"(new {new_time * 1e6:.1f}us, seed {seed_time * 1e6:.1f}us per cycle)"
    )


# 10.8 frames per sendmsg at landing (64-record scope behind a wedged 4 KiB
# SNDBUF); 2 still proves frames coalesce at all.
WIRE_MIN_FRAMES_PER_SYSCALL = 2.0


@pytest.mark.skipif(
    not transport_available(), reason="needs a bindable loopback interface"
)
@pytest.mark.skipif(
    not hasattr(socket.socket, "sendmsg"), reason="platform lacks sendmsg"
)
def test_syscalls_per_pumped_scope_coalesce():
    """Fewer syscalls per pumped scope: under backpressure, queued frames
    drain through vectored sends at several frames per syscall."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    client = socket.create_connection(listener.getsockname(), timeout=5.0)
    server, _ = listener.accept()
    listener.close()
    try:
        client.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sender = SocketChannel(client, capacity=None, label="scope-pump")
        rng = np.random.default_rng(2)
        # Wedge the kernel buffer, then pump one scope's worth of records.
        sender.put(data_record(rng.standard_normal(8192)))
        scope = [open_scope(1, sequence=0)]
        scope += [
            data_record(rng.standard_normal(64), scope=1, sequence=index)
            for index in range(1, 63)
        ]
        scope.append(close_scope(1, sequence=63))
        for record in scope:
            sender.put(record)
        queued = len(sender._send_buffer)
        before = sender.send_syscalls
        deadline = time.monotonic() + 10.0
        while sender._send_buffer:
            assert time.monotonic() < deadline, "drain never completed"
            server.recv(1 << 20)
            sender.flush_nowait()
        syscalls = sender.send_syscalls - before
        frames_per_syscall = queued / max(syscalls, 1)
        assert frames_per_syscall >= WIRE_MIN_FRAMES_PER_SYSCALL, (
            f"coalescing regressed: {frames_per_syscall:.1f} frames/syscall "
            f"({syscalls} syscalls for {queued} queued frames) < "
            f"{WIRE_MIN_FRAMES_PER_SYSCALL}"
        )
    finally:
        client.close()
        server.close()
