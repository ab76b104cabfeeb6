"""The pull-based corpus worker: claim → run → persist → report, repeat.

``python -m repro.jobs work --url http://host:port`` (or
:class:`JobWorker` in code) drains work units from a
:class:`~repro.jobs.service.LedgerService` control plane.  Each claimed
item names its source (a WAV path the worker can reach — shared
filesystem or rsync'd mirror) and its store recording name; the worker
runs its pipeline on the source, optionally persists the result to its
*own* store (flushed before the done-report, so ``done`` means durable),
and reports the outcome.

While an item runs, a daemon thread heart-beats its lease at a third of
the lease interval; a worker that dies mid-item simply stops beating and
the control plane lapses the row back to the pool.  A 409 from the
control plane (the lease already lapsed and someone else took the row)
makes the worker drop the item silently — its work is discarded, not
double-reported.  A failed persist is a store failure, not an item
failure: the worker reports the attempt failed (``persist failed: …``),
flushes nothing more from its writer and stops with :class:`WorkerError`,
exactly as the in-process runner stops (see
:func:`repro.jobs.executor.persist_item`).

Per-worker stores are intentionally separate; merging them into one
archive is the store compaction story (see ROADMAP), not the worker's.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request

from ..pipeline.builder import AcousticPipeline
from ..pipeline.executor import stored_recordings
from ..store.backends import StoreError
from .executor import drain_writer, partial_write_reason, persist_item

__all__ = ["JobWorker", "WorkerError", "ControlPlaneConflict"]


class WorkerError(RuntimeError):
    """The control plane rejected a request or became unreachable, or the
    worker's store failed to persist an item."""


class ControlPlaneConflict(WorkerError):
    """HTTP 409: the ledger's state moved on without us (lapsed lease)."""


class JobWorker:
    """Drain pipeline work units from a ledger control plane."""

    def __init__(
        self,
        url: str,
        pipeline,
        store=None,
        worker_id: str | None = None,
        sample_rate: int | None = None,
        poll: float = 1.0,
        timeout: float = 30.0,
    ) -> None:
        self.url = url.rstrip("/")
        self.pipeline = (
            pipeline.build() if isinstance(pipeline, AcousticPipeline) else pipeline
        )
        self.store = store
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.sample_rate = sample_rate
        self.poll = float(poll)
        self.timeout = float(timeout)
        self.completed = 0
        self.failed = 0

    # -- main loop -------------------------------------------------------------

    def run(self, max_items: int | None = None) -> int:
        """Pull and process work until the ledger settles (or ``max_items``).

        Returns the number of items this worker completed.  A failed persist
        (full disk, bad shard) is reported as that item's failed attempt and
        then stops the worker with :class:`WorkerError`, as it stops the
        in-process runner: every further persist would hit the same store.
        """
        with drain_writer(self.store) as writer:
            while max_items is None or (self.completed + self.failed) < max_items:
                reply = self._post("/claim", {"worker": self.worker_id})
                item = reply.get("item")
                if item is None:
                    if reply.get("settled"):
                        break
                    time.sleep(min(float(reply.get("retry_after", self.poll)), self.poll))
                    continue
                self._process(item, float(reply.get("lease", 60.0)), writer)
        return self.completed

    def _process(self, item: dict, lease: float, writer) -> None:
        index, recording = int(item["index"]), item["recording"]
        beat = _Heartbeat(self, index, lease)
        beat.start()

        def fail(reason: str) -> None:
            beat.stop()
            self.failed += 1
            try:
                self._post("/fail", {"worker": self.worker_id, "index": index, "error": reason})
            except ControlPlaneConflict:
                pass  # lease lapsed first; the ledger already charged it

        try:
            result = None
            if not _already_persisted(writer, recording):
                result = self.pipeline.run(item["source"], sample_rate=self.sample_rate)
        except Exception as exc:
            fail(f"{type(exc).__name__}: {exc}")
            return
        if result is not None and writer is not None:
            try:
                persist_item(writer, recording, item["source"], result, fail)
            except Exception as exc:
                raise WorkerError(
                    f"failed to persist item {index} ({recording!r}) to the store at "
                    f"{writer.path}: {type(exc).__name__}: {exc}; stopping"
                ) from exc
        beat.stop()
        try:
            self._post("/done", {"worker": self.worker_id, "index": index})
        except ControlPlaneConflict:
            # Someone else holds (or finished) the row: our copy of the
            # work is discarded, never double-counted.
            self.failed += 1
            return
        self.completed += 1

    # -- plumbing --------------------------------------------------------------

    def _post(self, path: str, payload: dict) -> dict:
        data = json.dumps(payload).encode()
        request = urllib.request.Request(
            self.url + path,
            data=data,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read() or b"{}")
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read() or b"{}").get("error", "")
            except (ValueError, OSError):  # pragma: no cover - defensive
                pass
            if exc.code == 409:
                raise ControlPlaneConflict(detail or str(exc)) from exc
            raise WorkerError(
                f"control plane rejected {path}: HTTP {exc.code} {detail}"
            ) from exc
        except urllib.error.URLError as exc:
            raise WorkerError(
                f"control plane unreachable at {self.url + path}: {exc.reason}"
            ) from exc


def _already_persisted(writer, recording: str) -> bool:
    """True when the store holds ``recording`` complete: its last holder
    flushed it and died before reporting, so report it done, as the ledgered
    runner adopts such a row.  A partial one fails the item towards
    quarantine: the write-once store would refuse it anyway."""
    complete, partial = stored_recordings(writer)
    if recording in partial:
        raise StoreError(partial_write_reason(recording))
    return recording in complete


class _Heartbeat(threading.Thread):
    """Renew one claimed row's lease until stopped.

    Heartbeat failures are swallowed: if the lease already lapsed the
    done/fail report will hit the 409 and the worker handles it there —
    raising from a daemon thread would help no one.
    """

    def __init__(self, worker: JobWorker, index: int, lease: float) -> None:
        super().__init__(daemon=True)
        self.worker = worker
        self.index = index
        self.interval = max(lease / 3.0, 0.05)
        # Not named _stop: Thread itself has a private _stop method.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                self.worker._post(
                    "/heartbeat",
                    {"worker": self.worker.worker_id, "index": self.index},
                )
            except WorkerError:
                return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2)
