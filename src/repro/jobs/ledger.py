"""The durable corpus ledger: one row per corpus item, journaled to disk.

A :class:`Ledger` is a single file recording, for every item of a
corpus run, its lifecycle state plus the bookkeeping needed to resume,
retry and coordinate many workers:

``open``
    unclaimed — eligible for dispatch;
``busy``
    claimed by a worker, protected by a lease; when the lease expires
    without a heartbeat the row lapses back to ``open`` (the worker is
    presumed dead) and the lapse counts as one attempt;
``done``
    the item's result was collected *and* persisted — terminal;
``failed``
    an attempt raised; the row becomes claimable again once its
    exponential-backoff deadline (``not_before``) passes;
``quarantined``
    the item failed ``max_attempts`` times — terminal.  Quarantine
    isolates a poison item instead of aborting the whole run.

Each rule lives in one place.  Every row change is one transition step,
which sets the new state and the fields that state keeps (the holder and
lease of a ``busy`` row, the backoff deadline of a ``failed`` one) and
resets the rest.  Only the ``busy`` row's holder may report an attempt's
outcome (``mark_done``, ``mark_failed``, ``heartbeat``).  A spent attempt
— a reported failure, a lease lapse, a crash recovered by
``recover_busy`` — goes through one charge: quarantine at
``max_attempts``, else retry, and ``error`` records that attempt's own
reason, so it always names why the last charged attempt ended.

The file is a journal (schema version 2).  Line 1 is a compact JSON
header — the retry policy and every row as of the last compaction — and
each later line is one row's full state after a transition.  A mutation
appends the rows it changed in one ``os.write`` and ``fsync``s before
returning, so the file is never behind what a caller was told.  Replay is
idempotent; a torn last line (a killed write) is ignored, and a corrupt
earlier one is a :class:`LedgerError` naming it.  :meth:`Ledger.save`
compacts — the header alone, temp file + ``fsync`` + ``os.replace`` — at
creation and whenever the journal outgrows the header, so the file stays
within ~2× its compacted size and the bytes written are linear in
transitions.  Version 1 rewrote the whole file on every transition (3.7 ms
per save at 80 rows, quadratic in corpus size); a version-1 file still
opens and becomes version 2 at its first compaction.

The ledger knows nothing about pipelines or stores.  It is driven either
by the in-process runner (:func:`repro.jobs.run_corpus`) or by the HTTP
control plane (:mod:`repro.jobs.service`) handing work units to remote
pull-based workers.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = [
    "Ledger",
    "LedgerError",
    "LedgerRow",
    "STATES",
    "OPEN",
    "BUSY",
    "DONE",
    "FAILED",
    "QUARANTINED",
]

SCHEMA_VERSION = 2

OPEN = "open"
BUSY = "busy"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantined"

#: All row states; `done` and `quarantined` are terminal.
STATES = (OPEN, BUSY, DONE, FAILED, QUARANTINED)


class LedgerError(RuntimeError):
    """A ledger operation violated the state machine or the file is unusable."""


@dataclass
class LedgerRow:
    """One corpus item's durable state."""

    index: int
    source: str
    recording: str
    state: str = OPEN
    attempts: int = 0
    worker: str = ""
    updated: float = 0.0
    lease_expires: float = 0.0
    not_before: float = 0.0
    error: str = ""

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, QUARANTINED)


_ROW_KEYS = {f.name for f in fields(LedgerRow)}


def _load_row(raw, where: str) -> LedgerRow:
    """A row as the file stores it: exactly :class:`LedgerRow`'s keys, an
    integer ``index`` and a known ``state``, else a :class:`LedgerError`."""
    if not isinstance(raw, dict) or raw.keys() != _ROW_KEYS:
        got = sorted(raw) if isinstance(raw, dict) else type(raw).__name__
        raise LedgerError(f"{where} must hold exactly the keys {sorted(_ROW_KEYS)}, got {got}")
    if type(raw["index"]) is not int:
        raise LedgerError(f"{where} has a non-integer index {raw['index']!r}")
    if raw["state"] not in STATES:
        raise LedgerError(f"{where} (item {raw['index']}) has unknown state {raw['state']!r}")
    return LedgerRow(**raw)


def _write(path, data: bytes, flags: int) -> None:
    """Write ``data`` to ``path`` in one ``os.write``, then ``fsync``."""
    fd = os.open(path, flags, 0o644)
    try:
        if os.write(fd, data) != len(data):
            raise LedgerError(f"short write to ledger {path}")
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class LedgerConfig:
    """Retry policy, persisted in the ledger file so every process — the
    local runner, the serve control plane, a status check — applies the
    same rules to the same rows."""

    max_attempts: int = 3
    backoff_base: float = 1.0
    backoff_cap: float = 60.0
    lease: float = 60.0

    def backoff(self, attempts: int) -> float:
        """Exponential backoff for a row that has failed ``attempts`` times."""
        return min(self.backoff_base * (2.0 ** max(attempts - 1, 0)), self.backoff_cap)

    @classmethod
    def from_dict(cls, data: dict) -> "LedgerConfig":
        """The policy stored in a ledger file; a key missing from an older
        file takes the field's default."""
        return cls(
            **{f.name: type(f.default)(data[f.name]) for f in fields(cls) if f.name in data}
        )


class Ledger:
    """A file-backed, journaled corpus job ledger."""

    def __init__(self, path, rows: list[LedgerRow], config: LedgerConfig) -> None:
        self.path = Path(path)
        self.rows = rows
        self.config = config
        self._by_index = {row.index: row for row in rows}
        if len(self._by_index) != len(rows):
            raise LedgerError(f"ledger {self.path} contains duplicate item indices")
        #: Rows changed since the last write; header and journal bytes on disk
        #: (journal None: a version-1 or torn file, so the next write compacts).
        self._dirty: dict[int, LedgerRow] = {}
        self._header_bytes, self._journal_bytes = 0, None

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        path,
        sources: list[str],
        recordings: list[str] | None = None,
        config: LedgerConfig | None = None,
    ) -> "Ledger":
        """Create a fresh ledger with one ``open`` row per source."""
        path = Path(path)
        if path.exists():
            raise LedgerError(f"ledger already exists at {path}; open it instead")
        config = config or LedgerConfig()
        if recordings is None:
            from ..store.schema import recording_name

            recordings = [recording_name(i) for i in range(len(sources))]
        if len(recordings) != len(sources):
            raise LedgerError(
                f"recordings names {len(recordings)} must match sources {len(sources)}"
            )
        now = time.time()
        rows = [
            LedgerRow(
                index=i, source=str(src), recording=str(rec), state=OPEN, updated=now
            )
            for i, (src, rec) in enumerate(zip(sources, recordings))
        ]
        ledger = cls(path, rows, config)
        ledger.save()
        return ledger

    @classmethod
    def open(cls, path) -> "Ledger":
        """Load an existing ledger: its header with the journal replayed."""
        path = Path(path)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise LedgerError(f"no ledger at {path}") from None
        head, _, journal = data.partition(b"\n")
        try:
            header = json.loads(head)
            appendable = data.endswith(b"\n")  # a killed write leaves an unterminated tail
        except ValueError:
            try:  # version 1: the whole file is one indented document
                journal, header, appendable = b"", json.loads(data), False
            except ValueError as exc:
                raise LedgerError(f"ledger at {path} is not valid JSON: {exc}") from exc
        version = header.get("schema_version") if isinstance(header, dict) else None
        if version not in (1, SCHEMA_VERSION):
            raise LedgerError(f"ledger at {path} has schema version {version!r}; this "
                              f"reader speaks versions 1 and {SCHEMA_VERSION}")
        rows = [
            _load_row(raw, f"ledger at {path} header row {n}")
            for n, raw in enumerate(header.get("items", []))
        ]
        ledger = cls(path, rows, LedgerConfig.from_dict(header.get("config", {})))
        *lines, _ = journal.split(b"\n")  # the torn tail, if any, is ignored
        for number, line in enumerate(lines, start=2):
            try:
                raw = json.loads(line)
            except ValueError as exc:
                raise LedgerError(f"ledger at {path} line {number} is corrupt: {exc}") from exc
            row = _load_row(raw, f"ledger at {path} line {number}")
            vars(ledger.row(row.index)).update(vars(row))
        if appendable and version == SCHEMA_VERSION:
            ledger._header_bytes, ledger._journal_bytes = len(head) + 1, len(journal)
        return ledger

    @classmethod
    def open_or_create(
        cls,
        path,
        sources: list[str] | None = None,
        recordings: list[str] | None = None,
        config: LedgerConfig | None = None,
    ) -> "Ledger":
        """Open ``path`` if it exists (validating it matches ``sources``),
        otherwise create it."""
        path = Path(path)
        if not path.exists():
            if sources is None:
                raise LedgerError(f"no ledger at {path} and no sources to create one")
            return cls.create(path, sources, recordings=recordings, config=config)
        ledger = cls.open(path)
        if sources is not None:
            ledger.validate_corpus(sources)
        return ledger

    def validate_corpus(self, sources: list[str]) -> None:
        """Check that this ledger describes exactly ``sources``.

        Resuming against a different corpus would attribute one item's
        state to another — refuse loudly instead.
        """
        if len(sources) != len(self.rows):
            raise LedgerError(
                f"ledger {self.path} tracks {len(self.rows)} items but the "
                f"corpus has {len(sources)}; a ledger resumes exactly the "
                "corpus it was created for"
            )
        for row, src in zip(self.rows, sources):
            if row.source != str(src):
                raise LedgerError(
                    f"ledger {self.path} item {row.index} was created for "
                    f"{row.source!r} but the corpus supplies {str(src)!r}; a "
                    "ledger resumes exactly the corpus it was created for"
                )

    # -- persistence -----------------------------------------------------------

    def save(self) -> None:
        """Compact: atomically rewrite the file as its header alone."""
        header = {
            "schema_version": SCHEMA_VERSION,
            "config": vars(self.config),
            "items": [vars(row) for row in self.rows],
        }
        data = json.dumps(header).encode() + b"\n"
        tmp = self.path.with_name(self.path.name + ".tmp")
        _write(tmp, data, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        os.replace(tmp, self.path)
        self._dirty.clear()
        self._header_bytes, self._journal_bytes = len(data), 0

    def _append(self) -> None:
        """Journal the rows changed since the last write, one line each."""
        rows, self._dirty = self._dirty.values(), {}
        if not rows:
            return
        if self._journal_bytes is None:
            return self.save()
        data = b"".join(json.dumps(vars(row)).encode() + b"\n" for row in rows)
        # A failed write may leave a torn tail, which only a compaction may follow.
        journal, self._journal_bytes = self._journal_bytes, None
        _write(self.path, data, os.O_WRONLY | os.O_APPEND)
        self._journal_bytes = journal + len(data)
        if self._journal_bytes > self._header_bytes:
            self.save()

    # -- queries ---------------------------------------------------------------

    def row(self, index: int) -> LedgerRow:
        try:
            return self._by_index[index]
        except KeyError:
            raise LedgerError(f"ledger {self.path} has no item {index}") from None

    def counts(self) -> dict[str, int]:
        """Row counts per state (every state present, zero included)."""
        counts = {state: 0 for state in STATES}
        for row in self.rows:
            counts[row.state] += 1
        return counts

    def quarantined(self) -> list[LedgerRow]:
        return [row for row in self.rows if row.state == QUARANTINED]

    def all_settled(self) -> bool:
        """True when every row is terminal (``done`` or ``quarantined``)."""
        return all(row.terminal for row in self.rows)

    def next_retry_at(self, now: float | None = None) -> float | None:
        """The earliest future moment a currently-unclaimable row becomes
        claimable (a ``failed`` backoff deadline or a ``busy`` lease expiry),
        or None when no such row exists."""
        deadlines = [row.not_before for row in self.rows if row.state == FAILED]
        deadlines += [row.lease_expires for row in self.rows if row.state == BUSY]
        return min(deadlines) if deadlines else None

    # -- mutations -------------------------------------------------------------
    #
    # Every row change is one _transition; every mutation journals the rows
    # it changed once before returning, so the on-disk file is never behind
    # what a caller has been told.

    def claim(
        self, worker: str, now: float | None = None, lease: float | None = None
    ) -> LedgerRow | None:
        """Claim the next claimable row for ``worker`` (lowest index first).

        Lapsed ``busy`` rows are reopened first — and the lapse is charged
        as one attempt, so an item that keeps killing its workers ends up
        quarantined rather than looping forever.
        """
        rows = self.claim_batch(worker, limit=1, now=now, lease=lease)
        return rows[0] if rows else None

    def claim_batch(
        self,
        worker: str,
        limit: int | None = None,
        now: float | None = None,
        lease: float | None = None,
    ) -> list[LedgerRow]:
        """Claim up to ``limit`` claimable rows in one journal write."""
        now = time.time() if now is None else now
        lease = self.config.lease if lease is None else float(lease)
        self._lapse(now)
        claimed: list[LedgerRow] = []
        for row in self.rows:
            if limit is not None and len(claimed) >= limit:
                break
            if row.state == OPEN or (row.state == FAILED and row.not_before <= now):
                self._transition(row, BUSY, now, worker=str(worker), lease_expires=now + lease)
                claimed.append(row)
        self._append()
        return claimed

    def heartbeat(
        self, index: int, worker: str, now: float | None = None, lease: float | None = None
    ) -> None:
        """Renew the lease of a ``busy`` row still held by ``worker``."""
        now = time.time() if now is None else now
        lease = self.config.lease if lease is None else float(lease)
        row = self._held(index, str(worker), "renew the lease of")
        self._transition(row, BUSY, now, worker=row.worker, lease_expires=now + lease)
        self._append()

    def mark_done(self, index: int, worker: str | None = None, now: float | None = None) -> None:
        """Terminal success: the item's result was collected *and persisted*.

        Only a ``busy`` row (held by ``worker``, when given) can complete —
        marking an unclaimed or already-terminal row done would hide a
        coordination bug.
        """
        now = time.time() if now is None else now
        row = self.row(index)
        if row.state == DONE:
            # Idempotent for the worker that completed it (a retried
            # done-report is harmless) — but a *different* worker reporting
            # done on a row it lost means its lease lapsed and its copy of
            # the work was discarded; it must hear that, not a success.
            if worker is not None and row.worker != str(worker):
                raise LedgerError(
                    f"item {index} was completed by worker {row.worker!r}, "
                    f"not {worker!r}; its lease lapsed and the row was "
                    "reclaimed"
                )
            return
        row = self._held(index, worker, "complete")
        self._transition(row, DONE, now, worker=row.worker, error="")
        self._append()

    def mark_failed(
        self,
        index: int,
        error: str,
        worker: str | None = None,
        now: float | None = None,
    ) -> LedgerRow:
        """Record a failed attempt; backoff then retry, or quarantine.

        Only a ``busy`` row (held by ``worker``, when given) can fail — the
        same rule as :meth:`mark_done`, so a report from a worker whose lease
        lapsed is refused instead of charging the row a second time.  The
        row returns to the pool with ``not_before = now + backoff``
        (exponential in the attempt count, capped), or becomes
        ``quarantined`` once ``max_attempts`` is reached.
        """
        now = time.time() if now is None else now
        row = self._held(index, worker, "fail")
        self._charge(row, str(error), now, backoff=True)
        self._append()
        return row

    def recover_busy(self, now: float | None = None) -> list[LedgerRow]:
        """Reopen every ``busy`` row regardless of lease, charging an attempt.

        For the exclusive single-process runner restarting after a crash:
        any row still busy belonged to the dead previous run, and waiting
        out its lease would only delay the resume.  This is the lease lapse
        applied to every busy row, so rows that exhaust ``max_attempts`` this
        way quarantine and an item that reliably kills the runner cannot
        wedge it in a crash loop.
        """
        now = time.time() if now is None else now
        recovered = self._lapse(now, every=True)
        self._append()
        return recovered

    def adopt_done(self, index: int, now: float | None = None) -> None:
        """Mark a non-terminal row ``done`` because its persisted output was
        found intact during recovery.

        This is the one legitimate path to ``done`` that skips ``busy``: a
        previous run persisted the item's result and died before recording
        the completion, so the store — the ground truth the ``done`` state
        stands for — already holds it.
        """
        now = time.time() if now is None else now
        row = self.row(index)
        if row.state == QUARANTINED:
            raise LedgerError(
                f"cannot adopt item {index} as done: it is quarantined; "
                "reopen it explicitly first"
            )
        self._transition(row, DONE, now, error="")
        self._append()

    def quarantine(self, index: int, error: str, now: float | None = None) -> None:
        """Force a row into quarantine regardless of its attempt count (e.g.
        its store recording is partially written and appending again would
        duplicate rows)."""
        now = time.time() if now is None else now
        row = self.row(index)
        if row.state == DONE:
            raise LedgerError(f"cannot quarantine item {index}: it is done")
        self._transition(row, QUARANTINED, now, error=str(error))
        self._append()

    def reopen(self, index: int, now: float | None = None) -> None:
        """Force a terminal or failed row back to ``open`` (operator action:
        re-run a quarantined item after fixing its cause, or re-run a done
        row whose persisted output was lost)."""
        now = time.time() if now is None else now
        self._transition(self.row(index), OPEN, now)
        self._append()

    # -- the rules every mutation goes through ---------------------------------

    def _transition(
        self,
        row: LedgerRow,
        state: str,
        now: float,
        worker: str = "",
        lease_expires: float = 0.0,
        not_before: float = 0.0,
        error: str | None = None,
    ) -> None:
        """The one way a row changes: set ``state`` and the fields it keeps —
        the holder and lease of a ``busy`` row, the holder of a ``done`` one,
        the backoff deadline of a ``failed`` one — and reset the rest.
        ``error``, when given, replaces the recorded reason."""
        row.state, row.updated = state, now
        row.worker, row.lease_expires, row.not_before = worker, lease_expires, not_before
        if error is not None:
            row.error = error
        self._dirty[row.index] = row

    def _held(self, index: int, worker: str | None, action: str) -> LedgerRow:
        """The one holder rule: only a ``busy`` row, held by ``worker`` when
        one is named, takes a report about its attempt."""
        row = self.row(index)
        if row.state != BUSY:
            raise LedgerError(
                f"cannot {action} item {index} from state {row.state!r}; only a "
                "claimed (busy) row can be reported on, and a lapsed lease reopens it"
            )
        if worker is not None and row.worker != str(worker):
            raise LedgerError(
                f"item {index} is held by worker {row.worker!r}, so it is not busy "
                f"under worker {worker!r}; its lease may have lapsed and been reclaimed"
            )
        return row

    def _charge(self, row: LedgerRow, reason: str, now: float, backoff: bool) -> None:
        """The one retry policy: an attempt was spent, for ``reason``.  The
        row quarantines once ``max_attempts`` are spent; otherwise it retries
        — after the exponential backoff for a reported failure, at once for a
        lapse."""
        row.attempts += 1
        if row.attempts >= self.config.max_attempts:
            self._transition(row, QUARANTINED, now, error=reason)
        elif backoff:
            deadline = now + self.config.backoff(row.attempts)
            self._transition(row, FAILED, now, not_before=deadline, error=reason)
        else:
            self._transition(row, OPEN, now, error=reason)

    def _lapse(self, now: float, every: bool = False) -> list[LedgerRow]:
        """Charge one attempt to each ``busy`` row whose lease has expired —
        with ``every``, to each busy row — and return them: the worker that
        held it is presumed dead mid-item."""
        lapsed = [
            row for row in self.rows
            if row.state == BUSY and (every or row.lease_expires <= now)
        ]
        for row in lapsed:
            reason = f"lease lapsed: worker {row.worker!r} stopped heart-beating"
            if every:
                reason = "interrupted: run died while this item was busy"
            self._charge(row, reason, now, backoff=False)
        return lapsed
