"""The ledgered corpus runner: resumable, retrying, quarantine-on-poison.

:func:`run_corpus` drives a :class:`~repro.jobs.ledger.Ledger` through a
corpus through the same :class:`~repro.pipeline.executor.Dispatcher` loop
(serial / thread / process) as the plain
:class:`~repro.pipeline.executor.CorpusExecutor`, but with per-item
durability instead of first-failure abort:

* every claimable row is marked ``busy`` *before* dispatch and ``done``
  only after its result has been collected **and** persisted to the
  optional ``store=`` — the store is flushed before the ledger advances,
  so ``done`` always means "durable on disk";
* a failing item is retried with exponential backoff and quarantined
  after ``max_attempts`` instead of aborting the whole run;
* a killed run resumes exactly where it stopped: completed items are
  recovered from the store (never re-extracted), the interrupted item is
  re-dispatched, and the merged output is bit-identical to an
  uninterrupted run.

The runner assumes *exclusive* ownership of its ledger file — it reclaims
``busy`` rows unconditionally on startup.  To drain one ledger from many
machines, run the HTTP control plane instead
(``python -m repro.jobs serve``; see :mod:`repro.jobs.service`), which
arbitrates claims with per-worker leases.

Store discipline, shared with :class:`~repro.jobs.worker.JobWorker`: a
drain opens its writer with an effectively unbounded flush budget
(:func:`drain_writer`) and flushes explicitly once per item
(:func:`persist_item`), so shard files always cut at item boundaries.  A
crash mid-item therefore leaves *nothing* of that item durable — resume
re-runs it cleanly — rather than a partial recording, which the write-once
store would refuse to take again.  A failed persist charges the attempt
(``persist failed: …``) and stops the drain, with nothing more flushed
from that writer: this runner raises
:class:`~repro.pipeline.executor.CorpusExecutionError`, a worker
:class:`~repro.jobs.worker.WorkerError`.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from ..pipeline.builder import PipelineBuildError
from ..pipeline.executor import (
    CorpusExecutor,
    Dispatcher,
    corpus_failure,
    describe_source,
    persist_result,
    stored_recordings,
)
from ..store.writer import open_writer
from .ledger import DONE, Ledger, LedgerConfig

__all__ = ["run_corpus", "coerce_ledger"]

#: Flush budget that never auto-flushes: a drain cuts shards itself,
#: exactly once per completed item, so partially-run items are never
#: durable.  (One item's rows are buffered in memory — the same order of
#: magnitude as the item's PipelineResult itself.)
NO_AUTO_FLUSH = 2**62


def coerce_ledger(
    ledger,
    sources: list[str],
    recordings: list[str],
    config: LedgerConfig | None = None,
) -> Ledger:
    """Turn ``ledger`` (a path or a live :class:`Ledger`) into a validated
    Ledger matching ``sources``.

    ``config`` applies only when a new ledger file is created; an existing
    ledger keeps the retry policy it was created with, so every process
    that ever touches it applies the same rules.
    """
    if isinstance(ledger, Ledger):
        ledger.validate_corpus(sources)
        return ledger
    return Ledger.open_or_create(
        ledger, sources=sources, recordings=recordings, config=config
    )


def run_corpus(
    pipeline,
    corpus,
    ledger,
    backend: str = "serial",
    workers: int | None = None,
    sample_rate: int | None = None,
    store=None,
    recordings=None,
    config: LedgerConfig | None = None,
    worker_id: str | None = None,
):
    """Run ``pipeline`` over ``corpus`` under a durable job ledger.

    Returns the results in corpus order, ``None`` in the positions of
    quarantined items (the ledger file names them, with their errors;
    ``python -m repro.jobs status <ledger>`` exits non-zero when any
    exist).  All other semantics — accepted corpus/pipeline types,
    backend meanings, bit-identical outputs across backends — match
    :meth:`~repro.pipeline.builder.BuiltPipeline.run_corpus`.

    ``ledger`` is a file path (created on first use, resumed thereafter)
    or a live :class:`~repro.jobs.ledger.Ledger`.  ``store`` is required
    for *result* durability: without it the ledger still bounds rework
    within one process lifetime (retries, quarantine), but a killed run
    cannot recover completed results from anywhere, so surviving ``done``
    rows are reopened and re-run on resume.  With a store, ``done`` rows
    are recovered from it without re-extraction.
    """
    executor = CorpusExecutor(pipeline, backend=backend, workers=workers)
    if executor._has_stage("store"):
        raise PipelineBuildError(
            "ledgered runs persist through store=, which flushes once per "
            "completed item so resume never sees a partial write; an "
            "in-graph 'store' stage would bypass that discipline — drop the "
            "stage and pass store= to run_corpus(ledger=...)"
        )
    items = CorpusExecutor._coerce_corpus(corpus)
    names = CorpusExecutor._recording_names(items, recordings)
    sources = [describe_source(item) for item in items]
    book = coerce_ledger(ledger, sources, names, config=config)
    worker_id = worker_id or f"runner-{os.getpid()}"
    if not items:
        return []

    results = [None] * len(items)
    # Rows still busy belong to a dead previous run of this exclusive
    # runner; reclaim them (one attempt charged — a crash loop quarantines
    # its poison item instead of wedging forever).
    book.recover_busy()

    with drain_writer(store) as writer:
        _reconcile_with_store(book, writer, results)
        _drain(executor, book, items, sample_rate, writer, results, worker_id)
    return results


# -- the persist rule of both drains -------------------------------------------


@contextmanager
def drain_writer(store):
    """``with drain_writer(store) as writer:`` — the writer a drain (this
    runner or a :class:`~repro.jobs.worker.JobWorker`) persists through.

    It never auto-flushes: :func:`persist_item` cuts one shard per item, so
    rows are buffered only while one item is being persisted.  If the drain
    raises, what is buffered belongs to that item — most often one whose
    persist failed and was charged as failed — so the exit flushes nothing:
    the rows would be a result the ledger disowns, and on a full disk the
    flush would fail again.  Everything flushed before is intact.
    """
    opened = open_writer(store, flush_values=NO_AUTO_FLUSH)
    writer = opened.__enter__()
    yield writer
    opened.__exit__(None, None, None)


def persist_item(writer, recording: str, item, result, fail) -> None:
    """Write one item's result and cut its shard, so whoever reports the
    item done afterwards reports something durable.

    A failed persist is a *store* problem (full disk, bad shard), not an
    item problem: ``fail(reason)`` charges the attempt with ``reason``
    ``persist failed: …`` and the error propagates, so the drain stops —
    every further persist would hit the same disk.
    """
    try:
        persist_result(writer, recording, item, result)
        writer.flush()
    except Exception as exc:
        fail(f"persist failed: {type(exc).__name__}: {exc}")
        raise


def partial_write_reason(recording: str) -> str:
    """Why an item whose recording the store holds in part is quarantined."""
    return (
        f"store holds a partial write for recording {recording!r}; appending again would "
        "duplicate its rows — rewrite the store (e.g. a from_store= sweep into a fresh path) "
        "and reopen this item"
    )


def _reconcile_with_store(book: Ledger, writer, results: list) -> None:
    """Square the ledger with what the store actually holds.

    * without a store, or with a brand-new one, nothing is persisted: a
      ``done`` row holds a result only a previous process ever saw (or the
      caller pointed the ledger at the wrong store) — reopen it, so this
      run reproduces every result it returns;
    * a non-terminal row whose recording is *complete* in the store was
      persisted by a run that died before recording the completion —
      adopt it as done;
    * a ``done`` row missing from the store lost its durability (the
      store was moved or truncated) — reopen it;
    * a non-terminal row whose recording is *incomplete* (partial rows on
      disk) is quarantined: the write-once store would refuse it.

    Results of every (now-)done row are rebuilt from the store, so resume
    returns them without re-extraction.
    """
    complete, partial = stored_recordings(writer)
    for row in book.rows:
        if row.state == DONE and row.recording not in complete:
            book.reopen(row.index)
        elif not row.terminal and row.recording in complete:
            book.adopt_done(row.index)
        elif not row.terminal and row.recording in partial:
            book.quarantine(row.index, partial_write_reason(row.recording))
    done = [row for row in book.rows if row.state == DONE]
    if done:
        from ..store.reader import StoreReader

        reader = StoreReader(writer.path)
        for row in done:
            results[row.index] = reader.result(row.recording)


# -- the drain loop ------------------------------------------------------------


def _drain(
    executor: CorpusExecutor,
    book: Ledger,
    items: list,
    sample_rate: int | None,
    writer,
    results: list,
    worker_id: str,
) -> None:
    """Claim-and-run rounds until every row is terminal."""
    # Bound each claim to the backend's real in-flight window: `busy` rows
    # are exactly the items a crash right now would charge an attempt to
    # (recover_busy), so claiming the whole corpus up front would let one
    # crash tax every row.  Serial dispatches one item at a time.
    window = 1 if executor.backend == "serial" else executor.workers
    with Dispatcher(executor, sample_rate, len(items)) as dispatch:
        while True:
            batch = book.claim_batch(worker_id, limit=window)
            if not batch:
                if book.all_settled():
                    return
                deadline = book.next_retry_at()
                if deadline is None:  # pragma: no cover - defensive
                    return
                time.sleep(min(max(deadline - time.time(), 0.0), 1.0) + 0.005)
                continue
            # Outcomes arrive in claim (= corpus) order, so persists land
            # deterministically, exactly like the unledgered run.
            claimed = ((row.index, items[row.index]) for row in batch)
            for index, result, error in dispatch.outcomes(claimed):
                if error is not None:
                    book.mark_failed(index, error.message, worker=worker_id)
                    continue
                _settle(book, book.row(index), items[index], result, writer, results, worker_id)


def _settle(book, row, item, result, writer, results, worker_id) -> None:
    """Persist one collected result, then — and only then — mark it done."""
    if writer is not None:
        try:
            persist_item(
                writer, row.recording, item, result,
                lambda reason: book.mark_failed(row.index, reason, worker=worker_id),
            )
        except Exception as exc:
            raise corpus_failure(
                "failed to persist", row.index, item,
                f" to the store: {type(exc).__name__}: {exc}",
                [r.index for r in book.rows if r.state == DONE],
            ) from exc
    book.mark_done(row.index, worker=worker_id)
    results[row.index] = result
