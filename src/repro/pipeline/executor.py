"""Parallel execution of a stage graph over a corpus of clips.

The :class:`CorpusExecutor` runs a built pipeline over many independent
sources (clips, raw arrays, WAV paths) with pluggable backends:

* ``"serial"`` — one pipeline instance, items processed in order (the
  reference semantics every other backend must match bit-for-bit);
* ``"thread"`` — a thread pool; each worker thread instantiates its own
  stage graph from the pipeline's spec, so stage state is never shared;
* ``"process"`` — a process pool; the pipeline *spec* (stage names +
  kwargs, which the registry model keeps serialisable-by-construction) is
  pickled once, each worker re-instantiates the stages, and results are
  pickled back.

Results are always returned in corpus order regardless of completion
order, so ``run_corpus(backend="process", workers=8)`` is a drop-in
replacement for a serial loop.  Per-item failures are wrapped in
:class:`CorpusExecutionError` carrying the failing item's index and a
description of its source; worker errors are caught inside the worker and
shipped back as data, so a raising stage can never deadlock the pool.

All three backends run through one :class:`Dispatcher`, which owns the
pool and the per-worker stage graphs and yields per-item outcomes in
submission order.  :meth:`CorpusExecutor.run` consumes it with an
abort-on-first-error policy; the ledgered runner in :mod:`repro.jobs`
consumes the same loop with a retry-and-quarantine policy.

The classify stage holds a live classifier object.  Thread workers share
it (MESO queries are read-only apart from timing counters); process
workers each receive a pickled copy, so classifier ``stats`` accumulated
in workers are not reflected in the parent's instance.
"""

from __future__ import annotations

import os
import pickle
import threading
import traceback
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .builder import AcousticPipeline, BuiltPipeline, PipelineBuildError, refuse_second_writer
from .results import PipelineResult

__all__ = ["CorpusExecutor", "CorpusExecutionError", "BACKENDS"]

#: The recognised execution backends, in increasing order of isolation.
BACKENDS = ("serial", "thread", "process")


class CorpusExecutionError(RuntimeError):
    """A pipeline stage raised while processing one item of a corpus.

    ``index`` is the position of the failing item within the corpus and
    ``source`` a short description of it (the WAV path, the clip's station
    id, ...).  ``worker_traceback`` carries the traceback formatted inside
    a process worker, where the original exception object may not survive
    pickling.  ``completed`` lists the corpus indices whose results had
    been collected — and persisted, when a ``store=`` was given — before
    the failure, so callers can resume from where the run stopped instead
    of redoing everything.

    The ``completed`` contract is strict on every backend: an index is
    appended only *after* its ``store=`` persist call returned, so a
    persist failure (full disk, bad shard) never reports the item it was
    persisting as completed, and a failed closing flush narrows it to the
    recordings the store holds complete.  Persist failures are themselves
    wrapped in this exception with ``index``/``source``/``completed``
    intact, so the resume seed survives store errors as well as pipeline
    errors.  The durable job layer built on top of this contract lives in
    :mod:`repro.jobs`.
    """

    def __init__(
        self,
        message: str,
        index: int | None = None,
        source: str | None = None,
        worker_traceback: str | None = None,
        completed: tuple[int, ...] = (),
    ) -> None:
        super().__init__(message)
        self.index = index
        self.source = source
        self.worker_traceback = worker_traceback
        self.completed = tuple(completed)


def describe_source(item) -> str:
    """A short human-readable description of one corpus item."""
    if isinstance(item, (str, Path)):
        return str(item)
    name = type(item).__name__
    station = getattr(item, "station_id", None)
    if station:
        return f"{name}(station_id={station!r})"
    # File-backed chunk streams (e.g. WavChunkStream) identify by their path.
    path = getattr(item, "path", None)
    if isinstance(path, (str, Path)):
        return f"{name}({path})"
    samples = getattr(item, "samples", item if isinstance(item, np.ndarray) else None)
    if isinstance(samples, np.ndarray):
        return f"{name}[{samples.size} samples]"
    return name


def corpus_failure(
    what: str, index: int, item, detail: str, completed, worker_traceback: str | None = None
) -> CorpusExecutionError:
    """A :class:`CorpusExecutionError` reading ``"<what> corpus item <index>
    (<source>)<detail>"`` that honours the index/source/completed contract."""
    source = describe_source(item)
    return CorpusExecutionError(
        f"{what} corpus item {index} ({source}){detail}",
        index=index,
        source=source,
        worker_traceback=worker_traceback,
        completed=tuple(completed),
    )


# -- the dispatch loop ---------------------------------------------------------
#
# One initializer/run pair serves thread and process workers alike.  A worker
# builds its stage graph on its first item and reuses it for every later one
# (stages reset themselves at the start of each run).  Errors are returned as
# data, never raised, so no exception that fails to pickle can break the pool.

_WORKER = threading.local()


class ItemError(NamedTuple):
    """Why one corpus item failed.  ``worker_traceback`` is formatted inside
    a process worker, where the exception object may not survive pickling;
    failures in this process carry the exception itself as ``cause``."""

    message: str
    worker_traceback: str | None = None
    cause: BaseException | None = None


def _worker_init(spec, isolated: bool) -> None:
    """Pool initializer.  ``isolated`` means a separate process: ``spec``
    arrives pickled and errors go back as text."""
    _WORKER.spec, _WORKER.isolated, _WORKER.pipeline = spec, isolated, None


def _worker_run(item, sample_rate: int | None, worker=_WORKER):
    """``(result, None)`` or ``(None, ItemError)`` for one item."""
    try:
        if worker.pipeline is None:
            spec = pickle.loads(worker.spec) if worker.isolated else worker.spec
            worker.pipeline = spec.build()
        return worker.pipeline.run(item, sample_rate=sample_rate), None
    except BaseException as exc:
        # In this process an interrupt or exit is the caller's, not the
        # item's; a process worker ships everything back to the parent.
        if not (worker.isolated or isinstance(exc, Exception)):
            raise
        message = f"{type(exc).__name__}: {exc}"
        if worker.isolated:
            return None, ItemError(message, worker_traceback=traceback.format_exc())
        return None, ItemError(message, cause=exc)


class Dispatcher:
    """The one ordered dispatch loop behind every corpus run.

    A context manager that owns the backend's worker pool and one stage
    graph per worker, both alive until ``__exit__`` however many batches go
    through :meth:`outcomes`.  Leaving the context cancels work that has not
    started, so a consumer that aborts on the first failure does not pay for
    the rest of the queue.  ``size`` (the corpus length) caps the process pool.
    """

    def __init__(self, executor: "CorpusExecutor", sample_rate: int | None, size: int) -> None:
        self.sample_rate = sample_rate
        self.pool: Executor | None = None
        if executor.backend == "serial":
            pipeline = executor._pipeline or executor.builder.build()
            self._inline = SimpleNamespace(pipeline=pipeline, isolated=False)
        elif executor.backend == "thread":
            self.pool = ThreadPoolExecutor(
                max_workers=executor.workers,
                initializer=_worker_init,
                initargs=(executor.builder, False),
            )
        else:
            try:
                payload = pickle.dumps(executor.builder)
            except Exception as exc:
                raise CorpusExecutionError(
                    "the process backend pickles the pipeline spec to the "
                    f"workers, but this spec is not picklable: {exc}"
                ) from exc
            self.pool = ProcessPoolExecutor(
                max_workers=min(executor.workers, max(size, 1)),
                initializer=_worker_init,
                initargs=(payload, True),
            )

    def __enter__(self) -> "Dispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True, cancel_futures=True)

    def outcomes(self, indexed_items):
        """Yield ``(index, result, error)`` for each ``(index, item)``, in
        the order given; ``error`` is ``None`` or an :class:`ItemError`.

        Never raises for an item: a raising stage and a pool-infrastructure
        failure (most commonly an unpicklable item, whose error lands on
        exactly that item's future) both come back as data.  The serial
        backend runs an item only when its outcome is asked for, so item
        *i+1* never starts before the consumer is done with item *i*; a
        pool is handed the whole batch at once.
        """
        if self.pool is None:
            for index, item in indexed_items:
                yield (index, *_worker_run(item, self.sample_rate, self._inline))
            return
        futures = [
            (index, self.pool.submit(_worker_run, item, self.sample_rate))
            for index, item in indexed_items
        ]
        for index, future in futures:
            try:
                result, error = future.result()
            except Exception as exc:
                result, error = None, ItemError(f"{type(exc).__name__}: {exc}", cause=exc)
            yield index, result, error


# -- store plumbing shared with repro.jobs -------------------------------------


def stored_recordings(writer) -> tuple[set[str], set[str]]:
    """``(complete, partial)``: the recording names the store behind
    ``writer`` holds on disk (both empty without a writer or a manifest)."""
    from ..store.reader import StoreReader
    from ..store.schema import MANIFEST_NAME

    if writer is None or not (writer.path / MANIFEST_NAME).exists():
        return set(), set()
    reader = StoreReader(writer.path)
    complete = {name for name in reader.recordings() if reader.recording_info(name).complete}
    return complete, set(reader.recordings()) - complete


def persist_result(writer, name: str, item, result) -> None:
    station = str(getattr(item, "station_id", "") or "")
    writer.write_result(name, result, station=station)


class CorpusExecutor:
    """Run a built stage graph over a corpus with a pluggable backend."""

    def __init__(
        self,
        pipeline: AcousticPipeline | BuiltPipeline,
        backend: str = "serial",
        workers: int | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {', '.join(BACKENDS)}; got {backend!r}"
            )
        if isinstance(pipeline, AcousticPipeline):
            self.builder: AcousticPipeline | None = pipeline
            self._pipeline: BuiltPipeline | None = None
        elif isinstance(pipeline, BuiltPipeline):
            self.builder = pipeline.spec
            self._pipeline = pipeline
        else:
            raise TypeError(
                "pipeline must be an AcousticPipeline or BuiltPipeline, "
                f"got {type(pipeline).__name__}"
            )
        if backend != "serial" and self.builder is None:
            raise PipelineBuildError(
                f"the {backend!r} backend re-instantiates stages from the "
                "pipeline spec, but this pipeline was built without one; "
                "build it via AcousticPipeline.build()"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.backend = backend
        self.workers = workers or (1 if backend == "serial" else (os.cpu_count() or 1))

    # -- public API -----------------------------------------------------------

    def run(
        self,
        corpus,
        sample_rate: int | None = None,
        store=None,
        recordings=None,
    ) -> list[PipelineResult]:
        """Run the pipeline over every item of ``corpus``, in corpus order.

        ``corpus`` is a sequence of anything :meth:`BuiltPipeline.run`
        accepts as a single source (clips, arrays, WAV paths), or an object
        with a ``clips`` attribute such as
        :class:`~repro.synth.dataset.ClipCorpus`.

        ``store`` persists each result into a feature store (a directory
        path or an open :class:`~repro.store.StoreWriter`) as soon as it is
        collected, under ``recordings`` names (default
        :func:`~repro.store.schema.recording_name` of the corpus index,
        ``rec-00000`` …); a name the store already holds fails that item,
        so a corpus is never appended twice, and a path a declared store
        stage writes is refused (``PipelineBuildError``).  Results are
        collected in corpus order on every backend, so a failure leaves
        exactly the items in :attr:`CorpusExecutionError.completed`
        persisted.  The first
        failure aborts the run on every backend: items the workers have
        not started yet are cancelled, not run.
        """
        items = self._coerce_corpus(corpus)
        if self.backend != "serial" and self._has_stage("store"):
            raise PipelineBuildError(
                "a 'store' stage appends through a single writer, which the "
                f"{self.backend!r} backend would duplicate across workers "
                "(concurrent writers corrupt the manifest); run store-stage "
                "pipelines with backend='serial', or drop the stage and pass "
                "store= to run_corpus() — results are then persisted in the "
                "parent as they are collected"
            )
        refuse_second_writer(self._pipeline or self.builder, store)
        names = None
        if store is not None:
            names = self._recording_names(items, recordings)
        if not items:
            return []
        from ..store.writer import open_writer

        results: list[PipelineResult] = []
        # An index enters `completed` only once its result is collected
        # *and* persisted, never inferred from a prefix range.
        completed: list[int] = []
        opened = open_writer(store)
        try:
            with Dispatcher(self, sample_rate, len(items)) as dispatch, opened as writer:
                for index, result, error in dispatch.outcomes(enumerate(items)):
                    item = items[index]
                    if error is not None:
                        detail = f": {error.message}"
                        if error.worker_traceback is not None:
                            detail += f"\n--- worker traceback ---\n{error.worker_traceback}"
                        raise corpus_failure(
                            "pipeline failed on", index, item, detail, completed, error.worker_traceback
                        ) from error.cause
                    # Persist *before* recording completion: a failing
                    # persist must not leave its index in the resume seed.
                    if writer is not None:
                        self._persist_checked(writer, names[index], item, result, index, completed)
                    results.append(result)
                    completed.append(index)
        except CorpusExecutionError as failure:
            if opened.flush_error is None:
                raise
            # The closing flush failed too: rows persisted since the last
            # good flush never reached a shard, so name only what did.
            complete, _ = stored_recordings(opened.writer)
            raise CorpusExecutionError(
                f"{failure}; the closing store flush failed too, so completed "
                "lists only the items the store holds",
                index=failure.index,
                source=failure.source,
                worker_traceback=failure.worker_traceback,
                completed=tuple(i for i in failure.completed if names[i] in complete),
            ) from opened.flush_error
        return results

    # -- store plumbing -------------------------------------------------------

    def _has_stage(self, name: str) -> bool:
        if self.builder is not None:
            return any(spec_name == name for spec_name, _ in self.builder.specs)
        return any(stage.name == name for stage in self._pipeline.stages)

    @staticmethod
    def _recording_names(items: list, recordings) -> list[str]:
        if recordings is None:
            from ..store.schema import recording_name

            return [recording_name(index) for index in range(len(items))]
        names = [str(name) for name in recordings]
        if len(names) != len(items):
            raise ValueError(
                f"recordings names {len(names)} must match corpus length {len(items)}"
            )
        return names

    def _persist_checked(
        self, writer, name: str, item, result, index: int, completed: list[int]
    ) -> None:
        """Persist one result, wrapping store errors with the resume contract.

        A raw persist failure (full disk, bad shard) would otherwise escape
        without ``index``/``source``/``completed``, losing the resume seed
        exactly when it matters most.
        """
        try:
            persist_result(writer, name, item, result)
        except Exception as exc:
            raise corpus_failure(
                "failed to persist", index, item,
                f" to the store: {type(exc).__name__}: {exc}", completed,
            ) from exc

    @staticmethod
    def _coerce_corpus(corpus) -> list:
        clips = getattr(corpus, "clips", None)
        if clips is not None:
            return list(clips)
        if isinstance(corpus, (str, Path, np.ndarray)):
            raise TypeError(
                "corpus must be a sequence of sources, not a single source; "
                "wrap it in a list or call BuiltPipeline.run instead"
            )
        return list(corpus)
