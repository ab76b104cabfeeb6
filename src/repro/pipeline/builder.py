"""The fluent :class:`AcousticPipeline` builder and its executable product.

One stage graph, many execution modes::

    pipe = (
        AcousticPipeline()
        .extract(FAST_EXTRACTION)
        .features(use_paa=True)
        .classify(meso)
        .build()
    )

    pipe.run(clip)                      # an AcousticClip
    pipe.run(samples, sample_rate=16000)  # a raw numpy array
    pipe.run("dawn_chorus.wav")         # a WAV file path
    pipe.run(chunks, sample_rate=16000)  # any iterator of chunks

    for event in pipe.extract_stream(chunks, sample_rate=16000):
        ...                              # incremental, unbounded streams

    river_pipeline = pipe.to_river()     # the same stages as Dynamic River
                                         # record operators

Batch execution is simply the streaming engine fed a single chunk, and the
streaming engine is chunk-invariant, so all modes agree on their output.
"""

from __future__ import annotations

import inspect
import os
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..config import ExtractionConfig, FeatureConfig
from ..dsp.wav import WavClip, read_wav
from ..synth.clips import AcousticClip
from .registry import STAGES, StageRegistry
from .results import (
    EnsembleEvent,
    FeaturesEvent,
    PipelineEvent,
    PipelineResult,
    SignalChunk,
)
from .stages import ExtractStage, Stage

__all__ = ["AcousticPipeline", "BuiltPipeline", "PipelineBuildError"]


class PipelineBuildError(ValueError):
    """Raised when a pipeline specification cannot be assembled."""


def _directory(store) -> str:
    """The directory ``store`` (a path or a live writer) writes, resolved."""
    return os.path.realpath(getattr(store, "path", store))


def refuse_second_writer(pipeline, store) -> None:
    """One writer per store path per run: ``store`` may not name a directory
    a declared store stage of ``pipeline`` writes."""
    if store is not None and _directory(store) in map(_directory, pipeline._store_paths()):
        path = getattr(store, "path", store)
        raise PipelineBuildError(f"a declared 'store' stage already writes {path}; one writer per store path")


class AcousticPipeline:
    """Fluent builder assembling a stage graph from registered stages."""

    def __init__(self, registry: StageRegistry | None = None) -> None:
        self.registry = registry or STAGES
        self._specs: list[tuple[str, dict]] = []

    # -- fluent stage declarations -------------------------------------------

    def extract(
        self,
        config: ExtractionConfig | None = None,
        *,
        hop: int = 16,
        normalization: str = "running",
        keep_traces: bool = True,
        max_trace_samples: int | None = None,
        emit: str = "ensembles",
    ) -> "AcousticPipeline":
        """Add the saxanomaly → trigger → cutter extraction stage.

        ``emit="fragments"`` streams each trigger-high run as incremental
        fragment events while it is still open (see
        :class:`~repro.pipeline.stages.ExtractStage`); ``max_trace_samples``
        bounds the kept score/trigger traces on unbounded streams.
        """
        return self.stage(
            "extract",
            config=config,
            hop=hop,
            normalization=normalization,
            keep_traces=keep_traces,
            max_trace_samples=max_trace_samples,
            emit=emit,
        )

    def features(
        self,
        config: FeatureConfig | None = None,
        *,
        use_paa: bool = False,
        normalize: str = "max",
        log_compress: bool = True,
        log_gain: float = 100.0,
        emit: str = "ensembles",
    ) -> "AcousticPipeline":
        """Add the spectro-temporal feature (pattern) stage.

        ``emit`` selects what happens at a fragment stream's close:
        ``"ensembles"`` (default) reassembles and emits the terminal
        whole-ensemble event exactly like the buffered path, while
        ``"patterns"`` keeps memory bounded by never reassembling (see
        :class:`~repro.pipeline.stages.FeatureStage`).
        """
        return self.stage(
            "features",
            config=config,
            use_paa=use_paa,
            normalize=normalize,
            log_compress=log_compress,
            log_gain=log_gain,
            emit=emit,
        )

    def classify(self, classifier) -> "AcousticPipeline":
        """Add per-ensemble majority-vote classification."""
        return self.stage("classify", classifier=classifier)

    def stage(self, name: str, /, **kwargs) -> "AcousticPipeline":
        """Append any registered stage by name (the plugin entry point)."""
        if name not in self.registry:
            known = ", ".join(self.registry.names()) or "<none>"
            raise PipelineBuildError(
                f"no stage registered as {name!r}; known stages: {known}"
            )
        self._specs.append((name, dict(kwargs)))
        return self

    # -- validation and assembly ---------------------------------------------

    @property
    def specs(self) -> list[tuple[str, dict]]:
        """The declared (name, kwargs) stage specifications, in order."""
        return [(name, dict(kwargs)) for name, kwargs in self._specs]

    def _store_paths(self) -> list:
        """Where each declared store stage writes: its path, else its writer's."""
        return [
            kwargs.get("path") or kwargs["writer"].path
            for name, kwargs in self._specs
            if name == "store" and (kwargs.get("path") or kwargs.get("writer")) is not None
        ]

    def _validate(self) -> None:
        names = [name for name, _ in self._specs]
        if not names:
            raise PipelineBuildError(
                "empty pipeline: declare at least an extract stage"
            )
        paths = self._store_paths()
        for index, path in enumerate(paths):
            if _directory(path) in map(_directory, paths[:index]):
                raise PipelineBuildError(f"two 'store' stages write {path}; one writer per store path")
        for builtin in ("extract", "features", "classify"):
            if names.count(builtin) > 1:
                raise PipelineBuildError(f"duplicate {builtin!r} stage")
        if "extract" in names and names.index("extract") != 0:
            raise PipelineBuildError("the extract stage must come first")
        if "features" in names and "extract" not in names:
            raise PipelineBuildError("the features stage needs an extract stage first")
        if "classify" in names:
            if "features" not in names:
                raise PipelineBuildError(
                    "the classify stage needs a features stage before it"
                )
            if names.index("classify") < names.index("features"):
                raise PipelineBuildError("classify must come after features")
            kwargs = dict(self._specs)
            if (
                kwargs.get("extract", {}).get("emit") == "fragments"
                and kwargs.get("features", {}).get("emit") == "patterns"
            ):
                # Nothing would ever be classified: voting consumes terminal
                # whole-ensemble feature events, which this mode never emits.
                raise PipelineBuildError(
                    "features(emit='patterns') never reassembles an ensemble, "
                    "so classify would silently label nothing on a fragment "
                    "stream; use features(emit='ensembles') (the default) "
                    "with extract(emit='fragments')"
                )

    def instantiate(self, only=None, **overrides) -> list[Stage]:
        """Create fresh stage instances from the declared specs.

        ``overrides`` are merged into the kwargs of every stage whose
        factory accepts them by name (used by the Dynamic River adapter to
        disable trace accumulation on unbounded streams); explicitly
        declared kwargs always win.  ``only`` restricts instantiation to
        the given spec indices (in spec order) — the fan-out compiler uses
        it to build spare replicas of just the fanned stages instead of
        whole throwaway graphs.
        """
        self._validate()
        stages: list[Stage] = []
        for index, (name, kwargs) in enumerate(self._specs):
            if only is not None and index not in only:
                continue
            merged = dict(kwargs)
            accepted = self._accepted_parameters(self.registry.factory(name))
            for key, value in overrides.items():
                if key in merged:
                    continue
                if accepted is None or key in accepted:
                    merged[key] = value
            stages.append(self.registry.create(name, **merged))
        return stages

    @staticmethod
    def _accepted_parameters(factory) -> set[str] | None:
        """Keyword names ``factory`` accepts; None means "anything" (**kwargs)."""
        try:
            parameters = inspect.signature(factory).parameters
        except (TypeError, ValueError):
            return None
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
            return None
        return {
            name
            for name, p in parameters.items()
            if p.kind
            in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
        }

    def build(self) -> "BuiltPipeline":
        """Instantiate the stage graph into an executable pipeline."""
        return BuiltPipeline(self.instantiate(), spec=self)

    def run_corpus(
        self,
        corpus=None,
        *,
        backend: str = "serial",
        workers: int | None = None,
        sample_rate: int | None = None,
        store=None,
        from_store=None,
        recordings=None,
        ledger=None,
        ledger_config=None,
    ):
        """Run this spec over a corpus (see :meth:`BuiltPipeline.run_corpus`).

        The executor instantiates stages per worker from the spec, so no
        eager :meth:`build` is needed here — except for ``from_store=``,
        which replays stored ensembles through a built graph.
        """
        return _run_corpus(
            self, corpus, backend=backend, workers=workers, sample_rate=sample_rate, store=store,
            from_store=from_store, recordings=recordings, ledger=ledger, ledger_config=ledger_config,
        )

    def to_river(
        self,
        name: str = "acoustic-pipeline",
        fan_out: int | dict[str, int] = 1,
        partition: str = "station",
        store=None,
    ):
        """Compile the stage graph into a Dynamic River operator pipeline.

        ``fan_out`` > 1 compiles each per-ensemble stage (features,
        classify, plugins) into that many parallel replicas behind a
        deterministic partition/merge pair; ``partition`` chooses how
        ensembles are routed to replicas (``"station"`` keys on the
        recording station so each station's ensembles share an operator
        instance, ``"roundrobin"`` cycles).  The merged output is
        bit-identical to the linear ``fan_out=1`` graph — fan-out changes
        where work runs, never what it produces.
        """
        from .river_adapter import compile_to_river

        return compile_to_river(
            self, name=name, fan_out=fan_out, partition=partition, store=store
        )

    def deploy(self, clips, backend: str = "simulated", **kwargs):
        """Run ``clips`` through the compiled river graph on a real fabric.

        ``backend="simulated"`` steps the placed segments on cooperative
        in-process hosts; ``backend="process"`` launches one OS process per
        host wired with socket channels (see
        :func:`~repro.pipeline.river_adapter.deploy_clips_via_river` for the
        remaining keyword options).  Both return the same
        :class:`PipelineResult` a batch ``run()`` over the clips would.
        """
        from .river_adapter import deploy_clips_via_river

        return deploy_clips_via_river(self, clips, backend=backend, **kwargs)


class BuiltPipeline:
    """An executable stage graph (produced by :meth:`AcousticPipeline.build`)."""

    def __init__(self, stages: list[Stage], spec: AcousticPipeline | None = None) -> None:
        if not stages:
            raise PipelineBuildError("a built pipeline needs at least one stage")
        self.stages = list(stages)
        self.spec = spec
        # Tell store stages whether a features stage precedes them, so the
        # stored n_patterns column can distinguish "no feature stage ran"
        # (-1) from "features ran and found nothing" (0) on fragment streams.
        seen_features = False
        for stage in self.stages:
            if getattr(stage, "expect_features", False) is None:
                stage.expect_features = seen_features
            if stage.name == "features":
                seen_features = True

    # -- introspection ---------------------------------------------------------

    def stage(self, name: str) -> Stage:
        """Look up a stage by its ``name`` attribute."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named {name!r} in this pipeline")

    @property
    def extract_stage(self) -> ExtractStage | None:
        first = self.stages[0]
        return first if isinstance(first, ExtractStage) else None

    @property
    def default_sample_rate(self) -> int:
        extract = self.extract_stage
        return extract.config.sample_rate if extract is not None else 22050

    def _store_paths(self) -> list:
        return [
            stage.path if stage.path is not None else stage.writer.path
            for stage in self.stages
            if stage.name == "store"
        ]

    def patterns_for(self, samples: np.ndarray) -> list[np.ndarray]:
        """Feature patterns for a raw sample array (reference songs etc.).

        Uses the pipeline's feature stage at the pipeline's sample rate, so
        training patterns and extracted patterns live in the same space.
        """
        stage = self.stage("features")
        if stage.sample_rate is None:
            stage.start(self.default_sample_rate)
        return stage.patterns_for(samples)

    def to_river(
        self,
        name: str = "acoustic-pipeline",
        fan_out: int | dict[str, int] = 1,
        partition: str = "station",
        store=None,
    ):
        """Compile this pipeline's stage graph for Dynamic River."""
        if self.spec is None:
            raise PipelineBuildError(
                "this pipeline was built without a spec; use AcousticPipeline.to_river"
            )
        return self.spec.to_river(
            name=name, fan_out=fan_out, partition=partition, store=store
        )

    def deploy(self, clips, backend: str = "simulated", **kwargs):
        """Deploy this pipeline's compiled graph on a fabric (see
        :meth:`AcousticPipeline.deploy`)."""
        if self.spec is None:
            raise PipelineBuildError(
                "this pipeline was built without a spec; use AcousticPipeline.deploy"
            )
        return self.spec.deploy(clips, backend=backend, **kwargs)

    # -- execution -------------------------------------------------------------

    def run(
        self,
        source,
        sample_rate: int | None = None,
        *,
        store=None,
        recording: str | None = None,
        station: str | None = None,
    ) -> PipelineResult:
        """Run the pipeline to completion and collect a :class:`PipelineResult`.

        ``source`` may be an :class:`AcousticClip`, a raw sample array, a WAV
        file path, a decoded :class:`WavClip` or any iterable of sample
        chunks.  ``sample_rate`` overrides the rate for arrays and chunk
        iterables (clips and WAV files carry their own).

        ``store`` persists the result into a feature store — a directory
        path or an open :class:`~repro.store.StoreWriter` — as the new
        recording ``recording`` (a held name raises; omitted, the writer
        names it); ``station`` defaults to the source's ``station_id``.  A
        declared store stage records the same station, and ``store`` may
        not name the path such a stage writes (:class:`PipelineBuildError`).
        """
        refuse_second_writer(self, store)
        if station is None:
            station = str(getattr(source, "station_id", "") or "")
        chunks, rate = self._coerce_source(source, sample_rate)
        events = list(self._execute(chunks, rate, station))
        extract = self.extract_stage
        scores, trigger = extract.traces() if extract is not None else (None, None)
        total = extract.samples_seen if extract is not None else 0
        result = PipelineResult.from_events(
            events,
            sample_rate=rate,
            total_samples=total,
            anomaly_scores=scores,
            trigger=trigger,
        )
        if extract is not None:
            result.trace_offset = extract.trace_offset
        if store is not None:
            from ..store.writer import open_writer

            with open_writer(store) as writer:
                writer.write_result(recording, result, station=station)
        return result

    def run_from_store(
        self, store, recording: str, sample_rate: int | None = None
    ) -> PipelineResult:
        """Replay a stored recording through this pipeline's post-extraction
        stages, skipping DFT→PAA→SAX extraction entirely.

        Stored rows enter the graph as the events the extract (and, when
        patterns were stored, feature) stage would have produced, so the
        result is bit-identical to running the raw audio — locked by the
        parity tests in ``tests/test_store.py``.  Extraction traces are not
        stored, so ``anomaly_scores``/``trigger`` are ``None`` here.
        """
        from ..store.reader import coerce_reader

        reader = coerce_reader(store)
        info = reader.recording_info(recording)
        rate = int(sample_rate or info.sample_rate or self.default_sample_rate)
        stages = [
            stage
            for stage in self.stages
            if not isinstance(stage, ExtractStage) and stage.name != "store"
        ]
        for stage in stages:
            begin_run(stage, rate)
        # One push for the whole recording, so the feature and classify
        # stages batch across its ensembles.
        events = _push(
            stages,
            [
                FeaturesEvent(ensemble=stored.ensemble, patterns=stored.patterns)
                if stored.n_patterns >= 0
                else EnsembleEvent(ensemble=stored.ensemble)
                for stored in reader.iter_ensembles(recording=recording)
            ],
        )
        events.extend(_flush(stages, info.total_samples))
        return PipelineResult.from_events(
            events, sample_rate=rate, total_samples=info.total_samples
        )

    def run_corpus(
        self,
        corpus=None,
        *,
        backend: str = "serial",
        workers: int | None = None,
        sample_rate: int | None = None,
        store=None,
        from_store=None,
        recordings=None,
        ledger=None,
        ledger_config=None,
    ) -> list[PipelineResult]:
        """Run the pipeline over every item of a corpus, in corpus order.

        ``corpus`` is a sequence of independent sources — clips, raw sample
        arrays, WAV paths — or an object with a ``clips`` attribute such as
        :class:`~repro.synth.dataset.ClipCorpus`.  ``backend`` selects how
        items are executed: ``"serial"`` (the reference), ``"thread"`` or
        ``"process"``; all backends return bit-identical results (see
        :class:`~repro.pipeline.executor.CorpusExecutor`).

        ``store`` persists every result into a feature store as it
        completes; ``from_store`` replaces the corpus entirely, replaying
        the named ``recordings`` (default: all of them, in store order)
        through :meth:`run_from_store` instead of re-extracting.

        ``ledger`` (a file path or a live :class:`repro.jobs.Ledger`)
        makes the run durable: every item is tracked through a job ledger,
        failures retry with backoff and quarantine instead of aborting,
        and a killed run resumes where it stopped — with ``store=``, items
        persisted before the crash are recovered from the store rather
        than re-extracted.  Quarantined items return as ``None`` in their
        corpus positions (see :func:`repro.jobs.run_corpus`).
        ``ledger_config`` (a :class:`repro.jobs.LedgerConfig`) sets the
        retry policy when the ledger file is first created; an existing
        ledger keeps the policy it was created with.
        """
        return _run_corpus(
            self, corpus, backend=backend, workers=workers, sample_rate=sample_rate, store=store,
            from_store=from_store, recordings=recordings, ledger=ledger, ledger_config=ledger_config,
        )

    def extract_stream(
        self, chunks: Iterable[np.ndarray], sample_rate: int | None = None
    ) -> Iterator[PipelineEvent]:
        """Process an (unbounded) chunk stream, yielding events as they complete.

        Stage state carries over across chunk boundaries, so an ensemble
        spanning several chunks is stitched together exactly as if the
        signal had been processed in one piece.  The stream is flushed when
        the iterator is exhausted.

        For genuinely unbounded streams build the pipeline with
        ``.extract(..., keep_traces=False)`` (or bound the traces with
        ``max_trace_samples=``) — trace accumulation is the only per-sample
        state that grows with stream length.  To also bound per-*ensemble*
        memory and latency, use ``.extract(..., emit="fragments")`` with
        ``.features(emit="patterns")``: patterns then stream out while each
        ensemble is still open.
        """
        rate = int(sample_rate or self.default_sample_rate)
        return self._execute(chunks, rate)

    # -- internals -------------------------------------------------------------

    def _coerce_source(
        self, source, sample_rate: int | None
    ) -> tuple[Iterable[np.ndarray], int]:
        if isinstance(source, AcousticClip):
            return [source.samples], int(source.sample_rate)
        if isinstance(source, WavClip):
            return [self._mono(source.samples)], int(source.sample_rate)
        if isinstance(source, (str, Path)):
            wav = read_wav(source)
            return [self._mono(wav.samples)], int(wav.sample_rate)
        if isinstance(source, np.ndarray):
            return [source], int(sample_rate or self.default_sample_rate)
        # Chunk sources such as repro.pipeline.sources.WavChunkStream carry
        # their own rate; an explicit sample_rate argument still wins.
        own_rate = getattr(source, "sample_rate", None)
        rate = int(sample_rate or own_rate or self.default_sample_rate)
        # Mappings and raw byte blobs are technically iterable but never a
        # chunk stream; rejecting them here gives a clear TypeError instead
        # of a numpy conversion error deep inside the first stage.
        if isinstance(source, Iterable) and not isinstance(
            source, (dict, bytes, bytearray)
        ):
            return source, rate
        raise TypeError(
            "source must be an AcousticClip, WavClip, numpy array, WAV path "
            f"or an iterable of chunks, got {type(source).__name__}"
        )

    @staticmethod
    def _mono(samples: np.ndarray) -> np.ndarray:
        return samples if samples.ndim == 1 else samples[0]

    def _execute(
        self, chunks: Iterable[np.ndarray], sample_rate: int, station: str = ""
    ) -> Iterator[PipelineEvent]:
        """One run of every stage over ``chunks`` — the lifecycle a river
        clip scope gives each stage operator too."""
        for stage in self.stages:
            begin_run(stage, sample_rate, None, station)
        offset = 0
        for chunk in chunks:
            arr = np.asarray(chunk, dtype=float).ravel()
            signal = SignalChunk(samples=arr, sample_rate=sample_rate, offset=offset)
            offset += arr.size
            yield from _push(self.stages, [signal])
        yield from _flush(self.stages, offset)


def begin_run(stage: Stage, rate: int, recording: str | None = None, station: str = "") -> None:
    """Begin one run of ``stage`` at ``rate``; a store stage opens its
    ``recording`` (None: the writer names it) at ``station``."""
    stage.reset()
    stage.start(rate)
    if stage.name == "store":
        stage.begin(recording, station)


def end_run(stage: Stage, total_samples: int | None) -> list[PipelineEvent]:
    """End ``stage``'s run over ``total_samples`` samples and return its
    flush; a store stage seals its recording only over a known length."""
    if stage.name == "store":
        if total_samples is None:
            stage.reset()
            return []
        stage.observe_stream_end(total_samples)
    return stage.flush()


def _push(stages: list[Stage], events: list[PipelineEvent]) -> list[PipelineEvent]:
    """Push a batch of events through ``stages`` in order, one
    :meth:`~repro.pipeline.stages.Stage.process_events` call per stage."""
    for stage in stages:
        events = stage.process_events(events)
    return events


def _flush(stages: list[Stage], total_samples: int) -> list[PipelineEvent]:
    """End of stream: end each stage's run once, pushing its flushed events
    through the stages downstream of it (single pass, like
    :meth:`repro.river.Pipeline.flush`)."""
    pending: list[PipelineEvent] = []
    for stage in stages:
        pending = _push([stage], pending)
        pending.extend(end_run(stage, total_samples))
    return pending


def _run_corpus(
    pipeline: AcousticPipeline | BuiltPipeline, corpus, *, backend, workers, sample_rate,
    store, from_store, recordings, ledger, ledger_config,
) -> list[PipelineResult]:
    """The routing behind both ``run_corpus`` methods: ledgered run, store
    replay, or plain executor.  Only the replay needs a built graph."""
    if ledger is not None:
        if from_store is not None:
            raise PipelineBuildError(
                "ledger= tracks extraction work; a from_store= replay "
                "re-reads already-persisted rows, so there is nothing "
                "durable to ledger — pass one or the other"
            )
        from ..jobs import run_corpus as run_ledgered

        return run_ledgered(
            pipeline,
            corpus,
            ledger,
            backend=backend,
            workers=workers,
            sample_rate=sample_rate,
            store=store,
            recordings=recordings,
            config=ledger_config,
        )
    if from_store is None:
        from .executor import CorpusExecutor

        return CorpusExecutor(pipeline, backend=backend, workers=workers).run(
            corpus, sample_rate=sample_rate, store=store, recordings=recordings
        )
    if corpus is not None:
        raise PipelineBuildError("pass either a corpus or from_store=, not both")
    if isinstance(pipeline, AcousticPipeline):
        pipeline = pipeline.build()
    from ..store.reader import coerce_reader
    from ..store.writer import open_writer

    reader = coerce_reader(from_store)
    names = list(recordings) if recordings is not None else reader.recordings()
    if store is None:
        return [pipeline.run_from_store(reader, name, sample_rate=sample_rate) for name in names]
    # Read → enrich → persist sweep: replay each recording and write the
    # enriched result (e.g. patterns, labels) to a second store — never to
    # the input store, whose recordings are already written.
    with open_writer(store) as writer:
        results = []
        for name in names:
            result = pipeline.run_from_store(reader, name, sample_rate=sample_rate)
            info = reader.recording_info(name)
            writer.write_result(name, result, station=info.station)
            results.append(result)
    return results
