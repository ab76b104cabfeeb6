"""The unified acoustic pipeline: one stage graph, every execution mode.

This package is the single composable API over the paper's processing chain
(saxanomaly → trigger → cutter → features → MESO).  A pipeline is declared
once with the fluent :class:`AcousticPipeline` builder and then executed

* **batch** over an :class:`~repro.synth.clips.AcousticClip`, a raw numpy
  array, a decoded :class:`~repro.dsp.wav.WavClip` or a WAV file path
  (``BuiltPipeline.run``),
* **streaming** over an unbounded iterator of chunks with carry-over state
  across chunk boundaries (``BuiltPipeline.extract_stream``),
* **parallel** over a whole corpus of independent sources with serial,
  thread or process backends (``BuiltPipeline.run_corpus`` /
  :class:`CorpusExecutor`), or
* **distributed** as Dynamic River record operators compiled from the same
  stages (``to_river()``), deployable on simulated hosts or on real OS
  processes over socket channels (``deploy(backend="simulated"|"process")``).

The streaming engine (:mod:`repro.pipeline.streaming`) is exactly invariant
to chunking, so all three modes agree on the extracted ensembles, patterns
and labels.  New stages plug in through the :data:`STAGES` registry.

**Incremental ensemble fragments.**  By default a trigger-high run is
buffered until it closes; ``extract(emit="fragments")`` instead streams each
run as open / data / close fragment events *while it is still open*, and the
feature stage computes patterns incrementally from the fragments (emitting a
partial per-pattern event as soon as each pattern's records exist).  With
``features(emit="patterns")`` nothing is ever reassembled, so per-ensemble
peak memory is bounded by O(chunk + records_per_pattern × bins_per_record)
instead of O(run length), and the time to the first pattern of an ensemble
no longer waits for the ensemble to end.  Fragment mode is available on
every backend — batch, ``extract_stream()``, simulated river and process
river — and its final output is bit-identical to buffered mode.

Quickstart::

    from repro import FAST_EXTRACTION, MesoClassifier
    from repro.pipeline import AcousticPipeline

    meso = MesoClassifier()                      # train it first
    pipe = (
        AcousticPipeline()
        .extract(FAST_EXTRACTION)
        .features(use_paa=True)
        .classify(meso)
        .build()
    )
    result = pipe.run(clip)
    for ensemble, label in zip(result.ensembles, result.labels):
        print(f"{ensemble.duration:.2f}s -> {label}")
"""

from .builder import AcousticPipeline, BuiltPipeline, PipelineBuildError
from .executor import BACKENDS, CorpusExecutionError, CorpusExecutor
from .registry import STAGES, StageRegistry
from .results import (
    ClassifiedEvent,
    EnsembleEvent,
    EnsembleFragmentEvent,
    FeaturesEvent,
    PipelineEvent,
    PipelineResult,
    SignalChunk,
)
from .river_adapter import (
    DEPLOY_BACKENDS,
    EnsembleMergeOperator,
    EnsemblePartitionOperator,
    EnsembleStageOperator,
    ExtractStageOperator,
    collect_result,
    deploy_clips_via_river,
    replica_groups,
    run_clips_via_river,
)
from .sources import (
    ChunkSourceError,
    SocketChunkSource,
    WavChunkStream,
    WavDirectorySource,
)
from .stages import (
    BatchOnlyStageError,
    ClassifyStage,
    ExtractStage,
    FeatureStage,
    Stage,
)
from .streaming import (
    ChunkedAnomalyScorer,
    ChunkedCutter,
    FragmentClose,
    FragmentData,
    FragmentOpen,
    RunningNormalizer,
)

__all__ = [
    "AcousticPipeline",
    "BACKENDS",
    "BatchOnlyStageError",
    "BuiltPipeline",
    "ChunkSourceError",
    "ChunkedAnomalyScorer",
    "ChunkedCutter",
    "ClassifiedEvent",
    "ClassifyStage",
    "CorpusExecutionError",
    "CorpusExecutor",
    "DEPLOY_BACKENDS",
    "EnsembleEvent",
    "EnsembleFragmentEvent",
    "EnsembleMergeOperator",
    "EnsemblePartitionOperator",
    "EnsembleStageOperator",
    "ExtractStage",
    "ExtractStageOperator",
    "FeatureStage",
    "FeaturesEvent",
    "FragmentClose",
    "FragmentData",
    "FragmentOpen",
    "PipelineBuildError",
    "PipelineEvent",
    "PipelineResult",
    "RunningNormalizer",
    "STAGES",
    "SignalChunk",
    "SocketChunkSource",
    "Stage",
    "StageRegistry",
    "WavChunkStream",
    "WavDirectorySource",
    "collect_result",
    "deploy_clips_via_river",
    "replica_groups",
    "run_clips_via_river",
]
