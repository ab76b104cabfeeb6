"""repro — reproduction of "Automated Ensemble Extraction and Analysis of Acoustic Data Streams".

The package reimplements the full system stack of the DEPSA/ICDCS 2007 paper
by Kasten, McKinley and Gage:

* :mod:`repro.timeseries` — Z-normalisation, PAA, SAX, SAX bitmaps and the
  motif / discord baselines from related work.
* :mod:`repro.dsp` — windows, DFT, spectrograms, oscillograms and WAV I/O.
* :mod:`repro.core` — the whole-clip extraction primitives
  (``sax_anomaly_scores``, ``AdaptiveTrigger``, ``cut_ensembles``) that
  ``normalization="global"`` chains, plus data-reduction accounting.
* :mod:`repro.pipeline` — **the primary API**: one composable stage graph
  (extract → features → classify) built with the fluent
  :class:`~repro.pipeline.AcousticPipeline` and executed in batch over
  clips / arrays / WAV files, in streaming over unbounded chunk iterators
  (``extract_stream``), or distributed via ``to_river()``.
* :mod:`repro.meso` — the MESO perceptual memory classifier (sensitivity
  spheres, sphere tree, online incremental learning).
* :mod:`repro.river` — the Dynamic River distributed stream-processing
  engine (records, nested scopes, operators, segments, recomposition and
  fault resilience).
* :mod:`repro.sensors` — simulated acoustic sensor stations and wireless
  links, including on-station extraction through an attached pipeline.
* :mod:`repro.synth` — the synthetic bird-song substrate standing in for the
  paper's field recordings.
* :mod:`repro.classify` — feature construction, ensemble voting and the
  cross-validation protocols of the evaluation.
* :mod:`repro.experiments` — drivers that regenerate every table and figure.

Quickstart::

    import numpy as np
    from repro import AcousticPipeline, ClipBuilder, FAST_EXTRACTION

    rng = np.random.default_rng(7)
    clip = ClipBuilder(sample_rate=16000, duration=10.0).build("NOCA", rng)
    pipe = AcousticPipeline().extract(FAST_EXTRACTION).build()
    result = pipe.run(clip)
    print(f"extracted {len(result.ensembles)} ensembles, "
          f"data reduction {result.reduction:.1%}")
"""

from .config import (
    FAST_EXTRACTION,
    PAPER_EXTRACTION,
    AnomalyConfig,
    ExtractionConfig,
    FeatureConfig,
    TriggerConfig,
)
from .core import (
    AdaptiveTrigger,
    Ensemble,
    ReductionReport,
    cut_ensembles,
    measure_reduction,
    sax_anomaly_scores,
)
from .classify import (
    ConfusionMatrix,
    EvaluationItem,
    ExperimentResult,
    leave_one_out,
    resubstitution,
)
from .meso import MesoClassifier, MesoConfig, SensitivitySphere, SphereTree
from .pipeline import (
    AcousticPipeline,
    BuiltPipeline,
    ChunkSourceError,
    ClassifyStage,
    CorpusExecutionError,
    CorpusExecutor,
    ExtractStage,
    FeatureStage,
    PipelineResult,
    STAGES,
    SocketChunkSource,
    Stage,
    StageRegistry,
    WavDirectorySource,
)
from .synth import (
    SPECIES,
    SPECIES_CODES,
    AcousticClip,
    ClipBuilder,
    ClipCorpus,
    CorpusSpec,
    SpeciesModel,
    build_corpus,
    get_species,
)

__version__ = "8.0.0"

__all__ = [
    "AcousticClip",
    "AcousticPipeline",
    "AdaptiveTrigger",
    "AnomalyConfig",
    "BuiltPipeline",
    "ChunkSourceError",
    "ClassifyStage",
    "ClipBuilder",
    "ClipCorpus",
    "ConfusionMatrix",
    "CorpusExecutionError",
    "CorpusExecutor",
    "CorpusSpec",
    "Ensemble",
    "EvaluationItem",
    "ExperimentResult",
    "ExtractStage",
    "ExtractionConfig",
    "FAST_EXTRACTION",
    "FeatureConfig",
    "FeatureStage",
    "MesoClassifier",
    "MesoConfig",
    "PAPER_EXTRACTION",
    "PipelineResult",
    "ReductionReport",
    "SPECIES",
    "SPECIES_CODES",
    "STAGES",
    "SensitivitySphere",
    "SocketChunkSource",
    "SphereTree",
    "SpeciesModel",
    "Stage",
    "StageRegistry",
    "TriggerConfig",
    "WavDirectorySource",
    "build_corpus",
    "cut_ensembles",
    "get_species",
    "leave_one_out",
    "measure_reduction",
    "resubstitution",
    "sax_anomaly_scores",
    "__version__",
]
