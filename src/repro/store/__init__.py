"""Persistent ensemble/feature store: classify and sweep without re-extracting.

The paper's workload is a long-running acoustic observatory: stations
extract ensembles continuously and MESO classifies them.  This package
persists the extracted data — ensembles, audio slices, spectro-temporal
patterns, labels — in a chunked, append-friendly columnar store so
experiments re-classify and sweep without re-running DFT→PAA→SAX
extraction from raw audio.

Two interchangeable shard backends (bit-exact for float64):

* ``parquet`` — Apache Parquet via pyarrow (the ``[store]`` extra);
* ``npz`` — pure-numpy fallback, so the core has zero hard dependencies.
  ``backend="auto"`` picks parquet when importable, else npz.

Write paths, all feeding the same :class:`StoreWriter` (whole ensembles
through its one :meth:`~StoreWriter.write_ensemble` sequence):

* ``BuiltPipeline.run(..., store=path)`` / ``run_corpus(..., store=path)``
  persist results as they complete;
* ``.stage("store", path=...)`` plugs a pass-through
  :class:`StoreWriterStage` into the stage graph — fragment streams are
  appended event by event, so a still-open ensemble never buffers whole.
  It stores what its position sees on every fabric: a compiled river graph
  runs the declared stage there as a :class:`StoreSinkOperator`, fed the
  events the river's scope decoder reads off the record stream;
* ``to_river(store=path)`` / ``deploy(..., store=path)`` append a store
  stage at the graph's tail.

A recording is written once: every path hands the writer the name (or
None, for the first free :func:`~repro.store.schema.recording_name`), and
:meth:`StoreWriter.begin_recording` raises :class:`StoreError` for a name
the store already holds.  A store path takes one writer per run: a second
store stage on it, or ``store=`` naming it next to a store stage, is a
:class:`~repro.pipeline.PipelineBuildError`.

Read paths: :class:`StoreReader` iterates stored ensembles/patterns with
station/time/label filters, ``BuiltPipeline.run_from_store()`` /
``run_corpus(from_store=...)`` re-run the classify-side stages over stored
rows (bit-identical to classify-from-raw), and the experiment drivers grow
``store=`` / ``from_store=`` knobs.  MESO classifiers persist through the
same backends (:meth:`StoreWriter.save_classifier` /
:meth:`StoreReader.load_classifier`).

Interrupted writes surface as *incomplete* — an ensemble only becomes
readable when its closing row lands — and ``python -m repro.store
ls|info|verify <path>`` inspects a store from the command line.
"""

from .backends import (
    StoreError,
    StoreIntegrityError,
    StoreUnavailableError,
    available_backends,
    default_backend,
    resolve_backend,
)
from .meso_io import load_meso, save_meso
from .reader import RecordingInfo, StoredEnsemble, StoreReader, coerce_reader
from .river_sink import StoreSinkOperator
from .schema import SCHEMA_VERSION
from .stage import StoreWriterStage
from .writer import StoreWriter, open_writer

__all__ = [
    "SCHEMA_VERSION",
    "RecordingInfo",
    "StoreError",
    "StoreIntegrityError",
    "StoreReader",
    "StoreSinkOperator",
    "StoreUnavailableError",
    "StoreWriter",
    "StoreWriterStage",
    "StoredEnsemble",
    "available_backends",
    "coerce_reader",
    "default_backend",
    "load_meso",
    "open_writer",
    "resolve_backend",
    "save_meso",
]
