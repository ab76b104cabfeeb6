"""On-disk schema of the persistent ensemble/feature store.

A store is a directory::

    <store>/
        manifest.json      # schema version, backend, shard index, recordings
        shards/            # immutable columnar shard files, append-only
            000000-ensembles.npz
            000001-audio.npz
            ...
        classifiers/       # optional persisted MESO classifiers (meso_io)

Three table kinds hold the extracted data, keyed by
``(recording, station, ensemble ordinal, time offset)``:

* ``ensembles`` — one row per *closed* ensemble: boundaries, sample rate,
  the classifier verdict (``label``) and the ensemble's own ground-truth
  label (``ens_label``), plus ``n_patterns`` (``-1`` when no feature stage
  ran, ``0`` for a run too short to yield a single pattern).
* ``audio`` — zero or more contiguous sample slices per ensemble
  (``offset`` is absolute within the recording), written incrementally by
  fragment-streamed writers.  No rows means a sample-less ensemble shell,
  exactly like ``features(emit="patterns")`` results.
* ``patterns`` — one row per spectro-temporal pattern, in pattern order.

The ``ensembles`` row is only written when the ensemble *closes*, so a
writer interrupted mid-ensemble leaves orphaned audio/pattern rows that
readers surface as incomplete instead of truncated-but-valid data.
"""

from __future__ import annotations

__all__ = [
    "SCHEMA_VERSION",
    "MANIFEST_NAME",
    "SHARD_DIR",
    "CLASSIFIER_DIR",
    "ENSEMBLES",
    "AUDIO",
    "PATTERNS",
    "TABLE_KINDS",
    "SCALAR_COLUMNS",
    "RAGGED_COLUMNS",
    "recording_name",
]

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
SHARD_DIR = "shards"
CLASSIFIER_DIR = "classifiers"


def recording_name(index: int) -> str:
    """The one default recording name (corpus item ``index``; a writer takes
    the first free one for an unnamed recording)."""
    return f"rec-{int(index):05d}"


ENSEMBLES = "ensembles"
AUDIO = "audio"
PATTERNS = "patterns"
TABLE_KINDS = (ENSEMBLES, AUDIO, PATTERNS)

#: Table kinds of a persisted MESO classifier (see repro.store.meso_io) —
#: not part of the shard stream, but serialised by the same backends.
MESO_SPHERES = "meso_spheres"
MESO_MEMBERS = "meso_members"

#: Scalar columns per table kind: name -> "int" | "str".  Optional string
#: values pair with a has_* flag so the empty string stays distinguishable
#: from "absent" across both backends.
SCALAR_COLUMNS = {
    ENSEMBLES: {
        "recording": "str",
        "station": "str",
        "ordinal": "int",
        "start": "int",
        "end": "int",
        "sample_rate": "int",
        "label": "str",
        "has_label": "int",
        "ens_label": "str",
        "has_ens_label": "int",
        "n_patterns": "int",
    },
    AUDIO: {"recording": "str", "ordinal": "int", "offset": "int"},
    PATTERNS: {"recording": "str", "ordinal": "int", "index": "int"},
    MESO_SPHERES: {"sphere": "int"},
    MESO_MEMBERS: {"sphere": "int", "index": "int", "label": "str"},
}

#: Ragged float64 columns per table kind (variable-length per row).
RAGGED_COLUMNS = {
    ENSEMBLES: (),
    AUDIO: ("samples",),
    PATTERNS: ("values",),
    MESO_SPHERES: ("center",),
    MESO_MEMBERS: ("values",),
}
