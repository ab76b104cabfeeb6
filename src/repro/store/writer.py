"""Chunked, append-friendly writing of ensembles, patterns and audio.

:class:`StoreWriter` buffers rows in memory and flushes them as immutable
columnar shard files once the buffered ragged payload exceeds
``flush_values`` floats — so a fragment-streamed write of a still-open
ensemble never buffers the whole ensemble, only the rows not yet flushed.
The manifest (shard index + per-recording metadata) is rewritten atomically
on every flush, which makes the store append-friendly: re-opening an
existing store continues its shard numbering and recording table.

A recording is written once (:meth:`StoreWriter.begin_recording`) and its
ensemble ordinals rise (:meth:`StoreWriter.close_ensemble`), so ensemble
keys are unique and in order when they are written.

Durability contract: the row describing an ensemble (boundaries, labels,
pattern count) is written only by :meth:`close_ensemble`.  Audio slices and
patterns of a *still-open* ensemble may already sit in flushed shards, but
without their ``ensembles`` row readers treat them as incomplete — an
interrupted write can never masquerade as a shorter-but-valid ensemble.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

import numpy as np

from .backends import Backend, StoreError, resolve_backend, rows_to_columns, write_shard
from .schema import AUDIO, ENSEMBLES, MANIFEST_NAME, PATTERNS, SCHEMA_VERSION, SHARD_DIR, TABLE_KINDS
from .schema import recording_name

__all__ = ["StoreWriter", "open_writer"]

#: Default flush threshold: buffered ragged floats before a shard is cut.
DEFAULT_FLUSH_VALUES = 262_144


def _check_label(label, what: str):
    if label is None or isinstance(label, str):
        return label
    raise StoreError(
        f"{what} must be a string or None to persist, got {type(label).__name__}; "
        "map labels to strings before storing"
    )


class StoreWriter:
    """Append ensembles, audio slices and patterns to a store directory."""

    def __init__(self, path, backend: str = "auto", flush_values: int = DEFAULT_FLUSH_VALUES) -> None:
        if flush_values < 1:
            raise StoreError(f"flush_values must be >= 1, got {flush_values}")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        (self.path / SHARD_DIR).mkdir(exist_ok=True)
        self.flush_values = int(flush_values)
        manifest_path = self.path / MANIFEST_NAME
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text())
            version = manifest.get("schema_version")
            if version != SCHEMA_VERSION:
                raise StoreError(
                    f"store at {self.path} has schema version {version!r}; "
                    f"this writer speaks version {SCHEMA_VERSION}"
                )
            existing = manifest.get("backend", "npz")
            if backend not in ("auto", existing):
                raise StoreError(
                    f"store at {self.path} was written with the {existing!r} "
                    f"backend; cannot append with {backend!r}"
                )
            self.backend: Backend = resolve_backend(existing)
            self._manifest = manifest
        else:
            self.backend = resolve_backend(backend)
            self._manifest = {
                "schema_version": SCHEMA_VERSION,
                "backend": self.backend.name,
                "shards": [],
                "recordings": {},
            }
        self._seq = len(self._manifest["shards"])
        self._rows: dict[str, list[dict]] = {kind: [] for kind in TABLE_KINDS}
        self._buffered_values = 0
        #: (recording, ordinal) -> {"start": int, "sample_rate": int | None}
        self._sessions: dict[tuple[str, int], dict] = {}
        #: recording -> the last ordinal this writer sealed for it.
        self._sealed: dict[str, int] = {}
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Flush everything buffered and seal the writer."""
        if not self._closed:
            self.flush()
            self._closed = True

    def flush(self) -> None:
        """Cut buffered rows into shard files and rewrite the manifest."""
        self._require_open()
        for kind in TABLE_KINDS:
            rows = self._rows[kind]
            if not rows:
                continue
            name = f"{self._seq:06d}-{kind}{self.backend.extension}"
            self._seq += 1
            digest = write_shard(
                self.backend, self.path / SHARD_DIR / name, kind, rows_to_columns(kind, rows)
            )
            self._manifest["shards"].append(
                {"name": name, "kind": kind, "rows": len(rows), "sha256": digest}
            )
            self._rows[kind] = []
        self._buffered_values = 0
        self._write_manifest()

    def _write_manifest(self) -> None:
        manifest_path = self.path / MANIFEST_NAME
        tmp_path = self.path / (MANIFEST_NAME + ".tmp")
        tmp_path.write_text(json.dumps(self._manifest, sort_keys=True))
        os.replace(tmp_path, manifest_path)

    def _require_open(self) -> None:
        if self._closed:
            raise StoreError(f"writer for {self.path} is closed")

    def _maybe_flush(self) -> None:
        if self._buffered_values >= self.flush_values:
            self.flush()

    # -- recordings ------------------------------------------------------------

    def recordings(self) -> list[str]:
        return list(self._manifest["recordings"])

    def begin_recording(
        self,
        recording: str | None,
        station: str = "",
        sample_rate: int = 0,
        meta: dict | None = None,
    ) -> str:
        """Open a new recording (``None``: the first free
        :func:`recording_name`) and return its name; it stays incomplete
        until :meth:`end_recording`.  A name the manifest holds, complete or
        partial, raises :class:`StoreError`: the store has no row delete."""
        self._require_open()
        recordings = self._manifest["recordings"]
        if recording is None:
            recording = next(
                name for name in map(recording_name, itertools.count()) if name not in recordings
            )
        elif recording in recordings:
            raise StoreError(
                f"recording {recording!r} is already in the store at {self.path}; "
                "the store is append-only with no row delete, so a recording is "
                "written once — write to a new recording name or a new store"
            )
        recordings[recording] = {
            "station": str(station or ""),
            "sample_rate": int(sample_rate or 0),
            "total_samples": 0,
            "complete": False,
            "ensembles": 0,
            "meta": dict(meta or {}),
        }
        return recording

    def end_recording(
        self, recording: str, total_samples: int | None = None, meta: dict | None = None
    ) -> None:
        """Mark a recording complete (its extraction ran to the end)."""
        self._require_open()
        info = self._manifest["recordings"].get(recording)
        if info is None:
            raise StoreError(f"unknown recording {recording!r}; call begin_recording first")
        if total_samples is not None:
            info["total_samples"] = int(total_samples)
        if meta:
            info["meta"].update(meta)
        info["complete"] = True

    # -- incremental ensemble writing ------------------------------------------

    def open_ensemble(
        self, recording: str, ordinal: int, start: int, sample_rate: int | None = None
    ) -> None:
        """Start an ensemble session; nothing is durable until it closes."""
        self._require_open()
        self._sessions[(recording, int(ordinal))] = {
            "start": int(start),
            "sample_rate": sample_rate,
        }

    def append_audio(self, recording: str, ordinal: int, offset: int, samples) -> None:
        """Append one contiguous audio slice (``offset`` absolute in the
        recording)."""
        self._require_open()
        samples = np.asarray(samples, dtype=np.float64).ravel()
        self._rows[AUDIO].append(
            {
                "recording": recording,
                "ordinal": int(ordinal),
                "offset": int(offset),
                "samples": samples,
            }
        )
        self._buffered_values += samples.size
        self._maybe_flush()

    def append_pattern(self, recording: str, ordinal: int, index: int, values) -> None:
        """Append one spectro-temporal pattern (``index`` is pattern order)."""
        self._require_open()
        values = np.asarray(values, dtype=np.float64).ravel()
        self._rows[PATTERNS].append(
            {
                "recording": recording,
                "ordinal": int(ordinal),
                "index": int(index),
                "values": values,
            }
        )
        self._buffered_values += values.size
        self._maybe_flush()

    def close_ensemble(
        self,
        recording: str,
        ordinal: int,
        end: int,
        n_patterns: int,
        label: str | None = None,
        ens_label: str | None = None,
        start: int | None = None,
        sample_rate: int | None = None,
        station: str | None = None,
    ) -> None:
        """Seal one ensemble: writes the row that makes it readable.

        ``n_patterns`` is the feature-stage accounting: ``-1`` when no
        feature stage ran, ``0`` for a short ensemble, else the count.
        ``start``/``sample_rate`` default from the matching
        :meth:`open_ensemble` session; ``station`` from the recording.
        Ordinals must rise: one at or below the last ordinal this writer
        sealed for ``recording`` raises :class:`StoreError`.
        """
        self._require_open()
        last = self._sealed.get(recording)
        if last is not None and int(ordinal) <= last:
            raise StoreError(
                f"close_ensemble({recording!r}, {ordinal}) after ordinal {last} was "
                "sealed; ensemble ordinals must be unique and increasing within "
                "a recording"
            )
        session = self._sessions.pop((recording, int(ordinal)), None)
        if start is None:
            if session is None:
                raise StoreError(
                    f"close_ensemble({recording!r}, {ordinal}) without a prior "
                    "open_ensemble needs an explicit start"
                )
            start = session["start"]
        info = self._manifest["recordings"].get(recording, {})
        if sample_rate is None:
            sample_rate = (session or {}).get("sample_rate") or info.get("sample_rate") or 0
        if station is None:
            station = info.get("station", "")
        label = _check_label(label, "ensemble label")
        ens_label = _check_label(ens_label, "ensemble ground-truth label")
        self._rows[ENSEMBLES].append(
            {
                "recording": recording,
                "station": station or "",
                "ordinal": int(ordinal),
                "start": int(start),
                "end": int(end),
                "sample_rate": int(sample_rate),
                "label": label or "",
                "has_label": int(label is not None),
                "ens_label": ens_label or "",
                "has_ens_label": int(ens_label is not None),
                "n_patterns": int(n_patterns),
            }
        )
        self._sealed[recording] = int(ordinal)
        if recording in self._manifest["recordings"]:
            self._manifest["recordings"][recording]["ensembles"] += 1
        self._maybe_flush()

    # -- whole-ensemble and whole-result convenience ---------------------------

    def write_ensemble(
        self, recording: str, ordinal: int, ensemble, patterns=(), n_patterns: int = -1, label=None
    ) -> None:
        """Persist one whole ensemble — the single open → audio → patterns →
        close sequence (``n_patterns`` / ``label`` as in :meth:`close_ensemble`)."""
        self.open_ensemble(recording, ordinal, ensemble.start, sample_rate=ensemble.sample_rate)
        if ensemble.samples.size:
            self.append_audio(recording, ordinal, ensemble.start, ensemble.samples)
        for index, pattern in enumerate(patterns):
            self.append_pattern(recording, ordinal, index, pattern)
        self.close_ensemble(
            recording,
            ordinal,
            ensemble.end,
            n_patterns=n_patterns,
            label=label,
            ens_label=ensemble.label,
            sample_rate=ensemble.sample_rate,
        )

    def write_result(
        self,
        recording: str | None,
        result,
        station: str = "",
        features: bool | None = None,
        meta: dict | None = None,
    ) -> None:
        """Persist one :class:`~repro.pipeline.results.PipelineResult` whole
        as a new recording (``None`` lets :meth:`begin_recording` name it).

        ``features`` says whether a feature stage ran (it decides between
        ``n_patterns=0`` and ``n_patterns=-1`` for pattern-less ensembles);
        when None it is inferred from the result's pattern/short accounting,
        which is exact for any result holding an ensemble: behind a feature
        stage every ensemble has patterns or counts as short.
        """
        if features is None:
            features = (
                any(len(patterns) for patterns in result.patterns)
                or result.short_ensembles > 0
            )
        recording = self.begin_recording(
            recording, station=station, sample_rate=result.sample_rate, meta=meta
        )
        rows = zip(result.ensembles, result.patterns, result.labels)
        for ordinal, (ensemble, patterns, label) in enumerate(rows):
            self.write_ensemble(
                recording, ordinal, ensemble, patterns,
                n_patterns=len(patterns) if features else -1, label=label,
            )
        self.end_recording(recording, total_samples=result.total_samples)

    def write_ensembles(
        self,
        recording: str | None,
        ensembles,
        sample_rate: int | None = None,
        total_samples: int | None = None,
        station: str = "",
        meta: dict | None = None,
    ) -> None:
        """Persist bare labelled ensembles (no feature stage: ``n_patterns=-1``)
        as a new recording."""
        ensembles = list(ensembles)
        if sample_rate is None and ensembles:
            sample_rate = ensembles[0].sample_rate
        recording = self.begin_recording(
            recording, station=station, sample_rate=int(sample_rate or 0), meta=meta
        )
        for ordinal, ensemble in enumerate(ensembles):
            self.write_ensemble(recording, ordinal, ensemble)
        self.end_recording(recording, total_samples=total_samples)

    # -- classifier persistence ------------------------------------------------

    def save_classifier(self, name: str, classifier) -> None:
        """Persist a MESO classifier under this store (see
        :mod:`repro.store.meso_io`)."""
        from .meso_io import save_meso
        from .schema import CLASSIFIER_DIR

        self._require_open()
        target = self.path / CLASSIFIER_DIR / name
        save_meso(classifier, target, backend=self.backend.name)
        self._manifest.setdefault("classifiers", {})[name] = {
            "path": f"{CLASSIFIER_DIR}/{name}"
        }
        self._write_manifest()


class open_writer:
    """``with open_writer(store) as writer:`` — the one writer lifecycle.

    ``store`` is a directory path (opened with ``flush_values``, closed on
    exit), a live :class:`StoreWriter` (flushed on exit) or None.  The exit
    also runs when the block raises, but then a failing flush is kept as
    :attr:`flush_error` rather than replacing the exception in flight.
    """

    def __init__(self, store, flush_values: int = DEFAULT_FLUSH_VALUES) -> None:
        self.store = store
        self.flush_values = flush_values
        self.writer: StoreWriter | None = None
        self.flush_error: Exception | None = None

    def __enter__(self) -> StoreWriter | None:
        if self.store is None or isinstance(self.store, StoreWriter):
            self.writer = self.store
        else:
            self.writer = StoreWriter(self.store, flush_values=self.flush_values)
        return self.writer

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.writer is None:
            return
        try:
            self.writer.flush() if self.writer is self.store else self.writer.close()
        except Exception as error:
            if exc_type is None:
                raise
            self.flush_error = error
