"""Reading ensembles, patterns and results back out of a store.

:class:`StoreReader` loads the manifest eagerly and the shard tables
lazily (once, on first access).  Rows are grouped back into
:class:`StoredEnsemble` views — the reconstructed
:class:`~repro.core.cutter.Ensemble` plus its pattern tuple and labels —
filterable by recording, station, time window and label.

Audio/pattern rows whose ``ensembles`` row never arrived (a writer died
mid-ensemble) are *incomplete*: excluded from iteration by default and
surfaced through :meth:`StoreReader.incomplete`.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.cutter import Ensemble
from .backends import Backend, StoreError, columns_to_rows, resolve_backend
from .schema import AUDIO, ENSEMBLES, MANIFEST_NAME, PATTERNS, SCHEMA_VERSION, SHARD_DIR

__all__ = ["StoreReader", "StoredEnsemble", "RecordingInfo", "coerce_reader"]


@dataclass(frozen=True)
class RecordingInfo:
    """Per-recording metadata from the store manifest."""

    name: str
    station: str = ""
    sample_rate: int = 0
    total_samples: int = 0
    complete: bool = False
    ensembles: int = 0
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StoredEnsemble:
    """One stored ensemble: reconstruction plus its store-level metadata.

    ``label`` is the classifier verdict persisted with the row (None when
    no classify stage ran); the ensemble's own ground-truth label rides on
    ``ensemble.label``.  ``n_patterns`` keeps the feature-stage accounting
    (-1: no feature stage, 0: short ensemble, else the pattern count).
    """

    recording: str
    station: str
    ordinal: int
    ensemble: Ensemble
    patterns: tuple[np.ndarray, ...]
    label: str | None
    n_patterns: int
    complete: bool = True


class StoreReader:
    """Read-side view over a store directory written by ``StoreWriter``."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        manifest_path = self.path / MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"no store manifest at {manifest_path}")
        self.manifest = json.loads(manifest_path.read_text())
        version = self.manifest.get("schema_version")
        if version != SCHEMA_VERSION:
            raise StoreError(
                f"store at {self.path} has schema version {version!r}; "
                f"this reader speaks version {SCHEMA_VERSION}"
            )
        self.backend: Backend = resolve_backend(self.manifest.get("backend", "npz"))
        self._rows: dict[str, list[dict]] | None = None
        # Ensemble rows in (recording, ordinal) order, all and per recording;
        # built once with the rows so a filtered read never re-sorts them.
        self._ordered: list[dict] = []
        self._by_recording: dict[str, list[dict]] = {}
        self._audio: dict[tuple[str, int], list[dict]] | None = None
        self._patterns: dict[tuple[str, int], list[dict]] | None = None

    # -- manifest-level views --------------------------------------------------

    @property
    def schema_version(self) -> int:
        return int(self.manifest["schema_version"])

    def recordings(self) -> list[str]:
        return list(self.manifest.get("recordings", {}))

    def recording_info(self, recording: str) -> RecordingInfo:
        info = self.manifest.get("recordings", {}).get(recording)
        if info is None:
            known = ", ".join(self.recordings()) or "<none>"
            raise StoreError(
                f"unknown recording {recording!r} in store {self.path}; has: {known}"
            )
        return RecordingInfo(
            name=recording,
            station=info.get("station", ""),
            sample_rate=int(info.get("sample_rate", 0)),
            total_samples=int(info.get("total_samples", 0)),
            complete=bool(info.get("complete", False)),
            ensembles=int(info.get("ensembles", 0)),
            meta=dict(info.get("meta", {})),
        )

    def counts(self) -> dict[str, int]:
        """Row counts per table kind, straight from the shard index."""
        counts = {ENSEMBLES: 0, AUDIO: 0, PATTERNS: 0}
        for shard in self.manifest.get("shards", []):
            counts[shard["kind"]] = counts.get(shard["kind"], 0) + int(shard["rows"])
        return counts

    def classifiers(self) -> list[str]:
        return list(self.manifest.get("classifiers", {}))

    def load_classifier(self, name: str):
        """Load a MESO classifier persisted with
        :meth:`StoreWriter.save_classifier`."""
        from .meso_io import load_meso

        entry = self.manifest.get("classifiers", {}).get(name)
        if entry is None:
            known = ", ".join(self.classifiers()) or "<none>"
            raise StoreError(
                f"no classifier {name!r} in store {self.path}; has: {known}"
            )
        return load_meso(self.path / entry["path"])

    # -- shard loading ---------------------------------------------------------

    def _load(self) -> dict[str, list[dict]]:
        if self._rows is None:
            rows: dict[str, list[dict]] = {kind: [] for kind in (ENSEMBLES, AUDIO, PATTERNS)}
            for shard in self.manifest.get("shards", []):
                shard_path = self.path / SHARD_DIR / shard["name"]
                columns = self.backend.read_table(shard_path, shard["kind"])
                rows[shard["kind"]].extend(columns_to_rows(shard["kind"], columns))
            self._rows = rows
            self._ordered = sorted(
                rows[ENSEMBLES], key=lambda row: (row["recording"], row["ordinal"])
            )
            for row in self._ordered:
                self._by_recording.setdefault(row["recording"], []).append(row)
            audio: dict[tuple[str, int], list[dict]] = {}
            for row in rows[AUDIO]:
                audio.setdefault((row["recording"], row["ordinal"]), []).append(row)
            patterns: dict[tuple[str, int], list[dict]] = {}
            for row in rows[PATTERNS]:
                patterns.setdefault((row["recording"], row["ordinal"]), []).append(row)
            self._audio = audio
            self._patterns = patterns
        return self._rows

    def _stored(self, row: dict) -> StoredEnsemble:
        key = (row["recording"], row["ordinal"])
        audio_rows = sorted(self._audio.get(key, []), key=lambda r: r["offset"])
        if audio_rows:
            parts = [r["samples"] for r in audio_rows]
            samples = parts[0] if len(parts) == 1 else np.concatenate(parts)
        else:
            samples = np.zeros(0)
        pattern_rows = sorted(self._patterns.get(key, []), key=lambda r: r["index"])
        ens_label = row["ens_label"] if row["has_ens_label"] else None
        ensemble = Ensemble(
            samples=samples,
            start=row["start"],
            end=row["end"],
            sample_rate=row["sample_rate"],
            label=ens_label,
        )
        return StoredEnsemble(
            recording=row["recording"],
            station=row["station"],
            ordinal=row["ordinal"],
            ensemble=ensemble,
            patterns=tuple(r["values"] for r in pattern_rows),
            label=row["label"] if row["has_label"] else None,
            n_patterns=row["n_patterns"],
        )

    # -- iteration -------------------------------------------------------------

    def iter_ensembles(
        self,
        recording: str | None = None,
        station: str | None = None,
        label: str | None = None,
        since: int | None = None,
        until: int | None = None,
    ):
        """Yield :class:`StoredEnsemble` rows, filtered and in store order.

        ``since``/``until`` bound the ensemble *start* offset (samples,
        half-open).  ``label`` matches either the classifier verdict or the
        ground-truth label.  Only closed (complete) ensembles are yielded;
        see :meth:`incomplete` for interrupted ones.
        """
        self._load()
        if recording is None:
            rows = self._ordered
        else:
            rows = self._by_recording.get(recording, [])
        for row in rows:
            if station is not None and row["station"] != station:
                continue
            if since is not None and row["start"] < since:
                continue
            if until is not None and row["start"] >= until:
                continue
            if label is not None:
                verdict = row["label"] if row["has_label"] else None
                truth = row["ens_label"] if row["has_ens_label"] else None
                if label not in (verdict, truth):
                    continue
            yield self._stored(row)

    def iter_patterns(self, **filters):
        """Yield ``(stored_ensemble, index, pattern)`` per stored pattern.

        Accepts the same filters as :meth:`iter_ensembles`.
        """
        for stored in self.iter_ensembles(**filters):
            for index, pattern in enumerate(stored.patterns):
                yield stored, index, pattern

    def incomplete(self) -> dict:
        """What an interrupted writer left behind.

        Returns ``{"ensembles": [(recording, ordinal), ...], "recordings":
        [name, ...]}`` — ensemble keys with audio or pattern rows but no
        closing ``ensembles`` row, and recordings never marked complete.
        """
        self._load()
        closed = {
            (row["recording"], row["ordinal"]) for row in self._rows[ENSEMBLES]
        }
        orphaned = sorted(
            (set(self._audio) | set(self._patterns)) - closed
        )
        unfinished = [
            name
            for name, info in self.manifest.get("recordings", {}).items()
            if not info.get("complete", False)
        ]
        return {"ensembles": orphaned, "recordings": unfinished}

    # -- result reconstruction -------------------------------------------------

    def result(self, recording: str):
        """Rebuild the :class:`~repro.pipeline.results.PipelineResult` of one
        recording.

        Bit-identical to the result that was stored: ensembles (audio
        reassembled in offset order), patterns, labels and the
        short-ensemble count (rows with ``n_patterns == 0``).  Traces are
        not persisted, so ``anomaly_scores``/``trigger`` are None.
        """
        from ..pipeline.results import PipelineResult

        info = self.recording_info(recording)
        result = PipelineResult(
            sample_rate=info.sample_rate, total_samples=info.total_samples
        )
        for stored in self.iter_ensembles(recording=recording):
            result.ensembles.append(stored.ensemble)
            result.patterns.append(stored.patterns)
            result.labels.append(stored.label)
            if stored.n_patterns == 0:
                result.short_ensembles += 1
        return result

    # -- verification ----------------------------------------------------------

    def verify(self) -> list[str]:
        """Recompute per-shard checksums and check that no ensemble key
        ``(recording, ordinal)`` is stored twice; return a list of problems
        (empty when the store is intact).  Orphaned audio/pattern rows are
        *incomplete* (see :meth:`incomplete`), not a problem."""
        problems: list[str] = []
        for shard in self.manifest.get("shards", []):
            shard_path = self.path / SHARD_DIR / shard["name"]
            if not shard_path.exists():
                problems.append(f"missing shard {shard['name']}")
                continue
            digest = hashlib.sha256(shard_path.read_bytes()).hexdigest()
            if digest != shard["sha256"]:
                problems.append(
                    f"checksum mismatch in shard {shard['name']}: "
                    f"manifest {shard['sha256'][:12]}…, file {digest[:12]}…"
                )
        try:
            rows = self._load()
        except Exception as exc:  # noqa: BLE001 - verification must not raise
            problems.append(f"shards failed to load: {type(exc).__name__}: {exc}")
            return problems
        counted = self.counts()
        for kind, expected in counted.items():
            if len(rows[kind]) != expected:
                problems.append(
                    f"{kind} row count mismatch: manifest says {expected}, "
                    f"shards hold {len(rows[kind])}"
                )
        keys = Counter((row["recording"], row["ordinal"]) for row in rows[ENSEMBLES])
        doubled = Counter(recording for (recording, _), n in keys.items() if n > 1)
        for recording, count in sorted(doubled.items()):
            problems.append(
                f"recording {recording!r} holds {count} ensemble ordinal(s) more "
                "than once (it was written twice); rewrite it into a new store"
            )
        return problems


def coerce_reader(store) -> StoreReader:
    """Turn ``store`` (a path or a live reader) into a :class:`StoreReader`."""
    if isinstance(store, StoreReader):
        return store
    return StoreReader(store)
