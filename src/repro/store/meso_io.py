"""Persisting a MESO classifier through the store backends.

MESO's trained memory is exactly reproducible from its construction
history: a sphere's centre is the running mean of its members, accumulated
in insertion order, so re-adding the members in that order rebuilds the
centre matrix bit-for-bit.  This module saves each sphere's members (with
labels, in order) plus the centre it had at save time, and verifies on
load that the replayed centres match the stored ones — a corrupted or
reordered store raises :class:`~repro.store.backends.StoreIntegrityError`
instead of silently mis-classifying.

The sphere tree is not persisted: it is a pure query accelerator, rebuilt
lazily from the spheres on the first large query (the seed of the
ROADMAP's disk-backed MESO index).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .backends import (
    StoreError,
    StoreIntegrityError,
    columns_to_rows,
    resolve_backend,
    rows_to_columns,
    write_shard,
)
from .schema import MESO_MEMBERS, MESO_SPHERES, SCHEMA_VERSION

__all__ = ["save_meso", "load_meso"]

META_NAME = "meso.json"


def save_meso(classifier, path, backend: str = "auto") -> Path:
    """Persist a trained :class:`~repro.meso.classifier.MesoClassifier`.

    ``path`` is a directory (created if needed) receiving ``meso.json``
    plus a spheres table (centres) and a members table (per-sphere
    training patterns with labels, in insertion order).
    """
    resolved = resolve_backend(backend)
    target = Path(path)
    target.mkdir(parents=True, exist_ok=True)
    sphere_rows = []
    member_rows = []
    for sphere_index, sphere in enumerate(classifier.spheres):
        sphere_rows.append({"sphere": sphere_index, "center": sphere.center})
        for member_index, (pattern, label) in enumerate(
            zip(sphere.members, sphere.labels)
        ):
            if not isinstance(label, str):
                raise StoreError(
                    "MESO persistence stores labels as strings; got "
                    f"{type(label).__name__} — map labels to strings before saving"
                )
            member_rows.append(
                {
                    "sphere": sphere_index,
                    "index": member_index,
                    "label": label,
                    "values": pattern,
                }
            )
    files = {}
    for kind, rows in ((MESO_SPHERES, sphere_rows), (MESO_MEMBERS, member_rows)):
        name = f"{kind}{resolved.extension}"
        digest = write_shard(resolved, target / name, kind, rows_to_columns(kind, rows))
        files[name] = {"kind": kind, "rows": len(rows), "sha256": digest}
    meta = {
        "schema_version": SCHEMA_VERSION,
        "backend": resolved.name,
        "config": asdict(classifier.config),
        "delta": float(classifier.delta),
        "dimension": int(classifier._dimension or 0),
        "spheres": len(classifier.spheres),
        "patterns": classifier.pattern_count,
        "files": files,
    }
    (target / META_NAME).write_text(json.dumps(meta, indent=2, sort_keys=True))
    return target


def load_meso(path):
    """Load a classifier saved by :func:`save_meso`, verifying integrity.

    The returned memory is bit-identical to the saved one: replayed
    centres are checked against the stored centre matrix and any mismatch
    (or checksum failure) raises :class:`StoreIntegrityError`.
    """
    from ..meso.classifier import MesoClassifier, MesoConfig
    from ..meso.sphere import SensitivitySphere

    source = Path(path)
    meta_path = source / META_NAME
    if not meta_path.exists():
        raise StoreError(f"no persisted MESO classifier at {source}")
    meta = json.loads(meta_path.read_text())
    version = meta.get("schema_version")
    if version != SCHEMA_VERSION:
        raise StoreError(
            f"persisted classifier at {source} has schema version {version!r}; "
            f"this loader speaks version {SCHEMA_VERSION}"
        )
    backend = resolve_backend(meta.get("backend", "npz"))
    tables: dict[str, list[dict]] = {}
    for name, entry in meta.get("files", {}).items():
        file_path = source / name
        if not file_path.exists():
            raise StoreIntegrityError(f"missing classifier table {name} in {source}")
        digest = hashlib.sha256(file_path.read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            raise StoreIntegrityError(
                f"checksum mismatch in classifier table {name} at {source}"
            )
        kind = entry["kind"]
        tables[kind] = columns_to_rows(kind, backend.read_table(file_path, kind))
    sphere_rows = tables.get(MESO_SPHERES, [])
    members_by_sphere: dict[int, list[dict]] = {}
    for row in tables.get(MESO_MEMBERS, []):
        members_by_sphere.setdefault(row["sphere"], []).append(row)
    config = MesoConfig(**meta["config"])
    classifier = MesoClassifier(config)
    dimension = int(meta.get("dimension", 0))
    classifier._dimension = dimension or None
    for row in sorted(sphere_rows, key=lambda r: r["sphere"]):
        stored_center = np.asarray(row["center"], dtype=float)
        sphere = SensitivitySphere(center=np.zeros(stored_center.size))
        for member in sorted(members_by_sphere.get(row["sphere"], []), key=lambda r: r["index"]):
            sphere.add(member["values"], member["label"])
        if sphere.count == 0:
            raise StoreIntegrityError(
                f"classifier at {source}: sphere {row['sphere']} has no members"
            )
        if not np.array_equal(sphere.center, stored_center):
            raise StoreIntegrityError(
                f"classifier at {source}: replayed centre of sphere "
                f"{row['sphere']} does not match the stored centre — the "
                "member tables are corrupt or reordered"
            )
        classifier.spheres.append(sphere)
    classifier.delta = float(meta.get("delta", 0.0))
    return classifier
