"""Shard checksums are taken over the bytes as written, never by reading a
shard back, and the manifest is encoded compactly with unchanged keys."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.cutter import Ensemble
from repro.meso import MesoClassifier
from repro.store import StoreReader, StoreWriter, available_backends
from repro.store.meso_io import load_meso, save_meso
from repro.store.schema import MANIFEST_NAME, SCHEMA_VERSION


@pytest.fixture(params=("npz", "parquet"))
def backend(request) -> str:
    if request.param not in available_backends():
        pytest.skip(f"{request.param} backend unavailable (install the [store] extra)")
    return request.param


@pytest.fixture()
def path_reads(monkeypatch):
    """Every path ``Path.read_bytes`` reads during the test."""
    reads: list[Path] = []
    read_bytes = Path.read_bytes

    def counted(path):
        reads.append(path)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", counted)
    return reads


def _ensembles(rng, count: int) -> list[Ensemble]:
    return [
        Ensemble(start=1000 * i, end=1000 * i + 400, samples=rng.normal(size=400),
                 sample_rate=16000, label="NOCA")
        for i in range(count)
    ]


def test_flush_reads_no_shard_back_and_verify_accepts(backend, tmp_path, path_reads):
    rng = np.random.default_rng(7)
    with StoreWriter(tmp_path / "s", backend=backend, flush_values=1000) as writer:
        for name in ("a", "b"):
            writer.write_ensembles(name, _ensembles(rng, 5), total_samples=6000)
    assert path_reads == []
    reader = StoreReader(tmp_path / "s")
    assert len(reader.manifest["shards"]) > 2
    assert reader.verify() == []


def test_manifest_is_compact_with_the_same_keys(tmp_path):
    with StoreWriter(tmp_path / "s", backend="npz") as writer:
        writer.write_ensembles("a", _ensembles(np.random.default_rng(1), 2), total_samples=3000)
    text = (tmp_path / "s" / MANIFEST_NAME).read_text()
    assert "\n" not in text
    manifest = json.loads(text)
    assert text == json.dumps(manifest, sort_keys=True)
    assert manifest["schema_version"] == SCHEMA_VERSION
    assert sorted(manifest) == ["backend", "recordings", "schema_version", "shards"]


def test_meso_tables_hashed_as_written(backend, tmp_path, path_reads):
    rng = np.random.default_rng(3)
    meso = MesoClassifier()
    meso.fit(rng.normal(size=(30, 4)), [f"c{i % 3}" for i in range(30)])
    save_meso(meso, tmp_path / "meso", backend=backend)
    assert path_reads == []
    loaded = load_meso(tmp_path / "meso")  # verifies every table's checksum
    queries = rng.normal(size=(10, 4))
    assert loaded.predict_batch(queries) == meso.predict_batch(queries)
