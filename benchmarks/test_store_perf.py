"""Feature-store benchmarks: replay speed-up and the streamed-write memory bound.

The store's reason to exist is that classify-from-store beats re-running
extraction: the ``test_classify_from_store_beats_reextract`` assertion
locks that in on a 100-clip synthetic corpus.  The tracemalloc test locks
the other promise — fragment-streamed writes keep peak memory far below
the size of the audio that flows through them.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro import FAST_EXTRACTION, MesoClassifier
from repro.pipeline import AcousticPipeline
from repro.store import StoreReader
from repro.synth import ClipBuilder, get_species
from repro.synth.dataset import CorpusSpec, build_corpus


@pytest.fixture(scope="module")
def store_corpus():
    """100 clips (10 species x 10 clips, 2 s each) — the replay workload."""
    return build_corpus(
        CorpusSpec(clips_per_species=10, songs_per_clip=1, clip_duration=2.0,
                   sample_rate=16000, seed=77)
    )


@pytest.fixture(scope="module")
def store_meso(store_corpus):
    rng = np.random.default_rng(9)
    meso = MesoClassifier()
    pipe = AcousticPipeline().extract(FAST_EXTRACTION).features(use_paa=True).build()
    for code in sorted(set(store_corpus.labels)):
        song = get_species(code).render(16000, rng)
        for vector in pipe.patterns_for(song):
            meso.partial_fit(vector, code)
    return meso


def _classify_pipeline(meso):
    return (
        AcousticPipeline()
        .extract(FAST_EXTRACTION, keep_traces=False)
        .features(use_paa=True)
        .classify(meso)
        .build()
    )


@pytest.fixture(scope="module")
def extracted(store_corpus, store_meso, tmp_path_factory):
    """One full extract+classify pass, persisted into a store."""
    store = tmp_path_factory.mktemp("bench-store") / "store"
    pipe = _classify_pipeline(store_meso)
    start = time.perf_counter()
    results = pipe.run_corpus(store_corpus.clips, store=store)
    extract_seconds = time.perf_counter() - start
    return {"results": results, "store": store, "extract_seconds": extract_seconds}


def test_classify_from_store_beats_reextract(extracted, store_corpus, store_meso):
    """The acceptance benchmark: replaying stored ensembles through the
    classify chain must be faster than re-running extraction on >= 100 clips."""
    pipe = _classify_pipeline(store_meso)
    start = time.perf_counter()
    replayed = pipe.run_corpus(from_store=extracted["store"])
    store_seconds = time.perf_counter() - start
    assert [r.labels for r in replayed] == [r.labels for r in extracted["results"]]
    assert len(replayed) == len(store_corpus.clips) == 100
    assert store_seconds < extracted["extract_seconds"], (
        f"classify-from-store took {store_seconds:.2f}s but re-extraction "
        f"took {extracted['extract_seconds']:.2f}s"
    )


def test_fragment_stream_write_memory(tmp_path):
    """Fragment-streamed store writes hold O(chunk) state, not O(stream):
    peak allocation while streaming a clip stays far below the clip size."""
    rng = np.random.default_rng(21)
    clip = ClipBuilder(sample_rate=16000, duration=60.0).build(
        ["NOCA", "TUTI", "BLJA"], rng, songs_per_species=4
    )
    samples = np.asarray(clip.samples, dtype=np.float64)
    clip_bytes = samples.nbytes
    chunk = 4096
    pipe = (
        AcousticPipeline()
        .extract(FAST_EXTRACTION, keep_traces=False, emit="fragments")
        .features(use_paa=True, emit="patterns")
        .stage("store", path=str(tmp_path / "store"), flush_values=8192,
               recording="streamed")
        .build()
    )
    chunks = (samples[i : i + chunk] for i in range(0, samples.size, chunk))
    tracemalloc.start()
    for _ in pipe.extract_stream(chunks, sample_rate=16000):
        pass
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    reader = StoreReader(tmp_path / "store")
    info = reader.recording_info("streamed")
    assert info.complete
    assert info.total_samples == samples.size
    assert info.ensembles > 0
    assert peak < clip_bytes / 2, (
        f"fragment-streamed write peaked at {peak / 1e6:.1f} MB for a "
        f"{clip_bytes / 1e6:.1f} MB clip — streaming is buffering somewhere"
    )
