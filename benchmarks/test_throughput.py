"""Throughput benchmarks for the main processing stages.

These are not paper figures; they characterise the reproduction itself:
how fast the anomaly scorer, the extraction chain, the Dynamic River
pipeline, MESO training and MESO queries run on this machine.  They give
pytest-benchmark real, repeatable timing targets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FAST_EXTRACTION, AcousticPipeline, MesoClassifier
from repro.baselines import EnergySegmenter, KnnClassifier
from repro.core.anomaly import sax_anomaly_scores
from repro.river import build_extraction_pipeline, validate_stream
from repro.river.operators import ClipSource
from repro.synth import ClipBuilder


@pytest.fixture(scope="module")
def throughput_clip(session_rng):
    return ClipBuilder(sample_rate=16000, duration=10.0).build(
        "RWBL", session_rng, songs_per_species=2
    )


def test_anomaly_scoring_throughput(benchmark, throughput_clip):
    scores = benchmark(sax_anomaly_scores, throughput_clip.samples, FAST_EXTRACTION.anomaly, 16)
    assert scores.size == throughput_clip.samples.size
    assert scores.max() > 0


def test_extraction_throughput(benchmark, throughput_clip):
    pipeline = AcousticPipeline().extract(FAST_EXTRACTION, normalization="global").build()
    result = benchmark(pipeline.run, throughput_clip)
    assert result.retained_samples < result.total_samples


def test_energy_baseline_throughput(benchmark, throughput_clip):
    segmenter = EnergySegmenter(min_duration=400)
    segments = benchmark(segmenter.segment, throughput_clip.samples, throughput_clip.sample_rate)
    assert isinstance(segments, list)


def test_river_pipeline_throughput(benchmark, throughput_clip):
    def run():
        pipeline = build_extraction_pipeline(FAST_EXTRACTION, use_paa=True)
        outputs = pipeline.run_source(ClipSource([throughput_clip], record_size=4096))
        return outputs

    outputs = benchmark.pedantic(run, rounds=1, iterations=2)
    assert validate_stream(outputs) == []


def _training_set(rng, patterns=400, dim=105, classes=10):
    centers = rng.normal(size=(classes, dim)) * 3.0
    data = []
    labels = []
    for i in range(patterns):
        cls = i % classes
        data.append(centers[cls] + rng.normal(size=dim) * 0.3)
        labels.append(f"class-{cls}")
    return np.array(data), labels


def test_meso_training_throughput(benchmark, session_rng):
    data, labels = _training_set(session_rng)

    def train():
        meso = MesoClassifier()
        meso.fit(data, labels)
        return meso

    meso = benchmark(train)
    assert meso.pattern_count == len(labels)


def test_meso_query_throughput(benchmark, session_rng):
    data, labels = _training_set(session_rng)
    meso = MesoClassifier()
    meso.fit(data, labels)
    queries = data[::10]

    predictions = benchmark(meso.predict_batch, queries)
    correct = sum(p == labels[i * 10] for i, p in enumerate(predictions))
    assert correct / len(predictions) > 0.9


def test_knn_baseline_query_throughput(benchmark, session_rng):
    data, labels = _training_set(session_rng)
    knn = KnnClassifier(k=1)
    knn.fit(data, labels)
    queries = data[::10]

    predictions = benchmark(lambda: [knn.predict(q) for q in queries])
    correct = sum(p == labels[i * 10] for i, p in enumerate(predictions))
    assert correct / len(predictions) > 0.9
