"""Performance gate for the vectorised chunk kernels, the trigger kernel,
the MESO batch query and the batched river operators.

Asserts that the vectorised kernels, the scalar trigger kernel and the
GEMM-screened MESO query keep their measured advantage over the seed
implementations they replaced, and that the river's ensemble operators keep
theirs when a segment step hands them a batch — a same-box relative
comparison, so the gate is robust to how fast the machine itself is.  Each
threshold is a named constant below, with the ratio measured when the
kernel landed as its reason (2026-08-08, one-core CI-class container, for
the chunk kernels; a two-core container for the trigger kernel, the MESO
query and the operator batch).

Timing assertions are inherently noisy, so the gate only runs when
``PERF_GATE=1`` is set (CI runs it as a dedicated tier-2 job; it is
blocking on ``main`` and advisory on fork PRs, where runner load is
unpredictable).  Each measurement takes the best of several repeats to
shed scheduler noise.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import FAST_EXTRACTION, AcousticPipeline, ClipBuilder
from repro.core.trigger import AdaptiveTrigger
from repro.meso import MesoClassifier
from repro.meso.sphere import SensitivitySphere
from repro.pipeline import ExtractStage
from repro.river import Pipeline, PipelineSegment, QueueChannel
from repro.river.operators import ClipSource
from repro.river.serialization import pack_record
from repro.synth import get_species
from repro.timeseries.bitmap import windowed_code_counts
from repro.timeseries.paa import paa

from _seed_anchors import (
    SeedAdaptiveTrigger,
    seed_nearest_sphere_indices,
    seed_paa,
    seed_window_counts,
)

pytestmark = pytest.mark.skipif(
    os.environ.get("PERF_GATE") != "1",
    reason="perf gate only runs with PERF_GATE=1 (tier-2 CI job)",
)


def best_of(fn, repeats: int = 7, iters: int = 20) -> float:
    """Best mean-per-iteration over ``repeats`` timed batches."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - start) / iters)
    return best


# 7.4× at landing (477 µs → 64 µs); 5× leaves room for a loaded runner.
SCORER_KERNEL_MIN_SPEEDUP = 5.0


def test_scorer_kernel_speedup_holds():
    """Chunk-scoring hot path: paper params, one 512-sample chunk at hop 16.

    512 samples is a realistic streaming block (23 ms at 22.05 kHz) and the
    regime the seed code was weakest in — its per-code scan cost 64 numpy
    passes over the buffer regardless of how few eval points a chunk has.
    """
    rng = np.random.default_rng(0)
    window, lag, hop, chunk = 100, 100, 16, 512
    n_codes = 8**2
    codes = rng.integers(0, n_codes, size=window + lag - 1 + chunk)
    ends = (window + lag) + hop * np.arange(chunk // hop)
    lead_starts = ends - window
    lag_starts = lead_starts - lag

    new = windowed_code_counts(codes, ends, lead_starts, lag_starts, n_codes, hop=hop)
    seed = seed_window_counts(codes, ends, lead_starts, lag_starts, n_codes)
    np.testing.assert_array_equal(new[0], seed[0])
    np.testing.assert_array_equal(new[1], seed[1])

    new_time = best_of(
        lambda: windowed_code_counts(
            codes, ends, lead_starts, lag_starts, n_codes, hop=hop
        )
    )
    seed_time = best_of(
        lambda: seed_window_counts(codes, ends, lead_starts, lag_starts, n_codes)
    )
    speedup = seed_time / new_time
    assert speedup >= SCORER_KERNEL_MIN_SPEEDUP, (
        f"scorer kernel speedup regressed: {speedup:.2f}x < "
        f"{SCORER_KERNEL_MIN_SPEEDUP}x "
        f"(new {new_time * 1e6:.1f}us, seed {seed_time * 1e6:.1f}us)"
    )


# 15.9× at landing (623 µs → 39 µs); 3× leaves room for a loaded runner.
PAA_FRACTIONAL_MIN_SPEEDUP = 3.0


def test_fractional_paa_speedup_holds():
    """Fractional PAA (the non-divisible path the double loop served)."""
    rng = np.random.default_rng(1)
    values = rng.standard_normal(1000)
    segments = 128
    assert values.size % segments != 0

    np.testing.assert_array_equal(paa(values, segments), seed_paa(values, segments))

    new_time = best_of(lambda: paa(values, segments), iters=50)
    seed_time = best_of(lambda: seed_paa(values, segments), iters=5)
    speedup = seed_time / new_time
    assert speedup >= PAA_FRACTIONAL_MIN_SPEEDUP, (
        f"fractional PAA speedup regressed: {speedup:.2f}x < "
        f"{PAA_FRACTIONAL_MIN_SPEEDUP}x "
        f"(new {new_time * 1e6:.1f}us, seed {seed_time * 1e6:.1f}us)"
    )


# ~10× whole and ~7–10× chunked at landing (two-core container); 5× leaves
# room for a loaded runner.
TRIGGER_KERNEL_MIN_SPEEDUP = 5.0


@pytest.mark.parametrize("chunk", [None, 512], ids=["whole", "chunks512"])
def test_trigger_kernel_speedup_holds(chunk):
    """The adaptive trigger over the FAST_EXTRACTION score stream of a 6 s
    clip: the scalar kernel vs one seed ``update()`` call per sample."""
    clip = ClipBuilder(sample_rate=16000, duration=6.0).build(
        ["NOCA", "TUTI"], np.random.default_rng(0)
    )
    scores = AcousticPipeline().extract(FAST_EXTRACTION).build().run(clip).anomaly_scores
    settle = ExtractStage(FAST_EXTRACTION).settle
    parts = [scores] if chunk is None else np.array_split(
        scores, range(chunk, scores.size, chunk)
    )

    def run(trigger_class):
        trigger = trigger_class(FAST_EXTRACTION.trigger, settle=settle)
        return [trigger.apply(part) for part in parts]

    np.testing.assert_array_equal(
        np.concatenate(run(AdaptiveTrigger)), np.concatenate(run(SeedAdaptiveTrigger))
    )

    new_time = best_of(lambda: run(AdaptiveTrigger), repeats=5, iters=3)
    seed_time = best_of(lambda: run(SeedAdaptiveTrigger), repeats=5, iters=1)
    speedup = seed_time / new_time
    assert speedup >= TRIGGER_KERNEL_MIN_SPEEDUP, (
        f"trigger kernel speedup regressed: {speedup:.2f}x < "
        f"{TRIGGER_KERNEL_MIN_SPEEDUP}x "
        f"(new {new_time * 1e3:.1f}ms, seed {seed_time * 1e3:.1f}ms)"
    )


# 3.6–4.8× at landing (five runs, two-core container: ~46 µs against
# ~165–230 µs per batch); 2.5× leaves room for a loaded runner.
MESO_QUERY_MIN_SPEEDUP = 2.5


def test_meso_query_speedup_holds():
    """The nearest-sphere batch query in the shape a per-ensemble river
    classify makes: 4-pattern batches against a 444-sphere, 66-feature
    memory (the ``store_sweep`` memory).  The GEMM screen vs the seed
    difference-tensor kernel."""
    rng = np.random.default_rng(3)
    meso = MesoClassifier()
    for index, center in enumerate(rng.random((444, 66))):
        sphere = SensitivitySphere(center=center.copy())
        sphere.add(center, f"sp{index % 7}")
        meso.spheres.append(sphere)
    meso._dimension = 66
    centers = meso._center_matrix()
    blocks = [
        centers[rng.integers(0, 444, size=4)] + rng.normal(scale=0.05, size=(4, 66))
        for _ in range(50)
    ]
    for block in blocks:
        np.testing.assert_array_equal(
            meso._nearest_sphere_indices(block), seed_nearest_sphere_indices(centers, block)
        )

    new_time = best_of(lambda: [meso._nearest_sphere_indices(b) for b in blocks], iters=5)
    seed_time = best_of(lambda: [seed_nearest_sphere_indices(centers, b) for b in blocks], iters=5)
    speedup = seed_time / new_time
    assert speedup >= MESO_QUERY_MIN_SPEEDUP, (
        f"MESO query speedup regressed: {speedup:.2f}x < "
        f"{MESO_QUERY_MIN_SPEEDUP}x "
        f"(new {new_time / len(blocks) * 1e6:.1f}us, "
        f"seed {seed_time / len(blocks) * 1e6:.1f}us per batch)"
    )


# 1.8–2.3× at landing (five runs, two-core container: features + classify
# over ~100 ensemble scopes, 64-record steps against 1-record steps); 1.4×
# leaves room for a loaded runner.
RIVER_OPERATOR_BATCH_MIN_SPEEDUP = 1.4


def test_river_operator_batch_speedup_holds():
    """The features and classify operators of a compiled river graph over
    the extract operator's record stream for eight 8 s clips: segments
    stepped 64 records at a time (every buffered scope of a step in one
    stage call) against one record at a time.  Both give the same stream."""
    rng = np.random.default_rng(7)
    species = ["NOCA", "TUTI", "RWBL"]
    meso = MesoClassifier()
    spec = AcousticPipeline().extract(FAST_EXTRACTION, keep_traces=False).features(use_paa=True)
    trainer = spec.build()
    for code in species * 6:
        for pattern in trainer.patterns_for(get_species(code).render(16000, rng)):
            meso.partial_fit(pattern, code)
    spec = spec.classify(meso)
    clips = [ClipBuilder(sample_rate=16000, duration=8.0).build(species, rng) for _ in range(8)]
    extract, *operators = spec.to_river().operators
    records = Pipeline([extract]).run(ClipSource(clips).generate())

    def run(allowance: int) -> list:
        stream = records
        for operator in operators:
            operator.reset()
            segment = PipelineSegment("gate", Pipeline([operator]), input_channel=QueueChannel())
            for record in stream:
                segment.input_channel.put(record)
            while not segment.finished:
                segment.step(allowance)
            stream = list(segment.drain_output())
        return stream

    batched, single = run(64), run(1)
    assert sum(record.is_open for record in single) > 80
    assert list(map(pack_record, batched)) == list(map(pack_record, single))

    batch_time = best_of(lambda: run(64), repeats=7, iters=3)
    single_time = best_of(lambda: run(1), repeats=7, iters=3)
    speedup = single_time / batch_time
    assert speedup >= RIVER_OPERATOR_BATCH_MIN_SPEEDUP, (
        f"river operator batch speedup regressed: {speedup:.2f}x < "
        f"{RIVER_OPERATOR_BATCH_MIN_SPEEDUP}x "
        f"(64-record steps {batch_time * 1e3:.1f}ms, 1-record steps {single_time * 1e3:.1f}ms)"
    )
