"""Bit-identity parity: the scalar trigger kernel vs the per-sample seed trigger.

``AdaptiveTrigger.apply`` runs the adaptive-trigger recurrence as one scalar
loop with its state in locals, ``BLOCK`` samples at a time.  It promises the
**same** 0/1 output and the **same** final state, bit for bit, as feeding
the scores one ``update()`` call at a time through the seed trigger kept in
``tests/_seed_anchors.py`` — for any configuration, any settle period, any
chunking of the stream and any scores, NaN and infinities included.  The
last test checks the promise where it matters: a whole pipeline run is
unchanged when the audio is chunked across the kernel's block edge.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FAST_EXTRACTION, TriggerConfig
from repro.core.trigger import BLOCK, AdaptiveTrigger
from repro.meso import MesoClassifier
from repro.pipeline import AcousticPipeline
from repro.synth import ClipBuilder, get_species

from _seed_anchors import SeedAdaptiveTrigger

SETTINGS = dict(max_examples=60, deadline=None)

configs = st.builds(
    TriggerConfig,
    threshold_sigmas=st.floats(min_value=0.1, max_value=10.0),
    warmup=st.integers(0, 2000),
    forgetting=st.none() | st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    hangover=st.integers(0, 600),
    baseline_gate_sigmas=st.none() | st.floats(min_value=0.01, max_value=10.0),
)


@st.composite
def score_streams(draw, max_size: int = 3 * BLOCK):
    """Noisy baselines with bursts, constant runs and NaN / ±inf samples."""
    n = draw(st.integers(0, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = draw(st.sampled_from([0.01, 1.0, 100.0]))
    scores = level * (1.0 + 0.1 * rng.standard_normal(n))
    if n == 0:
        return scores
    index = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 8))):
        start, width = draw(index), draw(st.integers(1, 600))
        scores[start : start + width] += level * draw(st.floats(0.5, 50.0))
    for _ in range(draw(st.integers(0, 2))):
        start, width = draw(index), draw(st.integers(1, 2000))
        scores[start : start + width] = draw(st.sampled_from([0.0, level]))
    for _ in range(draw(st.integers(0, 3))):
        scores[draw(index)] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return scores


@st.composite
def chunkings(draw, n: int) -> list[int]:
    """Cut points: fixed-size chunks (1 sample, across the block edge) or
    arbitrary cuts, repeated cuts making empty chunks."""
    if draw(st.booleans()):
        size = draw(st.sampled_from([1, 7, 512, BLOCK - 1, BLOCK, BLOCK + 1]))
        return list(range(size, n, size))
    return sorted(draw(st.lists(st.integers(0, n), max_size=12)))


def same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


def assert_same_state(new: AdaptiveTrigger, seed: SeedAdaptiveTrigger) -> None:
    assert new._baseline.count == seed._baseline.count
    assert same_float(new._baseline.mean, seed._baseline.mean)
    assert same_float(new._baseline._m2, seed._baseline._m2)
    assert (new._state, new._hang_remaining, new._seen) == (
        seed._state,
        seed._hang_remaining,
        seed._seen,
    )
    assert same_float(new.threshold(), seed.threshold())
    assert same_float(new.baseline_std, seed.baseline_std)


class TestKernelParity:
    @settings(**SETTINGS)
    @given(config=configs, data=st.data())
    def test_any_chunking_matches_the_per_sample_seed(self, config, data):
        scores = data.draw(score_streams())
        settle = data.draw(st.integers(0, scores.size + 500))
        cuts = data.draw(chunkings(scores.size))

        seed = SeedAdaptiveTrigger(config, settle=settle)
        expected = seed.apply(scores)
        trigger = AdaptiveTrigger(config, settle=settle)
        parts = [trigger.apply(chunk) for chunk in np.split(scores, cuts)]

        assert all(part.dtype == np.int8 for part in parts)
        np.testing.assert_array_equal(np.concatenate(parts), expected)
        assert_same_state(trigger, seed)

    @settings(**SETTINGS)
    @given(config=configs, scores=score_streams(max_size=600), settle=st.integers(0, 700))
    def test_update_is_a_one_sample_apply(self, config, scores, settle):
        by_update = AdaptiveTrigger(config, settle=settle)
        by_apply = AdaptiveTrigger(config, settle=settle)
        seed = SeedAdaptiveTrigger(config, settle=settle)
        for x in scores:
            value = by_update.update(x)
            assert type(value) is int
            assert value == by_apply.apply(np.array([x]))[0] == seed.update(x)
        assert_same_state(by_update, seed)
        assert_same_state(by_apply, seed)


# ---------------------------------------------------------------------------
# Pipeline-level chunk invariance across the kernel's block edge
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def song_clip():
    return ClipBuilder(sample_rate=16000, duration=6.0).build(
        ["NOCA", "TUTI"], np.random.default_rng(0), songs_per_species=1
    )


@pytest.fixture(scope="module")
def classifying_pipeline(song_clip):
    rng = np.random.default_rng(3)
    meso = MesoClassifier()
    pipe = AcousticPipeline().extract(FAST_EXTRACTION).features(use_paa=True).classify(meso).build()
    for code in ("NOCA", "TUTI"):
        for _ in range(2):
            for vector in pipe.patterns_for(get_species(code).render(song_clip.sample_rate, rng)):
                meso.partial_fit(vector, code)
    return pipe


@pytest.mark.parametrize("chunk", [7, 512, BLOCK - 1, BLOCK, BLOCK + 1])
def test_pipeline_run_is_chunk_invariant_across_the_block_edge(
    song_clip, classifying_pipeline, chunk
):
    whole = classifying_pipeline.run(song_clip)
    samples = song_clip.samples
    chunks = np.array_split(samples, range(chunk, samples.size, chunk))
    streamed = classifying_pipeline.run(iter(chunks), sample_rate=song_clip.sample_rate)

    assert whole.ensembles, "expected ensembles from a clip with songs"
    assert [(e.start, e.end) for e in streamed.ensembles] == [
        (e.start, e.end) for e in whole.ensembles
    ]
    for a, b in zip(whole.ensembles, streamed.ensembles):
        np.testing.assert_array_equal(a.samples, b.samples)
    assert streamed.labels == whole.labels
    assert len(streamed.patterns) == len(whole.patterns)
    for a, b in zip(whole.patterns, streamed.patterns):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)
    np.testing.assert_array_equal(streamed.trigger, whole.trigger)
