"""Performance gate for the vectorised chunk kernels.

Asserts that the vectorised kernels keep their measured advantage over the
scalar seed implementations they replaced — a same-box relative comparison,
so the gate is robust to how fast the machine itself is.  Each threshold is
a named constant below, with the ratio measured when the kernel landed
(2026-08-08, one-core CI-class container) as its reason.

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

from repro.timeseries.bitmap import windowed_code_counts
from repro.timeseries.paa import paa

from _seed_anchors import seed_paa, seed_window_counts

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
