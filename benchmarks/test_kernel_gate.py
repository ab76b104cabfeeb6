"""Performance gate for the vectorised chunk kernels.

Asserts that the vectorised kernels keep their measured advantage over the
scalar seed implementations they replaced — a same-box relative comparison,
so the gate is robust to how fast the machine itself is.  Thresholds (and
the numbers recorded when the kernels landed) live in
``benchmarks/bench-results.json``.

Timing assertions are inherently noisy, so the gate only runs when
``PERF_GATE=1`` is set (CI runs it as a dedicated tier-2 job; it is
blocking on ``main`` and advisory on fork PRs, where runner load is
unpredictable).  Each measurement takes the best of several repeats to
shed scheduler noise.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.timeseries.bitmap import windowed_code_counts
from repro.timeseries.paa import paa

from _seed_anchors import seed_paa, seed_window_counts

pytestmark = pytest.mark.skipif(
    os.environ.get("PERF_GATE") != "1",
    reason="perf gate only runs with PERF_GATE=1 (tier-2 CI job)",
)

THRESHOLDS = json.loads(
    (Path(__file__).parent / "bench-results.json").read_text()
)["thresholds"]


def best_of(fn, repeats: int = 7, iters: int = 20) -> float:
    """Best mean-per-iteration over ``repeats`` timed batches."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - start) / iters)
    return best


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
    assert speedup >= THRESHOLDS["scorer_kernel_min_speedup"], (
        f"scorer kernel speedup regressed: {speedup:.2f}x < "
        f"{THRESHOLDS['scorer_kernel_min_speedup']}x "
        f"(new {new_time * 1e6:.1f}us, seed {seed_time * 1e6:.1f}us)"
    )


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
    assert speedup >= THRESHOLDS["paa_fractional_min_speedup"], (
        f"fractional PAA speedup regressed: {speedup:.2f}x < "
        f"{THRESHOLDS['paa_fractional_min_speedup']}x "
        f"(new {new_time * 1e6:.1f}us, seed {seed_time * 1e6:.1f}us)"
    )
