"""Bit-identity parity: vectorised chunk kernels vs the scalar seed code.

The hot-path optimisation replaced four scalar kernels with vectorised
ones while promising **bit-identical** output — not merely close, since any
rounding drift would break the engine's chunk-invariance contract (batch ≡
stream ≡ river) one ULP at a time.  Each test here pins a vectorised
kernel against the historical implementation it replaced, kept verbatim
in ``tests/_seed_anchors.py``, over hypothesis-generated inputs:

* ``paa`` vs the seed fractional double loop (divisible *and* fractional
  segment counts — the two take different code paths);
* ``paa_records`` / ``paa_matrix`` vs per-row / per-column ``paa``,
  including strided and transposed inputs (numpy only applies pairwise
  summation to unit-stride reductions, so contiguity is part of the
  contract, not an optimisation detail);
* ``dft_records`` / ``power_spectra`` vs the single-record transforms;
* ``windowed_code_counts`` vs the seed per-code ``searchsorted`` scan,
  on arithmetic-grid boundaries (the fast path) and arbitrary sorted
  boundaries (the fallback);
* ``ChunkedAnomalyScorer`` end-to-end vs a subclass running the seed
  per-code ``_evaluate``, over random configs and random chunkings.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import AnomalyConfig
from repro.dsp.dft import dft, dft_records, power_spectra, power_spectrum
from repro.pipeline import ChunkedAnomalyScorer
from repro.timeseries.bitmap import windowed_code_counts
from repro.timeseries.paa import paa, paa_matrix, paa_records

from _seed_anchors import seed_paa, seed_window_counts

SETTINGS = dict(max_examples=40, deadline=None)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def float_array(data, min_size=1, max_size=200):
    values = data.draw(st.lists(finite, min_size=min_size, max_size=max_size))
    return np.array(values, dtype=float)


# ---------------------------------------------------------------------------
# The seed ``_evaluate``, built on ``_seed_anchors.seed_window_counts``.
# ---------------------------------------------------------------------------


class _SeedEvaluateScorer(ChunkedAnomalyScorer):
    """ChunkedAnomalyScorer with the seed per-code ``_evaluate`` grafted in."""

    def _evaluate(self, buffer, buffer_start, start, length):
        cfg = self.config
        window, lag = cfg.window, cfg.lag_window
        first = self.first_eval
        lower = max(start, first)
        offset = -(-(lower - first) // self.hop) * self.hop
        eval_points = np.arange(first + offset, start + length, self.hop)
        if eval_points.size == 0:
            return np.full(length, self._last_eval)
        ends = eval_points - buffer_start + 1
        lead_starts = eval_points - window + 1 - buffer_start
        lag_starts = eval_points - window - lag + 1 - buffer_start
        n_codes = cfg.alphabet**cfg.level
        lead_counts, lag_counts = seed_window_counts(
            buffer, ends, lead_starts, lag_starts, n_codes
        )
        eval_scores = np.sqrt(
            np.sum((lead_counts / window - lag_counts / lag) ** 2, axis=1)
        )
        positions = np.arange(start, start + length)
        indices = np.searchsorted(eval_points, positions, side="right") - 1
        raw = np.where(
            indices >= 0, eval_scores[np.maximum(indices, 0)], self._last_eval
        )
        self._last_eval = float(eval_scores[-1])
        return raw


# ---------------------------------------------------------------------------
# PAA
# ---------------------------------------------------------------------------


class TestPaaParity:
    @given(data=st.data())
    @settings(**SETTINGS)
    def test_paa_matches_seed_double_loop(self, data):
        arr = float_array(data, min_size=1, max_size=200)
        segments = data.draw(st.integers(min_value=1, max_value=arr.size))
        np.testing.assert_array_equal(paa(arr, segments), seed_paa(arr, segments))

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_paa_records_rows_match_paa(self, data):
        rows = data.draw(st.integers(min_value=1, max_value=8))
        cols = data.draw(st.integers(min_value=1, max_value=60))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        block = rng.standard_normal((rows, cols))
        segments = data.draw(st.integers(min_value=1, max_value=cols))
        out = paa_records(block, segments)
        for i in range(rows):
            np.testing.assert_array_equal(out[i], paa(block[i], segments))

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_paa_records_strided_input_matches_contiguous(self, data):
        """Transposed/sliced views must give the same bits as copies.

        This is the regression test for a real drift: reducing a strided
        view rounds differently from reducing a contiguous copy because
        numpy's pairwise summation only engages on unit-stride axes.
        ``paa_records`` therefore copies to C order internally.
        """
        rows = data.draw(st.integers(min_value=1, max_value=6))
        cols = data.draw(st.integers(min_value=2, max_value=60))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        big = rng.standard_normal((cols * 2, rows * 3))
        # An F-ordered view (transpose) and a column-sliced view.
        strided = big[:: 2, :: 3].T
        assert strided.shape == (rows, cols)
        assert not strided.flags.c_contiguous
        segments = data.draw(st.integers(min_value=1, max_value=cols))
        np.testing.assert_array_equal(
            paa_records(strided, segments),
            paa_records(np.ascontiguousarray(strided), segments),
        )
        for i in range(rows):
            np.testing.assert_array_equal(
                paa_records(strided, segments)[i], paa(strided[i].copy(), segments)
            )

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_paa_matrix_columns_match_paa(self, data):
        rows = data.draw(st.integers(min_value=1, max_value=60))
        cols = data.draw(st.integers(min_value=1, max_value=8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        matrix = rng.standard_normal((rows, cols))
        segments = data.draw(st.integers(min_value=1, max_value=rows))
        out = paa_matrix(matrix, segments, axis=0)
        assert out.shape == (segments, cols)
        for col in range(cols):
            np.testing.assert_array_equal(
                out[:, col], paa(matrix[:, col].copy(), segments)
            )


# ---------------------------------------------------------------------------
# DFT
# ---------------------------------------------------------------------------


class TestDftParity:
    @given(data=st.data())
    @settings(**SETTINGS)
    def test_dft_records_rows_match_dft(self, data):
        rows = data.draw(st.integers(min_value=1, max_value=8))
        cols = data.draw(st.integers(min_value=1, max_value=256))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        block = rng.standard_normal((rows, cols))
        out = dft_records(block)
        for i in range(rows):
            np.testing.assert_array_equal(out[i], dft(block[i]))

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_power_spectra_rows_match_power_spectrum(self, data):
        rows = data.draw(st.integers(min_value=1, max_value=8))
        cols = data.draw(st.integers(min_value=1, max_value=256))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        block = rng.standard_normal((rows, cols))
        out = power_spectra(block)
        for i in range(rows):
            np.testing.assert_array_equal(out[i], power_spectrum(block[i]))


# ---------------------------------------------------------------------------
# Windowed code counts
# ---------------------------------------------------------------------------


class TestWindowedCodeCountsParity:
    @given(data=st.data())
    @settings(**SETTINGS)
    def test_grid_boundaries_match_seed_scan(self, data):
        """Arithmetic grids — the path both scorers use — with hop given."""
        n_codes = data.draw(st.integers(min_value=2, max_value=64))
        n = data.draw(st.integers(min_value=1, max_value=400))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        codes = rng.integers(0, n_codes, size=n)
        hop = data.draw(st.integers(min_value=1, max_value=32))
        window = data.draw(st.integers(min_value=1, max_value=80))
        lag = data.draw(st.integers(min_value=1, max_value=80))
        k = data.draw(st.integers(min_value=1, max_value=50))
        # Boundaries may extend past either end of `codes`, like the
        # scorer's first evaluations after a carry.
        first_end = data.draw(st.integers(min_value=-20, max_value=n + 20))
        ends = first_end + hop * np.arange(k)
        lead_starts = ends - window
        lag_starts = lead_starts - lag
        expected = seed_window_counts(codes, ends, lead_starts, lag_starts, n_codes)
        for hop_arg in (hop, None):
            lead, lag_counts = windowed_code_counts(
                codes, ends, lead_starts, lag_starts, n_codes, hop=hop_arg
            )
            np.testing.assert_array_equal(lead, expected[0])
            np.testing.assert_array_equal(lag_counts, expected[1])

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_arbitrary_sorted_boundaries_match_seed_scan(self, data):
        """Non-grid sorted boundaries take the searchsorted fallback."""
        n_codes = data.draw(st.integers(min_value=2, max_value=32))
        n = data.draw(st.integers(min_value=1, max_value=300))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        codes = rng.integers(0, n_codes, size=n)
        k = data.draw(st.integers(min_value=1, max_value=40))
        ends = np.sort(rng.integers(-10, n + 10, size=k))
        lead_starts = ends - rng.integers(0, 60, size=k)
        lead_starts = np.minimum.accumulate(lead_starts[::-1])[::-1]
        lag_starts = lead_starts - rng.integers(0, 60, size=k)
        lag_starts = np.minimum.accumulate(lag_starts[::-1])[::-1]
        expected = seed_window_counts(codes, ends, lead_starts, lag_starts, n_codes)
        lead, lag_counts = windowed_code_counts(
            codes, ends, lead_starts, lag_starts, n_codes
        )
        np.testing.assert_array_equal(lead, expected[0])
        np.testing.assert_array_equal(lag_counts, expected[1])

    def test_empty_inputs(self):
        lead, lag = windowed_code_counts(np.zeros(0), [], [], [], 4)
        assert lead.shape == (0, 4) and lag.shape == (0, 4)
        lead, lag = windowed_code_counts(np.zeros(0, dtype=int), [5], [1], [0], 4)
        np.testing.assert_array_equal(lead, np.zeros((1, 4)))
        np.testing.assert_array_equal(lag, np.zeros((1, 4)))


# ---------------------------------------------------------------------------
# Chunked scorer end-to-end
# ---------------------------------------------------------------------------


class TestChunkedScorerParity:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_scorer_matches_seed_evaluate_under_any_chunking(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        config = AnomalyConfig(
            alphabet=data.draw(st.sampled_from([3, 4, 8])),
            level=data.draw(st.integers(min_value=1, max_value=3)),
            window=data.draw(st.integers(min_value=4, max_value=60)),
            smooth_window=data.draw(st.sampled_from([1, 16, 75])),
            lag_factor=data.draw(st.sampled_from([1, 2])),
        )
        hop = data.draw(st.sampled_from([1, 4, 16]))
        length = data.draw(st.integers(min_value=1, max_value=600))
        signal = rng.standard_normal(length)

        sizes = data.draw(
            st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=6)
        )
        new = ChunkedAnomalyScorer(config, hop=hop)
        seed = _SeedEvaluateScorer(config, hop=hop)
        start = 0
        i = 0
        while start < length:
            size = sizes[i % len(sizes)]
            chunk = signal[start : start + size]
            np.testing.assert_array_equal(new.process(chunk), seed.process(chunk))
            start += size
            i += 1
