"""Unit tests for the time-series substrate (normalise, PAA, SAX, bitmaps, baselines)."""

from __future__ import annotations

import numpy as np
import pytest
from repro.timeseries import (
    RunningStats,
    bitmap_distance,
    brute_force_discord,
    euclidean,
    find_discord,
    find_motifs,
    gaussian_breakpoints,
    manhattan,
    moving_average,
    normalized_euclidean,
    paa,
    paa_by_factor,
    paa_matrix,
    sax_bitmap,
    sax_transform,
    symbolize,
    znormalize,
)
from repro.timeseries.paa import _fractional_weights, _fold_steps, paa_records

from _seed_anchors import seed_paa


# ---------------------------------------------------------------------------
# Z-normalisation
# ---------------------------------------------------------------------------


class TestZnormalize:
    def test_zero_mean_unit_variance(self, rng):
        values = rng.normal(5.0, 3.0, size=500)
        normalized = znormalize(values)
        assert abs(normalized.mean()) < 1e-10
        assert abs(normalized.std() - 1.0) < 1e-10

    def test_constant_signal_maps_to_zeros(self):
        assert np.all(znormalize(np.full(10, 3.7)) == 0.0)

    def test_empty_input(self):
        assert znormalize(np.array([])).size == 0

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            znormalize(np.zeros((3, 3)))

    def test_scale_invariance(self, rng):
        values = rng.normal(size=100)
        np.testing.assert_allclose(znormalize(values), znormalize(10.0 * values + 3.0), atol=1e-9)


# ---------------------------------------------------------------------------
# PAA
# ---------------------------------------------------------------------------


class TestPaa:
    def test_exact_division_means(self):
        values = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        np.testing.assert_allclose(paa(values, 3), [1.0, 2.0, 3.0])

    def test_mean_preserved(self, rng):
        values = rng.normal(size=101)  # not a multiple of segments
        reduced = paa(values, 7)
        assert abs(reduced.mean() - values.mean()) < 1e-9

    def test_constant_signal_stays_constant(self):
        reduced = paa(np.full(17, 4.2), 5)
        np.testing.assert_allclose(reduced, 4.2)

    def test_identity_when_segments_equal_length(self, rng):
        values = rng.normal(size=12)
        np.testing.assert_allclose(paa(values, 12), values)

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            paa(np.arange(5.0), 0)
        with pytest.raises(ValueError):
            paa(np.arange(5.0), 6)

    def test_paa_by_factor_output_length(self):
        assert paa_by_factor(np.arange(100.0), 10).size == 10
        assert paa_by_factor(np.arange(105.0), 10).size == 11
        assert paa_by_factor(np.arange(3.0), 10).size == 1

    def test_paa_matrix_reduces_columns(self, rng):
        matrix = rng.normal(size=(20, 5))
        reduced = paa_matrix(matrix, 4, axis=0)
        assert reduced.shape == (4, 5)
        np.testing.assert_allclose(reduced[:, 2], paa(matrix[:, 2], 4))

    @pytest.mark.parametrize("n,segments", [(195, 20), (1000, 128), (97, 10), (40, 8), (7, 7), (9, 1)])
    def test_paa_records_rows_equal_seed_paa(self, rng, n, segments):
        # Fractional and divisible shapes, each computed twice so the second
        # call runs on the memoised weights.
        block = rng.normal(size=(12, n)) * 10.0 ** rng.integers(-3, 4, size=(12, 1))
        for _ in range(2):
            out = paa_records(block, segments)
            for row, values in zip(out, block):
                assert row.tobytes() == seed_paa(values, segments).tobytes()

    def test_cached_weights_are_shared_and_read_only(self):
        first = _fractional_weights(195, 20)
        assert _fractional_weights(195, 20) is first
        for array in first + tuple(a for step in _fold_steps(195, 20) for a in step):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


# ---------------------------------------------------------------------------
# SAX
# ---------------------------------------------------------------------------


class TestSax:
    def test_breakpoints_are_sorted_and_symmetric(self):
        breakpoints = gaussian_breakpoints(8)
        assert breakpoints.size == 7
        assert np.all(np.diff(breakpoints) > 0)
        np.testing.assert_allclose(breakpoints, -breakpoints[::-1], atol=1e-12)

    def test_symbols_in_range(self, rng):
        symbols = symbolize(rng.normal(size=1000), 6)
        assert symbols.min() >= 0
        assert symbols.max() <= 5

    def test_equiprobable_symbols_on_gaussian_data(self, rng):
        symbols = symbolize(rng.normal(size=50_000), 4)
        frequencies = np.bincount(symbols, minlength=4) / symbols.size
        np.testing.assert_allclose(frequencies, 0.25, atol=0.02)

    def test_monotone_mapping(self):
        symbols = symbolize(np.array([-3.0, -0.5, 0.0, 0.5, 3.0]), 4)
        assert list(symbols) == sorted(symbols)

    def test_sax_transform_length(self, rng):
        word = sax_transform(rng.normal(size=128), segments=16, alphabet=5)
        assert word.size == 16

    def test_alphabet_too_small_rejected(self):
        with pytest.raises(ValueError):
            gaussian_breakpoints(1)


# ---------------------------------------------------------------------------
# Bitmaps
# ---------------------------------------------------------------------------


class TestBitmap:
    def test_bitmap_sums_to_one(self, rng):
        symbols = rng.integers(0, 4, size=200)
        bitmap = sax_bitmap(symbols, alphabet=4, level=2)
        assert bitmap.size == 16
        assert abs(bitmap.sum() - 1.0) < 1e-12

    def test_bitmap_counts_known_word(self):
        symbols = np.array([0, 1, 0, 1, 0])
        bitmap = sax_bitmap(symbols, alphabet=2, level=2)
        # 2-grams: (0,1) x2, (1,0) x2 out of 4 grams.
        assert bitmap[0 * 2 + 1] == pytest.approx(0.5)
        assert bitmap[1 * 2 + 0] == pytest.approx(0.5)

    def test_short_word_gives_zero_bitmap(self):
        assert np.all(sax_bitmap(np.array([1]), alphabet=4, level=2) == 0)

    def test_distance_identical_is_zero(self, rng):
        symbols = rng.integers(0, 8, size=300)
        bitmap = sax_bitmap(symbols, 8, 2)
        assert bitmap_distance(bitmap, bitmap) == 0.0

    def test_distance_between_different_processes(self, rng):
        constant = sax_bitmap(np.zeros(200, dtype=int), 4, 2)
        varied = sax_bitmap(rng.integers(0, 4, size=200), 4, 2)
        assert bitmap_distance(constant, varied) > 0.3

    def test_symbol_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sax_bitmap(np.array([0, 5]), alphabet=4, level=2)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


class TestDistances:
    def test_euclidean_known_value(self):
        assert euclidean([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_manhattan_known_value(self):
        assert manhattan([1, 2, 3], [2, 0, 3]) == pytest.approx(3.0)

    def test_normalized_euclidean_dimension_invariance(self):
        a = np.zeros(10)
        b = np.ones(10)
        a2 = np.zeros(1000)
        b2 = np.ones(1000)
        assert normalized_euclidean(a, b) == pytest.approx(normalized_euclidean(a2, b2))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            euclidean([1, 2], [1, 2, 3])


# ---------------------------------------------------------------------------
# Windows / streaming statistics
# ---------------------------------------------------------------------------


class TestWindows:
    def test_moving_average_constant_signal(self):
        np.testing.assert_allclose(moving_average(np.full(20, 2.5), 5), 2.5)

    def test_moving_average_matches_streaming(self, rng):
        values = rng.normal(size=200)
        batch = moving_average(values, 16)
        # What a sample-at-a-time operator computes: the mean of the last
        # min(i + 1, width) samples, no look-ahead.
        online = np.array([values[max(0, i - 15) : i + 1].mean() for i in range(values.size)])
        np.testing.assert_allclose(batch, online, atol=1e-9)

    def test_moving_average_is_trailing(self):
        values = np.concatenate([np.zeros(50), np.ones(50)])
        smoothed = moving_average(values, 10)
        assert smoothed[49] == 0.0
        assert smoothed[54] == pytest.approx(0.5)

    def test_running_stats_matches_numpy(self, rng):
        values = rng.normal(3.0, 2.0, size=500)
        stats = RunningStats()
        for value in values:
            stats.update(value)
        assert stats.mean == pytest.approx(values.mean())
        assert stats.std == pytest.approx(values.std(), rel=1e-6)

    def test_running_stats_with_forgetting_tracks_drift(self):
        stats = RunningStats(forgetting=0.05)
        for _ in range(300):
            stats.update(0.0)
        for _ in range(300):
            stats.update(10.0)
        assert stats.mean > 9.0


# ---------------------------------------------------------------------------
# Motifs and discords (related-work baselines)
# ---------------------------------------------------------------------------


class TestMotifDiscord:
    def _signal_with_motif(self, rng):
        motif = np.sin(np.linspace(0, 4 * np.pi, 40))
        noise = 0.05 * rng.standard_normal(400)
        signal = noise.copy()
        for start in (30, 150, 300):
            signal[start : start + 40] += motif
        return signal

    def test_find_motifs_locates_repeated_pattern(self, rng):
        signal = self._signal_with_motif(rng)
        motifs = find_motifs(signal, width=40, segments=8, alphabet=4, min_count=2)
        assert motifs, "expected at least one motif"
        top = motifs[0]
        assert top.count >= 2
        # At least two of the known plant sites should be recovered (±10 samples).
        recovered = sum(
            any(abs(occurrence - planted) <= 10 for occurrence in top.occurrences)
            for planted in (30, 150, 300)
        )
        assert recovered >= 2

    def test_find_motifs_on_too_short_signal(self):
        assert find_motifs(np.arange(10.0), width=40) == []

    def test_discord_finds_planted_anomaly(self, rng):
        background = np.sin(np.linspace(0, 60 * np.pi, 1200))
        signal = background + 0.01 * rng.standard_normal(1200)
        signal[600:650] += np.linspace(0, 3.0, 50)  # the anomaly
        discord = find_discord(signal, width=50, segments=10, alphabet=4, step=5)
        assert discord is not None
        assert 550 <= discord.start <= 700

    def test_hot_sax_matches_brute_force(self, rng):
        signal = rng.standard_normal(240)
        fast = find_discord(signal, width=30, step=3)
        slow = brute_force_discord(signal, width=30, step=3)
        assert fast is not None and slow is not None
        assert fast.distance == pytest.approx(slow.distance, rel=1e-9)
        assert fast.start == slow.start

    def test_discord_requires_enough_data(self):
        assert find_discord(np.arange(30.0), width=20) is None
