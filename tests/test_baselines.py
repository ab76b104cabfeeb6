"""Tests for the related-work baseline (energy segmentation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import EnergySegmenter


class TestEnergySegmenter:
    def test_detects_loud_burst(self, rng):
        signal = 0.02 * rng.standard_normal(8000)
        signal[3000:4000] += np.sin(2 * np.pi * 0.2 * np.arange(1000))
        segments = EnergySegmenter(window=256, threshold_ratio=4.0, min_duration=200).segment(signal, 8000)
        assert len(segments) >= 1
        covered = any(s.start < 3500 < s.end for s in segments)
        assert covered

    def test_silence_produces_no_segments(self, rng):
        signal = 0.01 * rng.standard_normal(4000)
        segments = EnergySegmenter(threshold_ratio=8.0, min_duration=100).segment(signal, 8000)
        assert segments == []

    def test_energy_shape(self, rng):
        segmenter = EnergySegmenter(window=128)
        signal = rng.standard_normal(1000)
        assert segmenter.energy(signal).size == 1000

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EnergySegmenter(window=0)
        with pytest.raises(ValueError):
            EnergySegmenter(threshold_ratio=0)
