"""Unit and integration tests for ensemble extraction (the paper's contribution)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AnomalyConfig, ExtractionConfig, TriggerConfig
from repro.core import (
    AdaptiveTrigger,
    cut_ensembles,
    measure_reduction,
    sax_anomaly_scores,
)
from repro.core.cutter import Ensemble
from repro.synth.dataset import CorpusSpec, build_corpus
from repro.timeseries.bitmap import bitmap_distance, sax_bitmap
from repro.timeseries.normalize import znormalize
from repro.timeseries.sax import symbolize


def step_signal(length=6000, burst_start=3000, burst_length=800, seed=0):
    """A quiet noise floor with one loud oscillatory burst."""
    rng = np.random.default_rng(seed)
    signal = 0.05 * rng.standard_normal(length)
    t = np.arange(burst_length)
    signal[burst_start : burst_start + burst_length] += 0.9 * np.sin(2 * np.pi * 0.22 * t)
    return signal


class TestSaxAnomalyScores:
    def test_matches_brute_force_equal_windows(self, rng):
        signal = rng.standard_normal(2000)
        config = AnomalyConfig(window=150, alphabet=4, level=2, smooth_window=1, lag_factor=1)
        scores = sax_anomaly_scores(signal, config, hop=1, smooth=False)
        symbols = symbolize(znormalize(signal), 4)
        for index in (299, 500, 1200, 1998):
            lead = sax_bitmap(symbols[index - 149 : index + 2], 4, 2)
            lag = sax_bitmap(symbols[index - 299 : index - 148], 4, 2)
            assert scores[index] == pytest.approx(bitmap_distance(lead, lag), abs=1e-9)

    def test_hop_approximates_dense_scores(self, rng):
        signal = rng.standard_normal(3000)
        config = AnomalyConfig(window=100, alphabet=8, smooth_window=256, lag_factor=4)
        dense = sax_anomaly_scores(signal, config, hop=1)
        hopped = sax_anomaly_scores(signal, config, hop=8)
        # The hopped variant holds values constant between evaluations; the
        # smoothed curves should stay close.
        assert np.max(np.abs(dense - hopped)) < 0.1

    def test_score_rises_during_burst(self):
        signal = step_signal()
        config = AnomalyConfig(window=100, alphabet=8, smooth_window=256, lag_factor=8)
        scores = sax_anomaly_scores(signal, config, hop=4)
        settle = 100 * 9 + 256
        noise_scores = scores[settle:2900]
        burst_scores = scores[3100:3700]
        assert burst_scores.mean() > noise_scores.mean() + 5 * noise_scores.std()

    def test_short_signal_returns_zeros(self):
        config = AnomalyConfig(window=100, smooth_window=10, lag_factor=2)
        scores = sax_anomaly_scores(np.zeros(100), config)
        assert np.all(scores == 0)
        assert scores.size == 100

    def test_output_length_matches_input(self, rng):
        signal = rng.standard_normal(5000)
        scores = sax_anomaly_scores(signal, AnomalyConfig(window=64, smooth_window=128, lag_factor=4), hop=16)
        assert scores.size == signal.size

    def test_invalid_hop(self, rng):
        with pytest.raises(ValueError):
            sax_anomaly_scores(rng.standard_normal(100), AnomalyConfig(), hop=0)


class TestAdaptiveTrigger:
    def test_fires_only_above_threshold(self):
        config = TriggerConfig(threshold_sigmas=5.0, warmup=200, min_duration=1, hangover=0)
        trigger = AdaptiveTrigger(config)
        rng = np.random.default_rng(1)
        scores = np.concatenate([0.1 + 0.01 * rng.standard_normal(1000), np.full(200, 0.5), 0.1 + 0.01 * rng.standard_normal(300)])
        values = trigger.apply(scores)
        assert values[:1000].sum() == 0
        assert values[1000:1200].mean() > 0.9
        assert values[1250:].sum() == 0

    def test_baseline_only_updated_when_low(self):
        config = TriggerConfig(threshold_sigmas=5.0, warmup=100, baseline_gate_sigmas=None)
        trigger = AdaptiveTrigger(config)
        rng = np.random.default_rng(2)
        low = 0.1 + 0.01 * rng.standard_normal(500)
        trigger.apply(low)
        baseline_before = trigger.baseline_mean
        trigger.apply(np.full(300, 5.0))  # fires immediately; must not move the baseline
        assert trigger.baseline_mean == pytest.approx(baseline_before, rel=1e-6)

    def test_warmup_prevents_early_firing(self):
        config = TriggerConfig(threshold_sigmas=3.0, warmup=1000)
        trigger = AdaptiveTrigger(config)
        values = trigger.apply(np.linspace(0, 1, 500))
        assert values.sum() == 0

    def test_settle_ignores_initial_ramp(self):
        config = TriggerConfig(threshold_sigmas=5.0, warmup=100)
        rng = np.random.default_rng(3)
        ramp = np.linspace(0, 0.1, 400)
        plateau = 0.1 + 0.005 * rng.standard_normal(2000)
        spike_region = plateau.copy()
        spike_region[1000:1100] = 0.3
        scores = np.concatenate([ramp, spike_region])
        with_settle = AdaptiveTrigger(config, settle=400).apply(scores)
        assert with_settle[1400:1500].mean() > 0.9  # spike detected
        assert with_settle[:1000].sum() == 0

    def test_hangover_extends_pulses(self):
        rng = np.random.default_rng(4)
        base = 0.1 + 0.005 * rng.standard_normal(3000)
        base[2000:2050] = 1.0
        no_hang = AdaptiveTrigger(TriggerConfig(warmup=500, hangover=0)).apply(base)
        with_hang = AdaptiveTrigger(TriggerConfig(warmup=500, hangover=200)).apply(base)
        assert with_hang.sum() >= no_hang.sum() + 150

    def test_baseline_gate_blocks_contamination(self):
        rng = np.random.default_rng(5)
        noise = 0.1 + 0.01 * rng.standard_normal(2000)
        near_threshold = noise.copy()
        near_threshold[1000:1500] = 0.14  # elevated but below 5 sigma
        gated = AdaptiveTrigger(TriggerConfig(warmup=500, baseline_gate_sigmas=3.0))
        ungated = AdaptiveTrigger(TriggerConfig(warmup=500, baseline_gate_sigmas=None))
        gated.apply(near_threshold)
        ungated.apply(near_threshold)
        assert gated.baseline_mean < ungated.baseline_mean


class TestCutter:
    def test_cut_ensembles_positions(self):
        signal = np.arange(100.0)
        trigger = np.zeros(100, dtype=int)
        trigger[10:20] = 1
        trigger[50:80] = 1
        ensembles = cut_ensembles(signal, trigger, sample_rate=1000)
        assert len(ensembles) == 2
        assert (ensembles[0].start, ensembles[0].end) == (10, 20)
        np.testing.assert_allclose(ensembles[1].samples, signal[50:80])

    def test_min_duration_filters_glitches(self):
        signal = np.zeros(100)
        trigger = np.zeros(100, dtype=int)
        trigger[10:12] = 1
        trigger[40:60] = 1
        ensembles = cut_ensembles(signal, trigger, 1000, min_duration=5)
        assert len(ensembles) == 1
        assert ensembles[0].start == 40

    def test_trigger_high_at_end_of_signal(self):
        signal = np.ones(50)
        trigger = np.zeros(50, dtype=int)
        trigger[40:] = 1
        ensembles = cut_ensembles(signal, trigger, 1000)
        assert len(ensembles) == 1
        assert ensembles[0].end == 50

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cut_ensembles(np.zeros(10), np.zeros(11), 1000)

    def test_ensemble_properties(self):
        ensemble = Ensemble(samples=np.zeros(160), start=100, end=260, sample_rate=16000)
        assert ensemble.length == 160
        assert ensemble.duration == pytest.approx(0.01)
        labelled = ensemble.with_label("NOCA")
        assert labelled.label == "NOCA"
        assert ensemble.label is None

    def test_ensemble_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            Ensemble(samples=np.zeros(0), start=5, end=5, sample_rate=1000)


class TestEnsembleExtractor:
    def test_extracts_vocalisations_from_clip(self, small_clip, extraction_result):
        assert len(extraction_result.ensembles) >= 1
        assert extraction_result.total_samples == small_clip.samples.size
        assert 0.0 < extraction_result.reduction < 1.0
        assert extraction_result.trigger.size == small_clip.samples.size
        assert extraction_result.anomaly_scores.size == small_clip.samples.size

    def test_extraction_overlaps_ground_truth(self, small_clip, extraction_result):
        truth = np.zeros(small_clip.samples.size, dtype=bool)
        for voc in small_clip.vocalizations:
            truth[voc.start : voc.end] = True
        detected = np.zeros_like(truth)
        for ensemble in extraction_result.ensembles:
            detected[ensemble.start : ensemble.end] = True
        coverage = (truth & detected).sum() / truth.sum()
        assert coverage > 0.2
        false_alarm = (detected & ~truth).sum() / (~truth).sum()
        assert false_alarm < 0.15

    def test_labelling_assigns_species(self, small_clip, extraction_result, labelled_ensembles):
        assert labelled_ensembles, "expected at least one labelled ensemble"
        assert all(e.label == "NOCA" for e in labelled_ensembles)

    def test_quiet_clip_produces_few_ensembles(self, quiet_clip, global_extraction):
        result = global_extraction.run(quiet_clip)
        retained_fraction = result.retained_samples / result.total_samples
        assert retained_fraction < 0.05

    def test_reduction_measurement_over_corpus(self, global_extraction):
        corpus = build_corpus(
            CorpusSpec(species=("NOCA", "RWBL"), clips_per_species=1, songs_per_clip=1,
                       clip_duration=10.0, sample_rate=16000, seed=3)
        )
        report, results = measure_reduction(corpus, global_extraction)
        assert report.clips == 2
        assert len(results) == 2
        assert report.total_samples == sum(c.samples.size for c in corpus.clips)
        assert 0.0 < report.reduction <= 1.0
        assert report.reduction_percent == pytest.approx(100 * report.reduction)
        assert set(report.as_row()) == {
            "clips", "total_samples", "retained_samples", "ensembles", "reduction_percent",
        }


class TestConfigValidation:
    def test_anomaly_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AnomalyConfig(window=1)
        with pytest.raises(ValueError):
            AnomalyConfig(alphabet=1)
        with pytest.raises(ValueError):
            AnomalyConfig(lag_factor=0)

    def test_trigger_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TriggerConfig(threshold_sigmas=0)
        with pytest.raises(ValueError):
            TriggerConfig(min_duration=0)
        with pytest.raises(ValueError):
            TriggerConfig(baseline_gate_sigmas=-1.0)

    def test_extraction_config_lag_window(self):
        config = AnomalyConfig(window=100, lag_factor=20)
        assert config.lag_window == 2000

    def test_feature_config_validation(self):
        config = ExtractionConfig()
        assert config.features.low_hz < config.features.high_hz
        with pytest.raises(ValueError):
            ExtractionConfig(sample_rate=0)


class TestLabelledEdgeCases:
    """Boundary behaviour of PipelineResult.labelled()."""

    @staticmethod
    def _result_with(ensembles):
        from repro.pipeline import PipelineResult

        return PipelineResult(sample_rate=8000, total_samples=100, ensembles=ensembles)

    @staticmethod
    def _clip_with_vocalization(start=0, end=50, species="NOCA"):
        from repro.synth.clips import AcousticClip, Vocalization

        return AcousticClip(
            samples=np.zeros(100),
            sample_rate=8000,
            vocalizations=[Vocalization(species=species, start=start, end=end)],
        )

    def test_no_overlap_drops_ensemble(self):
        clip = self._clip_with_vocalization(0, 50)
        ensemble = Ensemble(samples=np.zeros(20), start=60, end=80, sample_rate=8000)
        assert self._result_with([ensemble]).labelled(clip) == []

    def test_exact_boundary_overlap_is_kept(self):
        # Ensemble [40, 60) overlaps vocalisation [0, 50) by exactly 10
        # samples = 0.5 * its length: >= keeps the exact-boundary case.
        clip = self._clip_with_vocalization(0, 50)
        ensemble = Ensemble(samples=np.zeros(20), start=40, end=60, sample_rate=8000)
        labelled = self._result_with([ensemble]).labelled(clip, min_overlap=0.5)
        assert [e.label for e in labelled] == ["NOCA"]

    def test_just_below_boundary_is_dropped(self):
        clip = self._clip_with_vocalization(0, 50)
        ensemble = Ensemble(samples=np.zeros(20), start=40, end=60, sample_rate=8000)
        assert self._result_with([ensemble]).labelled(clip, min_overlap=0.51) == []

    def test_zero_length_ensembles_are_skipped(self):
        # Ensemble itself forbids zero length, but labelled() must stay
        # robust against duck-typed degenerate entries rather than labelling
        # them via a vacuous `0 >= min_overlap * 0` comparison.
        class DegenerateEnsemble:
            start = 10
            end = 10
            length = 0

        clip = self._clip_with_vocalization(0, 50)
        assert self._result_with([DegenerateEnsemble()]).labelled(clip) == []

    def test_touching_but_not_overlapping_is_dropped(self):
        clip = self._clip_with_vocalization(0, 50)
        ensemble = Ensemble(samples=np.zeros(10), start=50, end=60, sample_rate=8000)
        assert self._result_with([ensemble]).labelled(clip) == []
