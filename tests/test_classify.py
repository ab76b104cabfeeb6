"""Unit tests for feature construction, voting, metrics and cross-validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classify import (
    ConfusionMatrix,
    EvaluationItem,
    PatternExtractor,
    accuracy,
    leave_one_out,
    majority_vote,
    resubstitution,
    summarize,
    vote_ensemble,
)
from repro.config import FAST_EXTRACTION
from repro.core.cutter import Ensemble
from repro.meso import MesoClassifier
from repro.synth import get_species


def make_ensemble(species: str, seed: int, sample_rate: int = 16000) -> Ensemble:
    """A labelled ensemble containing one synthetic song rendition."""
    rng = np.random.default_rng(seed)
    song = get_species(species).render(sample_rate, rng)
    return Ensemble(samples=song, start=0, end=song.size, sample_rate=sample_rate, label=species)


class FixedClassifier:
    """Labels a pattern by the sign of its first feature and counts the calls."""

    def __init__(self):
        self.calls = 0

    def predict(self, pattern):
        self.calls += 1
        return "X" if pattern[0] > 0 else "Y"


class TestPatternExtractor:
    def test_pattern_shape_and_duration(self):
        extractor = PatternExtractor(config=FAST_EXTRACTION.features, sample_rate=16000)
        ensemble = make_ensemble("NOCA", 1)
        patterns = extractor.patterns_from_ensemble(ensemble)
        assert patterns, "expected at least one pattern from a full song"
        assert all(p.size == extractor.features_per_pattern for p in patterns)
        assert extractor.features_per_pattern == extractor.bins_per_record * 3
        assert 0.02 < extractor.pattern_duration < 0.2

    def test_paa_reduces_feature_count_by_factor(self):
        raw = PatternExtractor(config=FAST_EXTRACTION.features, sample_rate=16000, use_paa=False)
        paa = PatternExtractor(config=FAST_EXTRACTION.features, sample_rate=16000, use_paa=True)
        ratio = raw.features_per_pattern / paa.features_per_pattern
        assert 8.0 <= ratio <= 10.0  # ceil() rounding keeps it just under 10

    def test_short_ensemble_yields_no_patterns(self):
        extractor = PatternExtractor(config=FAST_EXTRACTION.features, sample_rate=16000)
        tiny = Ensemble(samples=np.zeros(64), start=0, end=64, sample_rate=16000, label="NOCA")
        assert extractor.patterns_from_ensemble(tiny) == []

    def test_normalisation_modes(self):
        ensemble = make_ensemble("TUTI", 2)
        for mode in ("max", "znorm", "none"):
            extractor = PatternExtractor(
                config=FAST_EXTRACTION.features, sample_rate=16000, normalize=mode
            )
            patterns = extractor.patterns_from_ensemble(ensemble)
            assert patterns
            if mode == "max":
                assert np.max(np.abs(patterns[0])) == pytest.approx(1.0)

    def test_invalid_normalisation_mode(self):
        with pytest.raises(ValueError):
            PatternExtractor(config=FAST_EXTRACTION.features, sample_rate=16000, normalize="bogus")

    def test_labelled_patterns_group_indices(self):
        extractor = PatternExtractor(config=FAST_EXTRACTION.features, sample_rate=16000)
        ensembles = [make_ensemble("NOCA", 3), make_ensemble("MODO", 4)]
        patterns, groups = extractor.labelled_patterns(ensembles)
        assert len(groups) == 2
        assert sum(len(g) for g in groups) == len(patterns)
        for group, species in zip(groups, ("NOCA", "MODO")):
            assert all(patterns[i].label == species for i in group)

    def test_unlabelled_ensemble_rejected(self):
        extractor = PatternExtractor(config=FAST_EXTRACTION.features, sample_rate=16000)
        bare = Ensemble(samples=np.zeros(4000), start=0, end=4000, sample_rate=16000)
        with pytest.raises(ValueError):
            extractor.labelled_patterns([bare])

    def test_patterns_separate_species(self):
        """Log-magnitude band features must place different species apart."""
        extractor = PatternExtractor(config=FAST_EXTRACTION.features, sample_rate=16000, use_paa=True)
        noca = extractor.patterns_from_ensemble(make_ensemble("NOCA", 5))
        modo = extractor.patterns_from_ensemble(make_ensemble("MODO", 6))
        noca_centroid = np.mean(noca, axis=0)
        modo_centroid = np.mean(modo, axis=0)
        within = np.mean([np.linalg.norm(p - noca_centroid) for p in noca])
        between = np.linalg.norm(noca_centroid - modo_centroid)
        assert between > within * 0.5


class TestVoting:
    def test_majority_vote_basic(self):
        assert majority_vote(["a", "b", "a"]) == "a"

    def test_majority_vote_tie_breaks_deterministically(self):
        assert majority_vote(["b", "a"]) == majority_vote(["a", "b"])

    def test_majority_vote_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_vote([])

    def test_vote_ensemble_uses_classifier(self):
        classifier = FixedClassifier()
        patterns = [np.array([1.0]), np.array([-1.0]), np.array([2.0])]
        assert vote_ensemble(classifier, patterns) == "X"
        assert classifier.calls == 3

    def test_vote_ensemble_empty_rejected(self):
        with pytest.raises(ValueError):
            vote_ensemble(FixedClassifier(), [])


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(["a", "b", "c"], ["a", "b", "x"]) == pytest.approx(2 / 3)
        assert accuracy([], []) == 0.0

    def test_accuracy_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(["a"], [])

    def test_summary_formatting(self):
        summary = summarize([0.8, 0.9])
        assert summary.mean == pytest.approx(0.85)
        assert summary.repeats == 2
        assert "85.0%" in summary.format()

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestConfusionMatrix:
    def test_row_percentages_sum_to_100(self):
        matrix = ConfusionMatrix(["a", "b"])
        matrix.add_many(["a", "a", "a", "b"], ["a", "a", "b", "b"])
        rows = matrix.row_percentages()
        np.testing.assert_allclose(rows.sum(axis=1), [100.0, 100.0])
        assert matrix.accuracy() == pytest.approx(3 / 4)

    def test_per_class_accuracy_and_dominance(self):
        matrix = ConfusionMatrix(["a", "b"])
        matrix.add_many(["a", "a", "b", "b"], ["a", "a", "b", "a"])
        per_class = matrix.per_class_accuracy()
        assert per_class["a"] == pytest.approx(100.0)
        assert per_class["b"] == pytest.approx(50.0)
        assert matrix.diagonal_dominant()  # 50 == max of its row? row b: [50, 50] -> diagonal ties max
        matrix.add("b", "a")
        assert not matrix.diagonal_dominant()

    def test_unknown_label_rejected(self):
        matrix = ConfusionMatrix(["a"])
        with pytest.raises(KeyError):
            matrix.add("a", "z")
        with pytest.raises(KeyError):
            matrix.add("z", "a")

    def test_merge_accumulates(self):
        first = ConfusionMatrix(["a", "b"])
        first.add("a", "a")
        second = ConfusionMatrix(["a", "b"])
        second.add("a", "b")
        first.merge(second)
        assert first.counts.sum() == 2

    def test_merge_requires_same_labels(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(["a"]).merge(ConfusionMatrix(["b"]))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(["a", "a"])

    def test_format_contains_all_labels(self):
        matrix = ConfusionMatrix(["NOCA", "MODO"])
        matrix.add("NOCA", "MODO")
        rendered = matrix.format()
        assert "NOCA" in rendered and "MODO" in rendered


def synthetic_items(rng, classes=3, items_per_class=8, patterns_per_item=2, noise=0.2):
    """Well-separated multi-pattern evaluation items for protocol tests."""
    items = []
    for c in range(classes):
        center = np.zeros(4)
        center[c % 4] = 3.0 * (c + 1)
        for _ in range(items_per_class):
            patterns = tuple(center + noise * rng.standard_normal(4) for _ in range(patterns_per_item))
            items.append(EvaluationItem(label=f"class-{c}", patterns=patterns))
    return items


class TestCrossValidation:
    def test_leave_one_out_on_separable_data(self, rng):
        items = synthetic_items(rng)
        result = leave_one_out(items, MesoClassifier, repeats=2, seed=0)
        assert result.summary.mean > 0.95
        assert result.summary.repeats == 2
        assert result.confusion.counts.sum() == 2 * len(items)
        assert result.training_seconds >= 0
        assert len(result.per_repeat_accuracy) == 2

    def test_resubstitution_is_at_least_as_good_as_loo(self, rng):
        items = synthetic_items(rng, noise=1.5)
        loo = leave_one_out(items, MesoClassifier, repeats=1, seed=1)
        resub = resubstitution(items, MesoClassifier, repeats=1, seed=1)
        assert resub.summary.mean >= loo.summary.mean

    def test_single_pattern_items_use_plain_predict(self, rng):
        items = synthetic_items(rng, patterns_per_item=1)
        result = leave_one_out(items, MesoClassifier, repeats=1, seed=0)
        assert result.summary.mean > 0.9

    def test_loo_requires_two_items(self, rng):
        with pytest.raises(ValueError):
            leave_one_out([EvaluationItem(label="a", patterns=(np.zeros(2),))], MesoClassifier)

    def test_repeat_validation(self, rng):
        items = synthetic_items(rng)
        with pytest.raises(ValueError):
            leave_one_out(items, MesoClassifier, repeats=0)
        with pytest.raises(ValueError):
            resubstitution(items, MesoClassifier, repeats=0)

    def test_evaluation_item_requires_patterns(self):
        with pytest.raises(ValueError):
            EvaluationItem(label="a", patterns=())

    def test_format_row_mentions_dataset_name(self, rng):
        items = synthetic_items(rng)
        result = resubstitution(items, MesoClassifier, repeats=1, seed=0)
        line = result.format_row("Ensemble")
        assert line.startswith("Ensemble")
        assert "train" in line and "test" in line
