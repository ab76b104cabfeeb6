"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.classify.confusion import ConfusionMatrix
from repro.core.cutter import cut_ensembles
from repro.meso import MesoClassifier
from repro.river import (
    ScopeStack,
    data_record,
    open_scope,
    pack_record,
    unpack_record,
    validate_stream,
)
from repro.timeseries import (
    moving_average,
    paa,
    sax_bitmap,
    symbolize,
    znormalize,
)

# Keep hypothesis fast and deterministic enough for CI-style runs.
DEFAULT_SETTINGS = dict(max_examples=50, deadline=None)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def float_arrays(min_size=1, max_size=300):
    return arrays(
        dtype=np.float64,
        shape=st.integers(min_value=min_size, max_value=max_size),
        elements=finite_floats,
    )


class TestZnormalizeProperties:
    @given(values=float_arrays(min_size=2))
    @settings(**DEFAULT_SETTINGS)
    def test_output_is_zero_mean_unit_std_or_zero(self, values):
        normalized = znormalize(values)
        assert normalized.shape == values.shape
        if np.all(normalized == 0):
            assert np.std(values) < 1e-6 * max(1.0, np.max(np.abs(values)))
        else:
            assert abs(normalized.mean()) < 1e-6
            assert abs(normalized.std() - 1.0) < 1e-6

    @given(values=float_arrays(min_size=2), shift=finite_floats, scale=st.floats(0.1, 1e3))
    @settings(**DEFAULT_SETTINGS)
    def test_affine_invariance(self, values, shift, scale):
        assume(np.std(values) > 1e-3)  # avoid the constant-signal epsilon boundary
        a = znormalize(values)
        b = znormalize(values * scale + shift)
        # A large shift on a small spread loses low-order bits to float64
        # cancellation before znormalize ever runs; scale the tolerance by
        # that conditioning (shift / post-scale spread) so the test measures
        # znormalize, not the representability of its input.
        conditioning = abs(shift) / (scale * np.std(values))
        atol = 1e-6 + 64 * np.finfo(float).eps * conditioning
        np.testing.assert_allclose(a, b, atol=atol)


class TestPaaProperties:
    @given(values=float_arrays(min_size=4, max_size=200), data=st.data())
    @settings(**DEFAULT_SETTINGS)
    def test_length_and_mean_preservation(self, values, data):
        segments = data.draw(st.integers(min_value=1, max_value=values.size))
        reduced = paa(values, segments)
        assert reduced.size == segments
        assert abs(reduced.mean() - values.mean()) < 1e-6 * max(1.0, np.max(np.abs(values)))

    @given(values=float_arrays(min_size=4, max_size=200), data=st.data())
    @settings(**DEFAULT_SETTINGS)
    def test_values_bounded_by_input_range(self, values, data):
        segments = data.draw(st.integers(min_value=1, max_value=values.size))
        reduced = paa(values, segments)
        slack = 1e-9 * max(1.0, float(np.max(np.abs(values))))
        assert reduced.min() >= values.min() - slack
        assert reduced.max() <= values.max() + slack


class TestSaxProperties:
    @given(values=float_arrays(min_size=2), alphabet=st.integers(2, 16))
    @settings(**DEFAULT_SETTINGS)
    def test_symbols_within_alphabet(self, values, alphabet):
        symbols = symbolize(znormalize(values), alphabet)
        assert symbols.min() >= 0
        assert symbols.max() < alphabet

    @given(values=float_arrays(min_size=2), alphabet=st.integers(2, 8))
    @settings(**DEFAULT_SETTINGS)
    def test_symbolize_is_monotone(self, values, alphabet):
        order = np.argsort(values)
        symbols = symbolize(values, alphabet)
        assert np.all(np.diff(symbols[order]) >= 0)

    @given(
        symbols=arrays(np.int64, st.integers(2, 200), elements=st.integers(0, 3)),
        level=st.integers(1, 3),
    )
    @settings(**DEFAULT_SETTINGS)
    def test_bitmap_is_normalised(self, symbols, level):
        bitmap = sax_bitmap(symbols, alphabet=4, level=level)
        assert bitmap.size == 4**level
        assert np.all(bitmap >= 0)
        if symbols.size >= level:
            assert abs(bitmap.sum() - 1.0) < 1e-9
        else:
            assert bitmap.sum() == 0.0


class TestMovingAverageProperties:
    @given(values=float_arrays(min_size=1, max_size=200), width=st.integers(1, 50))
    @settings(**DEFAULT_SETTINGS)
    def test_bounded_by_input_extremes(self, values, width):
        smoothed = moving_average(values, width)
        assert smoothed.size == values.size
        slack = 1e-9 * max(1.0, float(np.max(np.abs(values))))
        assert smoothed.min() >= values.min() - slack
        assert smoothed.max() <= values.max() + slack


class TestCutterProperties:
    @given(
        trigger=arrays(np.int8, st.integers(1, 400), elements=st.integers(0, 1)),
        min_duration=st.integers(1, 10),
    )
    @settings(**DEFAULT_SETTINGS)
    def test_ensembles_cover_exactly_long_enough_trigger_runs(self, trigger, min_duration):
        signal = np.arange(trigger.size, dtype=float)
        ensembles = cut_ensembles(signal, trigger, 1000, min_duration=min_duration)
        mask = np.zeros(trigger.size, dtype=bool)
        for ensemble in ensembles:
            assert ensemble.length >= min_duration
            # Samples must be copied verbatim from the source positions.
            np.testing.assert_allclose(ensemble.samples, signal[ensemble.start : ensemble.end])
            assert not mask[ensemble.start : ensemble.end].any()  # no overlaps
            mask[ensemble.start : ensemble.end] = True
        # Every retained sample must have had the trigger high.
        assert np.all(trigger[mask] == 1)
        # Every trigger-high run of at least min_duration must be retained.
        runs = []
        start = None
        for i, value in enumerate(trigger):
            if value and start is None:
                start = i
            elif not value and start is not None:
                runs.append((start, i))
                start = None
        if start is not None:
            runs.append((start, trigger.size))
        for run_start, run_end in runs:
            if run_end - run_start >= min_duration:
                assert mask[run_start:run_end].all()


class TestScopeStackProperties:
    @given(depths=st.lists(st.integers(0, 3), min_size=0, max_size=30))
    @settings(**DEFAULT_SETTINGS)
    def test_closing_records_always_rebalance(self, depths):
        """However many scopes were opened, closing_records leaves depth 0 and
        the combined stream validates."""
        stack = ScopeStack(strict=False)
        observed = []
        for depth in depths:
            record = open_scope(stack.depth)  # always open at the current depth
            stack.observe(record)
            observed.append(record)
        closings = stack.closing_records("test")
        assert stack.depth == 0
        assert validate_stream(observed + closings, strict=False) == [] or all(
            "still open" not in v for v in validate_stream(observed + closings, strict=False)
        )

    @given(
        payload=float_arrays(min_size=0, max_size=100),
        scope=st.integers(0, 5),
        sequence=st.integers(0, 10_000),
        subtype=st.sampled_from(["audio", "trigger", "features"]),
    )
    @settings(**DEFAULT_SETTINGS)
    def test_serialization_roundtrip(self, payload, scope, sequence, subtype):
        record = data_record(payload, subtype=subtype, scope=scope, sequence=sequence,
                             context={"n": int(sequence)})
        unpacked, consumed = unpack_record(pack_record(record))
        assert consumed == len(pack_record(record))
        assert unpacked.subtype == subtype
        assert unpacked.scope == scope
        assert unpacked.sequence == sequence
        np.testing.assert_allclose(unpacked.payload, np.asarray(payload))


class TestMesoProperties:
    @given(
        points=arrays(
            np.float64,
            st.tuples(st.integers(2, 40), st.integers(1, 6)),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    @settings(**DEFAULT_SETTINGS)
    def test_memory_accounts_for_every_pattern(self, points):
        labels = [f"c{i % 3}" for i in range(points.shape[0])]
        meso = MesoClassifier()
        meso.fit(points, labels)
        assert meso.pattern_count == points.shape[0]
        assert 1 <= meso.sphere_count <= points.shape[0]
        # Every sphere centre is the mean of its members.
        for sphere in meso.spheres:
            np.testing.assert_allclose(sphere.center, np.mean(sphere.members, axis=0), atol=1e-8)
        # Label histogram across spheres matches the training labels.
        total = {}
        for sphere in meso.spheres:
            for label, count in sphere.label_counts.items():
                total[label] = total.get(label, 0) + count
        expected = {}
        for label in labels:
            expected[label] = expected.get(label, 0) + 1
        assert total == expected

    @given(
        points=arrays(
            np.float64,
            st.tuples(st.integers(2, 30), st.integers(1, 4)),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    @settings(**DEFAULT_SETTINGS)
    def test_prediction_returns_a_training_label(self, points):
        labels = [f"c{i % 2}" for i in range(points.shape[0])]
        meso = MesoClassifier()
        meso.fit(points, labels)
        prediction = meso.predict(points[0])
        assert prediction in set(labels)


class TestConfusionMatrixProperties:
    @given(
        outcomes=st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from("abcd")), min_size=1, max_size=200
        )
    )
    @settings(**DEFAULT_SETTINGS)
    def test_row_percentages_sum_to_100_for_observed_rows(self, outcomes):
        matrix = ConfusionMatrix(list("abcd"))
        for true_label, predicted in outcomes:
            matrix.add(true_label, predicted)
        rows = matrix.row_percentages()
        for i, label in enumerate(matrix.labels):
            observed = sum(1 for t, _ in outcomes if t == label)
            if observed:
                assert rows[i].sum() == pytest.approx(100.0)
            else:
                assert rows[i].sum() == 0.0
        assert 0.0 <= matrix.accuracy() <= 1.0
