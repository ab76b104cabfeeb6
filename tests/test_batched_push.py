"""One push of a mixed batch equals one push per event, bit for bit.

``FeatureStage`` and ``ClassifyStage`` override ``Stage.process_events``:
every whole-ensemble event of a push shares one frame block, one
``_frequency_records`` call, one normalisation and one ``predict_batch``.
Batching must change nothing a consumer can see — not the events, not
their order, not one bit of a pattern — whatever else rides in the batch:
ensembles shorter than one record, ensembles with records but no whole
pattern group, fragment streams (which step a stateful builder) and
events the stage does not understand.  Each case here pushes a
hypothesis-generated event list once as a batch and once event by event
through fresh stages, and also checks the whole-ensemble patterns against
the per-record reference ``_frequency_record`` → ``_normalize_pattern``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cutter import Ensemble
from repro.meso import MesoClassifier
from repro.pipeline.builder import _push
from repro.pipeline.results import (
    ClassifiedEvent,
    EnsembleEvent,
    EnsembleFragmentEvent,
    FeaturesEvent,
    SignalChunk,
)
from repro.pipeline.stages import ClassifyStage, FeatureStage

RATE = 16000
SETTINGS = dict(max_examples=25, deadline=None)

#: Ensemble lengths around the edges: none, under one record (512), records
#: but no whole group of three, exactly one group, and several groups.
LENGTHS = st.one_of(
    st.integers(0, 511),
    st.integers(512, 1279),
    st.just(1024),
    st.integers(1280, 6000),
)


@st.composite
def event_specs(draw):
    """A mixed batch: whole ensembles, fragment sessions, foreign events."""
    specs = []
    for kind in draw(st.lists(st.sampled_from(["ens", "ens", "frag", "foreign"]), min_size=1, max_size=10)):
        if kind == "ens":
            specs.append(("ens", draw(LENGTHS)))
        elif kind == "frag":
            specs.append(("frag", draw(st.lists(st.integers(1, 900), max_size=4))))
        else:
            specs.append(("foreign", draw(st.integers(1, 64))))
    return specs, draw(st.integers(0, 2**32 - 1))


def make_events(specs, seed) -> list:
    rng = np.random.default_rng(seed)
    events, start = [], 0
    for kind, size in specs:
        if kind == "ens":
            samples = rng.normal(size=size) * 10.0 ** rng.integers(-3, 2)
            events.append(
                EnsembleEvent(Ensemble(samples=samples, start=start, end=start + max(1, size), sample_rate=RATE))
            )
            start += max(1, size)
        elif kind == "frag":
            events.append(EnsembleFragmentEvent(kind="open", start=start, sample_rate=RATE))
            offset = 0
            for part in size:
                events.append(
                    EnsembleFragmentEvent(
                        kind="data", start=start, sample_rate=RATE,
                        samples=rng.normal(size=part), offset=offset,
                    )
                )
                offset += part
            end = start + max(1, offset)
            events.append(EnsembleFragmentEvent(kind="close", start=start, sample_rate=RATE, end=end))
            start = end
        else:
            events.append(SignalChunk(samples=rng.normal(size=size), sample_rate=RATE, offset=start))
    return events


def same_arrays(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_events(got, expected) -> None:
    assert [type(e) for e in got] == [type(e) for e in expected]
    for a, b in zip(got, expected):
        if isinstance(a, (FeaturesEvent, ClassifiedEvent)):
            if a.ensemble is None or b.ensemble is None:
                assert a.ensemble is b.ensemble
            else:
                assert (a.ensemble.start, a.ensemble.end) == (b.ensemble.start, b.ensemble.end)
                assert same_arrays(a.ensemble.samples, b.ensemble.samples)
            assert len(a.patterns) == len(b.patterns)
            assert all(same_arrays(p, q) for p, q in zip(a.patterns, b.patterns))
            if isinstance(a, ClassifiedEvent):
                assert (a.label, a.votes) == (b.label, b.votes)
        else:
            assert a is b


def per_event(stages, events) -> list:
    return [out for event in events for out in _push(stages, [event])]


def reference_patterns(extractor, samples) -> list[np.ndarray]:
    """The per-record path: one ``_frequency_record`` per record and one
    ``_normalize_pattern`` per group."""
    size = extractor.config.record_size
    group = extractor.config.records_per_pattern
    records = [
        extractor._frequency_record(samples[s : s + size])
        for s in range(0, samples.size - size + 1, size // 2)
    ]
    return [
        extractor._normalize_pattern(np.concatenate(records[i : i + group]))
        for i in range(0, len(records) - group + 1, group)
    ]


def feature_stage(normalize, log_compress, use_paa, emit="ensembles") -> FeatureStage:
    return FeatureStage(
        normalize=normalize, log_compress=log_compress, use_paa=use_paa,
        sample_rate=RATE, emit=emit,
    )


MODES = [
    (normalize, log_compress, use_paa)
    for normalize in ("max", "znorm", "none")
    for log_compress in (True, False)
    for use_paa in (True, False)
]


class TestFeatureStageBatch:
    @pytest.mark.parametrize("normalize,log_compress,use_paa", MODES)
    @settings(**SETTINGS)
    @given(case=event_specs())
    def test_one_push_equals_per_event_pushes(self, normalize, log_compress, use_paa, case):
        events = make_events(*case)
        batched = _push([feature_stage(normalize, log_compress, use_paa)], events)
        single = per_event([feature_stage(normalize, log_compress, use_paa)], events)
        assert_same_events(batched, single)
        extractor = feature_stage(normalize, log_compress, use_paa).extractor
        made_for = {
            id(e.ensemble): e for e in batched if isinstance(e, FeaturesEvent) and e.ensemble is not None
        }
        for event in events:
            if not isinstance(event, EnsembleEvent):
                continue
            made = made_for[id(event.ensemble)]
            expected = reference_patterns(extractor, event.ensemble.samples)
            assert len(made.patterns) == len(expected)
            assert all(same_arrays(p, q) for p, q in zip(made.patterns, expected))

    @settings(**SETTINGS)
    @given(case=event_specs())
    def test_pattern_emit_mode(self, case):
        events = make_events(*case)
        batched = _push([feature_stage("max", True, True, emit="patterns")], events)
        single = per_event([feature_stage("max", True, True, emit="patterns")], events)
        assert_same_events(batched, single)

    def test_blocks_larger_than_the_cap(self, monkeypatch):
        # More records than one block holds: the batch is split, not grown.
        events = make_events([("ens", 5000)] * 6 + [("ens", 100)], seed=4)
        single = per_event([feature_stage("max", True, True)], events)
        monkeypatch.setattr(type(feature_stage("max", True, True).extractor), "_BLOCK_RECORDS", 20)
        assert_same_events(_push([feature_stage("max", True, True)], events), single)


class _SignClassifier:
    """A classifier without ``predict_batch``: votes by the sign of the
    pattern's centred sum."""

    def predict(self, pattern):
        return "pos" if float(np.sum(pattern - np.mean(pattern))) >= 0 else "neg"


@pytest.fixture(scope="module")
def meso():
    stage = feature_stage("max", True, True)
    rng = np.random.default_rng(11)
    memory = MesoClassifier()
    for index in range(30):
        for pattern in stage.patterns_for(rng.normal(size=4000) * (1 + index % 3)):
            memory.partial_fit(pattern, f"sp{index % 4}")
    return memory


class TestClassifyStageBatch:
    @settings(**SETTINGS)
    @given(case=event_specs())
    def test_one_push_equals_per_event_pushes(self, meso, case):
        events = make_events(*case)
        chain = lambda: [feature_stage("max", True, True), ClassifyStage(meso)]  # noqa: E731
        batched = _push(chain(), events)
        assert_same_events(batched, per_event(chain(), events))
        for event in batched:
            if isinstance(event, ClassifiedEvent):
                votes = Counter(meso.predict(p) for p in event.patterns)
                assert event.votes == dict(votes)
                if not event.patterns:
                    assert event.label is None and event.votes == {}

    @settings(**SETTINGS)
    @given(case=event_specs())
    def test_classifier_without_batch_predict(self, case):
        events = make_events(*case)
        chain = lambda: [feature_stage("znorm", False, False), ClassifyStage(_SignClassifier())]  # noqa: E731
        assert_same_events(_push(chain(), events), per_event(chain(), events))

    def test_partial_and_pattern_less_events(self, meso):
        # Partial per-pattern events pass through; an ensemble without
        # patterns is labelled None; stored-pattern events are voted as-is.
        stage = feature_stage("max", True, True)
        rng = np.random.default_rng(2)
        patterns = tuple(stage.patterns_for(rng.normal(size=3000)))
        short = Ensemble(samples=np.zeros(100), start=0, end=100, sample_rate=RATE)
        full = Ensemble(samples=np.zeros(3000), start=100, end=3100, sample_rate=RATE)
        events = [
            FeaturesEvent(ensemble=None, patterns=patterns[:1]),
            FeaturesEvent(ensemble=short, patterns=()),
            FeaturesEvent(ensemble=full, patterns=patterns),
            FeaturesEvent(ensemble=None, patterns=patterns[1:2]),
        ]
        batched = ClassifyStage(meso).process_events(events)
        assert_same_events(batched, per_event([ClassifyStage(meso)], events))
        assert batched[0] is events[0] and batched[3] is events[3]
        assert batched[1].label is None and batched[1].votes == {}
        assert batched[2].votes == dict(Counter(meso.predict(p) for p in patterns))
