"""The ensemble-scope codec: ``event_to_records`` ⇄ ``ScopeDecoder``.

Every consumer of the compiled river graph (the stage operators, result
collection, the store sink) reads ensemble scopes through the one decoder
and every producer writes them through the one encoder, so a round trip of
the pair is the contract the river's parity with batch rests on.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.cutter import Ensemble
from repro.pipeline.results import (
    ClassifiedEvent,
    EnsembleEvent,
    EnsembleFragmentEvent,
    FeaturesEvent,
    ensemble_from_fragments,
)
from repro.pipeline.river_adapter import (
    EnsembleStageOperator,
    ScopeDecoder,
    event_to_records,
)
from repro.pipeline.stages import ClassifyStage, FeatureStage, Stage
from repro.river.records import (
    ScopeType,
    Subtype,
    bad_close_scope,
    close_scope,
    data_record,
    end_of_stream,
    open_scope,
)
from repro.river.serialization import pack_stream, unpack_stream

ENSEMBLE = ScopeType.ENSEMBLE.value
CLIP = ScopeType.CLIP.value

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)
vectors = lambda lo, hi: arrays(np.float64, st.integers(lo, hi), elements=finite)  # noqa: E731
labels = st.sampled_from(["NOCA", "BLJA", "TUTI", "a label, with: punctuation"])


@st.composite
def ensembles(draw):
    samples = draw(vectors(1, 120))
    start = draw(st.integers(0, 10**7))
    return Ensemble(
        samples=samples,
        start=start,
        end=start + samples.size,
        sample_rate=draw(st.sampled_from([8000, 16000, 22050])),
        label=draw(st.none() | labels),
    )


@st.composite
def terminal_events(draw):
    ensemble = draw(ensembles())
    kind = draw(st.sampled_from(["ensemble", "features", "classified"]))
    if kind == "ensemble":
        return EnsembleEvent(ensemble)
    patterns = tuple(draw(st.lists(vectors(1, 12), max_size=4)))
    if kind == "features":
        return FeaturesEvent(ensemble, patterns)
    votes = draw(st.dictionaries(labels, st.integers(1, 9), max_size=3))
    label = max(votes, key=votes.get) if votes else None
    return ClassifiedEvent(ensemble, patterns, label, votes)


@st.composite
def fragment_streams(draw):
    """(events, slices, patterns): one ensemble as an in-process fragment
    pipeline emits it — open, data slices with partial per-pattern events
    in between, close."""
    samples = draw(vectors(2, 120))
    cuts = sorted(draw(st.sets(st.integers(1, samples.size - 1), max_size=5)))
    slices = np.split(samples, cuts)
    start = draw(st.integers(0, 10**7))
    rate = draw(st.sampled_from([8000, 16000]))
    events = [EnsembleFragmentEvent("open", start, rate)]
    patterns = []
    offset = start
    for part in slices:
        events.append(EnsembleFragmentEvent("data", start, rate, samples=part, offset=offset))
        offset += part.size
        for pattern in draw(st.lists(vectors(1, 8), max_size=2)):
            patterns.append(pattern)
            events.append(FeaturesEvent(None, (pattern,)))
    events.append(EnsembleFragmentEvent("close", start, rate, end=offset))
    return events, slices, patterns


def encode_fragments(events, depth=1, index=0):
    """Number a fragment stream the way the operators do."""
    records, slices, features = [], 0, 0
    for event in events:
        if isinstance(event, FeaturesEvent):
            sequence, features = features, features + len(event.patterns)
        elif event.kind == "data":
            sequence, slices = slices, slices + 1
        else:
            sequence = index
        records.extend(event_to_records(event, depth, sequence))
    return records


def decode(records, **kwargs):
    decoder = ScopeDecoder(**kwargs)
    return [event for record in records for event in decoder.feed(record)]


def assert_same_event(decoded, expected) -> None:
    assert type(decoded) is type(expected)
    if isinstance(expected, EnsembleFragmentEvent):
        assert (decoded.kind, decoded.start, decoded.sample_rate, decoded.offset, decoded.end) == (
            expected.kind, expected.start, expected.sample_rate, expected.offset, expected.end
        )
        if expected.samples is not None:
            np.testing.assert_array_equal(decoded.samples, expected.samples)
        return
    a, b = decoded.ensemble, expected.ensemble
    assert (a is None) == (b is None)
    if b is not None:
        assert (a.start, a.end, a.sample_rate, a.label) == (b.start, b.end, b.sample_rate, b.label)
        np.testing.assert_array_equal(a.samples, b.samples)
    assert len(decoded.patterns) == len(expected.patterns)
    for x, y in zip(decoded.patterns, expected.patterns):
        np.testing.assert_array_equal(x, y)
    assert decoded.label == expected.label
    if isinstance(expected, ClassifiedEvent):
        assert decoded.votes == expected.votes


def assert_same_events(decoded, expected) -> None:
    assert len(decoded) == len(expected)
    for a, b in zip(decoded, expected):
        assert_same_event(a, b)


class TestTerminalRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(
        event=terminal_events(),
        stream=st.booleans(),
        depth=st.integers(0, 3),
        wire=st.booleans(),
    )
    def test_decode_inverts_encode(self, event, stream, depth, wire):
        """Every terminal kind — with and without ground truth, zero
        patterns, votes — survives, whoever decodes (a buffered scope is
        never streamed) and whether or not it crossed the wire framing."""
        records = event_to_records(event, depth, index=5)
        assert records[0].is_open and records[-1].is_close
        assert {r.scope for r in records[1:-1]} == {depth + 1}
        if wire:
            records = list(unpack_stream(pack_stream(records)))
        assert_same_events(decode(records, stream=stream), [event])

    def test_verdict_and_ground_truth_travel_apart(self):
        ensemble = Ensemble(np.ones(4), 10, 14, 8000, label="BLJA")
        records = event_to_records(
            ClassifiedEvent(ensemble, (np.ones(3),), "NOCA", {"NOCA": 1}), 0, 0
        )
        opener = records[0].context
        assert opener["ens_label"] == "BLJA" and "label" not in opener
        (verdict,) = [r for r in records if r.subtype == Subtype.LABEL.value]
        assert verdict.context["label"] == "NOCA" and verdict.context["votes"] == {"NOCA": 1}
        (event,) = decode(records)
        assert (event.label, event.ensemble.label) == ("NOCA", "BLJA")


class TestFragmentedScopes:
    @settings(max_examples=100, deadline=None)
    @given(stream=fragment_streams())
    def test_streaming_decode_replays_the_fragment_events(self, stream):
        events, _, _ = stream
        assert_same_events(decode(encode_fragments(events), stream=True), events)

    @settings(max_examples=100, deadline=None)
    @given(stream=fragment_streams())
    def test_reassembled_decode_is_ensemble_from_fragments(self, stream):
        events, slices, patterns = stream
        opened, closed = events[0], events[-1]
        ensemble = ensemble_from_fragments(
            list(slices), opened.start, closed.end, opened.sample_rate
        )
        expected = (
            FeaturesEvent(ensemble, tuple(patterns)) if patterns else EnsembleEvent(ensemble)
        )
        assert_same_events(decode(encode_fragments(events)), [expected])

    def test_close_stamp_marks_a_short_ensemble(self):
        """A pumped scope carries ``n_patterns`` on its close: reassembled it
        is an empty FeaturesEvent, streamed an empty partial before the close."""
        events = [
            EnsembleFragmentEvent("open", 100, 8000),
            EnsembleFragmentEvent("data", 100, 8000, samples=np.ones(7), offset=100),
            EnsembleFragmentEvent("close", 100, 8000, end=107),
        ]
        records = encode_fragments(events)
        records[-1].context = {"n_patterns": 0}
        (whole,) = decode(records)
        assert isinstance(whole, FeaturesEvent) and whole.patterns == ()
        assert (whole.ensemble.start, whole.ensemble.end) == (100, 107)
        streamed = decode(records, stream=True)
        assert_same_events(streamed, events[:2] + [FeaturesEvent(None, ())] + events[2:])


class TestTruncationAndStrays:
    @settings(max_examples=100, deadline=None)
    @given(
        first=terminal_events() | fragment_streams(),
        survivor=terminal_events(),
        cut=st.integers(1, 10**6),
        stream=st.booleans(),
    )
    def test_bad_close_voids_the_scope_and_nothing_else(self, first, survivor, cut, stream):
        records = (
            encode_fragments(first[0])
            if isinstance(first, tuple)
            else event_to_records(first, 0, 0)
        )
        kept = records[: 1 + cut % (len(records) - 1)]  # the opener, never the close
        decoder = ScopeDecoder(stream=stream)
        before = [event for record in kept for event in decoder.feed(record)]
        # Only a fragmented scope decoded while open has said anything yet.
        assert all(
            isinstance(e, EnsembleFragmentEvent) or e.partial for e in before
        ) and (stream or not before)
        assert decoder.feed(bad_close_scope(0, ENSEMBLE, reason="worker died")) == []
        assert not decoder.streaming
        after = [
            event
            for record in event_to_records(survivor, 0, 1)
            for event in decoder.feed(record)
        ]
        assert_same_events(after, [survivor])

    @given(stream=st.booleans())
    def test_records_outside_an_ensemble_scope_decode_to_nothing(self, stream):
        strays = [
            open_scope(0, CLIP, context={"sample_rate": 8000}),
            data_record(np.ones(8), Subtype.AUDIO.value, scope=1, scope_type=CLIP),
            data_record(np.ones(8), Subtype.FEATURES.value, scope=1, scope_type=ENSEMBLE),
            data_record(np.zeros(0), Subtype.LABEL.value, scope=1, scope_type=ENSEMBLE,
                        context={"label": "NOCA"}),
            close_scope(0, ENSEMBLE),
            bad_close_scope(0, ENSEMBLE),
            close_scope(0, CLIP),
            end_of_stream(),
        ]
        assert decode(strays, stream=stream) == []

    def test_scope_without_audio_is_no_ensemble(self):
        records = [open_scope(0, ENSEMBLE, context={"start": 3}), close_scope(0, ENSEMBLE)]
        assert decode(records) == []

    def test_rate_falls_back_to_the_callers_default(self):
        records = [
            open_scope(0, ENSEMBLE, context={"start": 3}),
            data_record(np.ones(5), Subtype.AUDIO.value, scope=1, scope_type=ENSEMBLE),
            close_scope(0, ENSEMBLE),
        ]
        (event,) = decode(records, default_rate=8000)
        assert (event.ensemble.sample_rate, event.ensemble.end) == (8000, 8)
        assert decode(records)[0].ensemble.sample_rate == 22050


class _Recorder(Stage):
    name = "recorder"

    def __init__(self) -> None:
        self.seen = []

    def process(self, event):
        self.seen.append(event)
        return [event]


class _Fixed:
    def __init__(self, label) -> None:
        self.label = label

    def predict(self, pattern):
        return self.label


class TestOperatorsOnTheCodec:
    def _through(self, operators, records):
        for operator in operators:
            records = [out for record in records for out in operator.process(record)]
        return records

    def test_ground_truth_survives_features_and_classify(self):
        """An ensemble that *carries* a ground-truth label keeps it, distinct
        from the verdict, through the feature and classify operators — and a
        stage compiled after classify receives the ClassifiedEvent (label
        and votes) it would receive in-process."""
        rng = np.random.default_rng(0)
        ensemble = Ensemble(rng.normal(size=6000), 500, 6500, 16000, label="BLJA")
        recorder = _Recorder()
        operators = [
            EnsembleStageOperator(FeatureStage(use_paa=True)),
            EnsembleStageOperator(ClassifyStage(_Fixed("NOCA"))),
            EnsembleStageOperator(recorder),
        ]
        outputs = self._through(operators, event_to_records(EnsembleEvent(ensemble), 0, 0))
        (event,) = decode(outputs)
        assert isinstance(event, ClassifiedEvent) and event.patterns
        assert (event.label, event.ensemble.label) == ("NOCA", "BLJA")
        assert event.votes == dict(Counter({"NOCA": len(event.patterns)}))
        assert_same_events(recorder.seen, [event])

    def test_pump_appends_only_what_its_stage_made(self):
        """A pumping operator forwards the original records and appends the
        patterns its stage completes; patterns already in the scope are not
        duplicated by a second pumping operator."""
        rng = np.random.default_rng(1)
        samples = rng.normal(size=6000)
        events = [EnsembleFragmentEvent("open", 0, 16000)]
        for offset in range(0, samples.size, 1500):
            events.append(
                EnsembleFragmentEvent(
                    "data", 0, 16000, samples=samples[offset : offset + 1500], offset=offset
                )
            )
        events.append(EnsembleFragmentEvent("close", 0, 16000, end=samples.size))
        records = encode_fragments(events)
        stage = FeatureStage(use_paa=True, emit="patterns")
        once = self._through([EnsembleStageOperator(stage)], records)
        assert [r for r in once if r.subtype != Subtype.FEATURES.value] == records
        batch = FeatureStage(use_paa=True, sample_rate=16000).patterns_for(samples)
        (event,) = decode(once)
        assert len(batch) > 0
        assert_same_events(
            [event], [FeaturesEvent(ensemble_from_fragments([samples], 0, None, 16000), tuple(batch))]
        )
        recorder = _Recorder()
        recorder.consumes_fragments = True
        assert self._through([EnsembleStageOperator(recorder)], once) == once
        assert sum(isinstance(e, FeaturesEvent) for e in recorder.seen) == len(batch)
