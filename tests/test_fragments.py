"""Fragment-mode parity: streaming ensembles while they are still open.

The tentpole contract of the incremental-fragments refactor:

* **cutter** — reassembling the ``FragmentOpen`` / ``FragmentData`` /
  ``FragmentClose`` stream of :meth:`ChunkedCutter.push_fragments` yields
  exactly the buffered ensembles of ``push_block`` / ``cut_ensembles``,
  for arbitrary signals, triggers and chunkings (hypothesis);
* **features** — :class:`IncrementalPatternBuilder` fed arbitrary slices
  produces bit-for-bit the patterns of the historical batch reslicing
  algorithm (hypothesis, against an independent reference implementation);
* **pipelines** — a fragment-mode pipeline's final output (ensembles,
  patterns, labels, short-ensemble count) is bit-identical to buffered
  mode on every backend: batch ``run()``, ``extract_stream()``, the
  simulated river and the process river, for fan-out k in {1, 2, 4};
* **latency** — partial per-pattern events of an ensemble are emitted
  before that ensemble's close marker, which is the whole point.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FAST_EXTRACTION, FeatureConfig
from repro.core.cutter import cut_ensembles
from repro.meso import MesoClassifier
from repro.pipeline import (
    AcousticPipeline,
    ChunkedCutter,
    EnsembleFragmentEvent,
    ExtractStage,
    FeaturesEvent,
    FragmentClose,
    FragmentData,
    FragmentOpen,
    run_clips_via_river,
)
from repro.classify.features import IncrementalPatternBuilder, PatternExtractor
from repro.river.transport import transport_available
from repro.synth import ClipBuilder, get_species

DEFAULT_SETTINGS = dict(max_examples=50, deadline=None)


def reassemble_fragments(events, sample_rate):
    """Independent fragment reassembler: (start, end, samples) per close."""
    ensembles = []
    parts: list[np.ndarray] = []
    for event in events:
        if isinstance(event, FragmentOpen):
            parts = []
        elif isinstance(event, FragmentData):
            parts.append(event.samples)
        elif isinstance(event, FragmentClose):
            ensembles.append((event.start, event.end, np.concatenate(parts)))
            parts = []
    return ensembles


def chunk_bounds(total: int, sizes: list[int]):
    """Cut ``range(total)`` into chunks cycling through ``sizes``."""
    bounds = [0]
    index = 0
    while bounds[-1] < total:
        bounds.append(min(total, bounds[-1] + sizes[index % len(sizes)]))
        index += 1
    return zip(bounds[:-1], bounds[1:])


class TestFragmentCutterProperties:
    @given(
        data=st.data(),
        length=st.integers(min_value=1, max_value=600),
        min_duration=st.integers(min_value=1, max_value=12),
    )
    @settings(**DEFAULT_SETTINGS)
    def test_fragment_reassembly_equals_buffered(self, data, length, min_duration):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        signal = rng.standard_normal(length)
        trigger = (rng.random(length) < data.draw(st.floats(0.05, 0.95))).astype(int)
        sizes = data.draw(
            st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=5)
        )
        reference = cut_ensembles(signal, trigger, 8000, min_duration=min_duration)

        cutter = ChunkedCutter(8000, min_duration=min_duration)
        events = []
        for start, end in chunk_bounds(length, sizes):
            events.extend(cutter.push_fragments(signal[start:end], trigger[start:end]))
        events.extend(cutter.flush_fragments())

        rebuilt = reassemble_fragments(events, 8000)
        assert len(rebuilt) == len(reference)
        for (start, end, samples), ensemble in zip(rebuilt, reference):
            assert (start, end) == (ensemble.start, ensemble.end)
            np.testing.assert_array_equal(samples, ensemble.samples)

    @given(
        data=st.data(),
        length=st.integers(min_value=1, max_value=600),
        min_duration=st.integers(min_value=1, max_value=12),
    )
    @settings(**DEFAULT_SETTINGS)
    def test_push_block_over_fragments_matches_batch(self, data, length, min_duration):
        """The buffered API, re-expressed over fragments, is unchanged."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        signal = rng.standard_normal(length)
        trigger = (rng.random(length) < 0.5).astype(int)
        sizes = data.draw(
            st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=5)
        )
        reference = cut_ensembles(signal, trigger, 8000, min_duration=min_duration)
        cutter = ChunkedCutter(8000, min_duration=min_duration)
        pieces = []
        for start, end in chunk_bounds(length, sizes):
            pieces.extend(cutter.push_block(signal[start:end], trigger[start:end]))
        pieces.extend(cutter.flush())
        assert len(pieces) == len(reference)
        for a, b in zip(pieces, reference):
            assert (a.start, a.end) == (b.start, b.end)
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_short_runs_are_never_announced(self):
        """A run below min_duration emits no fragment events at all."""
        cutter = ChunkedCutter(8000, min_duration=10)
        events = cutter.push_fragments(np.ones(5), np.ones(5))
        events += cutter.push_fragments(np.zeros(5), np.zeros(5))
        assert events == []
        # ...including a short run cut off by end of stream.
        cutter.push_fragments(np.ones(4), np.ones(4))
        assert cutter.flush_fragments() == []

    def test_fragments_stream_while_run_is_open(self):
        """Data fragments must be emitted before the run closes."""
        cutter = ChunkedCutter(8000, min_duration=4)
        first = cutter.push_fragments(np.ones(6), np.ones(6))
        assert [type(e) for e in first] == [FragmentOpen, FragmentData]
        assert cutter.open
        second = cutter.push_fragments(np.full(3, 2.0), np.ones(3))
        assert [type(e) for e in second] == [FragmentData]
        (close,) = cutter.push_fragments(np.zeros(2), np.zeros(2))
        assert isinstance(close, FragmentClose)
        assert (close.start, close.end) == (0, 9)

    def test_mixing_fragment_and_block_entry_points_raises(self):
        """A close with no buffered data is entry-point misuse, not a crash.

        ``push_block`` reassembles the fragment events it generates itself;
        if a run's ``FragmentOpen``/``FragmentData`` were drained through
        ``push_fragments`` and only the close reaches the buffered API, the
        reassembly buffer is empty.  The contract is a ``ValueError`` naming
        the misuse rather than an ``IndexError`` from an empty parts list.
        """
        cutter = ChunkedCutter(8000, min_duration=4)
        events = cutter.push_fragments(np.ones(6), np.ones(6))
        assert [type(e) for e in events] == [FragmentOpen, FragmentData]
        with pytest.raises(ValueError, match="push_block"):
            cutter.push_block(np.zeros(3), np.zeros(3))


def reference_patterns(extractor: PatternExtractor, samples: np.ndarray):
    """The historical batch algorithm, kept verbatim as the parity anchor."""
    arr = np.asarray(samples, dtype=float).ravel()
    size = extractor.config.record_size
    hop = size // 2
    records = []
    start = 0
    while start + size <= arr.size:
        records.append(arr[start : start + size])
        start += hop
    freq_records = [extractor._frequency_record(record) for record in records]
    group = extractor.config.records_per_pattern
    patterns = []
    for start in range(0, len(freq_records) - group + 1, group):
        merged = np.concatenate(freq_records[start : start + group])
        patterns.append(extractor._normalize_pattern(merged))
    return patterns


class TestIncrementalPatternBuilderProperties:
    @given(
        data=st.data(),
        length=st.integers(min_value=0, max_value=400),
        records_per_pattern=st.integers(min_value=1, max_value=5),
        use_paa=st.booleans(),
    )
    @settings(**DEFAULT_SETTINGS)
    def test_incremental_patterns_equal_batch(
        self, data, length, records_per_pattern, use_paa
    ):
        config = FeatureConfig(record_size=32, records_per_pattern=records_per_pattern)
        extractor = PatternExtractor(config=config, sample_rate=8000, use_paa=use_paa)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        samples = rng.standard_normal(length)
        sizes = data.draw(
            st.lists(st.integers(min_value=1, max_value=120), min_size=1, max_size=5)
        )
        reference = reference_patterns(extractor, samples)
        builder = IncrementalPatternBuilder(extractor)
        incremental = []
        for start, end in chunk_bounds(length, sizes):
            incremental.extend(builder.push(samples[start:end]))
        assert len(incremental) == len(reference)
        for a, b in zip(incremental, reference):
            np.testing.assert_array_equal(a, b)

    def test_patterns_from_samples_is_the_single_slice_case(self, rng):
        extractor = PatternExtractor(config=FeatureConfig(), sample_rate=16000)
        samples = rng.standard_normal(3000)
        reference = reference_patterns(extractor, samples)
        wrapped = extractor.patterns_from_samples(samples)
        assert len(wrapped) == len(reference)
        for a, b in zip(wrapped, reference):
            np.testing.assert_array_equal(a, b)

    def test_builder_memory_is_bounded(self, rng):
        """The carry buffer never exceeds one record regardless of input."""
        extractor = PatternExtractor(config=FeatureConfig(record_size=64), sample_rate=8000)
        builder = extractor.builder()
        for _ in range(50):
            builder.push(rng.standard_normal(257))
            assert builder._carry.size < 64
            assert len(builder._freq_records) < extractor.config.records_per_pattern


@pytest.fixture(scope="module")
def fragment_corpus():
    rng = np.random.default_rng(21)
    builder = ClipBuilder(sample_rate=16000, duration=5.0)
    return [
        builder.build(["NOCA", "TUTI"], rng, songs_per_species=1, station_id=f"pole-{i}")
        for i in range(3)
    ]


def _trained(emit: str):
    """An extract+features+classify builder, buffered or fragment mode."""
    rng = np.random.default_rng(3)
    meso = MesoClassifier()
    builder = (
        AcousticPipeline()
        .extract(FAST_EXTRACTION, emit=emit, keep_traces=False)
        .features(use_paa=True)
        .classify(meso)
    )
    pipe = builder.build()
    for code in ("NOCA", "TUTI"):
        for _ in range(3):
            song = get_species(code).render(16000, rng)
            for vector in pipe.patterns_for(song):
                meso.partial_fit(vector, code)
    return builder


@pytest.fixture(scope="module")
def buffered_builder():
    return _trained("ensembles")


@pytest.fixture(scope="module")
def fragment_builder():
    return _trained("fragments")


def assert_same_results(reference, result):
    assert len(reference.ensembles) == len(result.ensembles)
    for a, b in zip(reference.ensembles, result.ensembles):
        assert (a.start, a.end) == (b.start, b.end)
        np.testing.assert_array_equal(a.samples, b.samples)
    assert reference.labels == result.labels
    for pa, pb in zip(reference.patterns, result.patterns):
        assert len(pa) == len(pb)
        for u, v in zip(pa, pb):
            np.testing.assert_array_equal(u, v)
    assert reference.short_ensembles == result.short_ensembles


class TestFragmentPipelineParity:
    """Fragment mode ≡ buffered mode, bit-identically, on every backend."""

    def test_batch_run_parity(self, buffered_builder, fragment_builder, fragment_corpus):
        buffered_pipe = buffered_builder.build()
        fragment_pipe = fragment_builder.build()
        for clip in fragment_corpus:
            assert_same_results(buffered_pipe.run(clip), fragment_pipe.run(clip))

    def test_extract_stream_parity_and_chunk_invariance(
        self, buffered_builder, fragment_builder, fragment_corpus
    ):
        clip = fragment_corpus[0]
        reference = buffered_builder.build().run(clip)
        pipe = fragment_builder.build()
        for n_chunks in (1, 4, 13):
            chunks = np.array_split(clip.samples, n_chunks)
            streamed = pipe.run(iter(chunks), sample_rate=clip.sample_rate)
            assert_same_results(reference, streamed)

    def test_patterns_stream_before_the_ensemble_closes(
        self, fragment_builder, fragment_corpus
    ):
        """Partial per-pattern events precede their ensemble's close marker."""
        clip = fragment_corpus[0]
        pipe = fragment_builder.build()
        chunks = np.array_split(clip.samples, 16)
        events = list(pipe.extract_stream(iter(chunks), sample_rate=clip.sample_rate))
        partials_in_flight = 0
        seen_partials = 0
        open_now = False
        for event in events:
            if isinstance(event, EnsembleFragmentEvent) and event.kind == "open":
                open_now, partials_in_flight = True, 0
            elif isinstance(event, FeaturesEvent) and event.partial:
                assert open_now, "partial pattern event outside an open ensemble"
                assert len(event.patterns) == 1
                partials_in_flight += 1
                seen_partials += 1
            elif isinstance(event, EnsembleFragmentEvent) and event.kind == "close":
                open_now = False
        assert seen_partials > 0, "expected streamed per-pattern events"
        # Terminal events must re-carry every streamed pattern.
        terminals = [e for e in events if isinstance(e, FeaturesEvent) and not e.partial]
        classified = [e for e in events if type(e).__name__ == "ClassifiedEvent"]
        assert seen_partials == sum(len(e.patterns) for e in classified or terminals)

    @pytest.mark.parametrize("fan_out", [1, 2, 4])
    def test_simulated_river_parity(
        self, buffered_builder, fragment_builder, fragment_corpus, fan_out
    ):
        reference = run_clips_via_river(
            buffered_builder, fragment_corpus, record_size=4096, fan_out=fan_out
        )
        fragment = run_clips_via_river(
            fragment_builder, fragment_corpus, record_size=4096, fan_out=fan_out
        )
        assert_same_results(reference, fragment)
        assert fragment.total_samples == reference.total_samples

    def test_simulated_river_parity_odd_record_size(
        self, buffered_builder, fragment_builder, fragment_corpus
    ):
        reference = run_clips_via_river(buffered_builder, fragment_corpus, record_size=1777)
        fragment = run_clips_via_river(fragment_builder, fragment_corpus, record_size=1777)
        assert_same_results(reference, fragment)

    def test_fragment_river_stream_is_well_formed(self, fragment_builder, fragment_corpus):
        from repro.river import validate_stream
        from repro.river.operators import ClipSource

        pipeline = fragment_builder.to_river(fan_out=3)
        outputs = pipeline.run_source(ClipSource(fragment_corpus, record_size=4096))
        assert validate_stream(outputs) == []
        for record in outputs:
            assert "fanout_replica" not in record.context
            assert "fanout_ordinal" not in record.context

    def test_extraction_only_fragment_batch_parity(self, fragment_corpus):
        """Raw fragment streams are reassembled by result collection."""
        clip = fragment_corpus[0]
        buffered = AcousticPipeline().extract(FAST_EXTRACTION, keep_traces=False).build()
        fragment = (
            AcousticPipeline()
            .extract(FAST_EXTRACTION, keep_traces=False, emit="fragments")
            .build()
        )
        a, b = buffered.run(clip), fragment.run(clip)
        assert len(a.ensembles) == len(b.ensembles)
        for x, y in zip(a.ensembles, b.ensembles):
            assert (x.start, x.end) == (y.start, y.end)
            np.testing.assert_array_equal(x.samples, y.samples)

    @pytest.mark.parametrize("fan_out", [1, 2, 4])
    @pytest.mark.skipif(
        not transport_available(), reason="loopback sockets unavailable"
    )
    def test_process_river_parity(
        self, buffered_builder, fragment_builder, fragment_corpus, fan_out
    ):
        """Fragments stream across real sockets with bit-identical results."""
        reference = buffered_builder.deploy(
            fragment_corpus, backend="simulated", hosts=2, fan_out=fan_out
        )
        deployed = fragment_builder.deploy(
            fragment_corpus, backend="process", hosts=2, fan_out=fan_out
        )
        assert_same_results(reference, deployed)


class TestFragmentValidation:
    def test_fragment_emit_rejects_global_normalization(self):
        with pytest.raises(ValueError, match="fragments"):
            ExtractStage(FAST_EXTRACTION, normalization="global", emit="fragments")

    def test_unknown_emit_modes_rejected(self):
        with pytest.raises(ValueError, match="emit"):
            ExtractStage(FAST_EXTRACTION, emit="sideways")
        from repro.pipeline import FeatureStage

        with pytest.raises(ValueError, match="emit"):
            FeatureStage(emit="sideways")

    def test_fragment_event_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            EnsembleFragmentEvent(kind="sideways", start=0, sample_rate=8000)

    def test_classify_over_never_reassembled_patterns_rejected_at_build(self):
        """classify would silently label nothing on a pure pattern stream —
        reject the combination when the graph is assembled."""
        from repro.pipeline import PipelineBuildError

        meso = MesoClassifier()
        meso.partial_fit(np.zeros(1), "X")
        builder = (
            AcousticPipeline()
            .extract(FAST_EXTRACTION, emit="fragments")
            .features(emit="patterns")
            .classify(meso)
        )
        with pytest.raises(PipelineBuildError, match="patterns"):
            builder.build()
        # The default features mode with fragments stays classifiable.
        ok = (
            AcousticPipeline()
            .extract(FAST_EXTRACTION, emit="fragments")
            .features()
            .classify(meso)
        )
        assert ok.build() is not None


class TestTraceBound:
    def test_traces_unbounded_by_default(self, rng):
        stage = ExtractStage(FAST_EXTRACTION)
        for _ in range(4):
            from repro.pipeline import SignalChunk

            stage.process(SignalChunk(samples=rng.standard_normal(4096), sample_rate=16000))
        scores, trigger = stage.traces()
        assert scores.size == trigger.size == 4 * 4096

    def test_max_trace_samples_drops_oldest_with_one_warning(self, rng):
        from repro.pipeline import SignalChunk

        stage = ExtractStage(FAST_EXTRACTION, max_trace_samples=8192)
        assert stage.trace_offset == 0
        with pytest.warns(RuntimeWarning, match="max_trace_samples"):
            for _ in range(6):
                stage.process(
                    SignalChunk(samples=rng.standard_normal(4096), sample_rate=16000)
                )
        scores, trigger = stage.traces()
        assert scores.size == trigger.size <= 8192 + 4096
        # The kept traces are the stream suffix starting at trace_offset.
        assert stage.trace_offset == stage.samples_seen - scores.size > 0
        # The warning fires once per stage object, not per chunk.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stage.process(SignalChunk(samples=rng.standard_normal(4096), sample_rate=16000))

    def test_trace_offset_reaches_the_pipeline_result(self, rng):
        signal = rng.standard_normal(30000)
        bounded = (
            AcousticPipeline()
            .extract(FAST_EXTRACTION, max_trace_samples=8192)
            .build()
        )
        with pytest.warns(RuntimeWarning, match="max_trace_samples"):
            result = bounded.run(
                iter(np.array_split(signal, 10)), sample_rate=16000
            )
        assert result.trace_offset == result.total_samples - result.anomaly_scores.size
        unbounded = AcousticPipeline().extract(FAST_EXTRACTION).build()
        assert unbounded.run(signal, sample_rate=16000).trace_offset == 0

    def test_max_trace_samples_validation(self):
        with pytest.raises(ValueError, match="max_trace_samples"):
            ExtractStage(FAST_EXTRACTION, max_trace_samples=0)


class TestShortEnsembleAccounting:
    def test_zero_pattern_ensembles_are_counted(self):
        """An ensemble shorter than one record yields a counted, kept row."""
        from repro.core.cutter import Ensemble
        from repro.pipeline import FeatureStage
        from repro.pipeline.results import EnsembleEvent, PipelineResult

        stage = FeatureStage(sample_rate=16000)
        short = Ensemble(samples=np.ones(64), start=0, end=64, sample_rate=16000)
        events = stage.process(EnsembleEvent(short))
        assert len(events) == 1 and events[0].patterns == ()
        result = PipelineResult.from_events(events, sample_rate=16000, total_samples=64)
        assert result.short_ensembles == 1
        assert len(result.ensembles) == 1

    def test_short_count_matches_across_batch_and_river(self, fragment_corpus):
        from dataclasses import replace

        # A permissive min_duration lets genuinely short runs through, so
        # some ensembles are too short for one 512-sample record.
        config = replace(
            FAST_EXTRACTION,
            trigger=replace(FAST_EXTRACTION.trigger, min_duration=64, hangover=0),
        )
        buffered = AcousticPipeline().extract(config, keep_traces=False).features()
        fragment = (
            AcousticPipeline()
            .extract(config, keep_traces=False, emit="fragments")
            .features()
        )
        clip = fragment_corpus[0]
        batch = buffered.build().run(clip)
        frag = fragment.build().run(clip)
        assert frag.short_ensembles == batch.short_ensembles
        river_buffered = run_clips_via_river(buffered, [clip], record_size=4096)
        river_fragment = run_clips_via_river(fragment, [clip], record_size=4096)
        assert river_buffered.short_ensembles == batch.short_ensembles
        assert river_fragment.short_ensembles == batch.short_ensembles

    @pytest.mark.parametrize("emit", ["ensembles", "fragments"])
    def test_short_count_survives_a_river_classify_chain(self, fragment_corpus, emit):
        """The zero-pattern stamp must survive re-encoding by the classify
        operator (regression: the count silently dropped to 0 on river
        backends whenever classify followed features)."""
        from repro.config import FeatureConfig

        # A record larger than any ensemble: every ensemble is short.
        big = FeatureConfig(record_size=8192)
        meso = MesoClassifier()
        meso.partial_fit(np.zeros(1), "X")
        builder = (
            AcousticPipeline()
            .extract(FAST_EXTRACTION, keep_traces=False, emit=emit)
            .features(big)
            .classify(meso)
        )
        clip = fragment_corpus[0]
        batch = builder.build().run(clip)
        river = run_clips_via_river(builder, [clip], record_size=4096)
        assert batch.short_ensembles == len(batch.ensembles) > 0
        assert river.short_ensembles == batch.short_ensembles
        assert river.labels == batch.labels

    def test_patterns_mode_run_collects_streamed_patterns(self, fragment_corpus):
        """run() on a never-reassembling pipeline still yields every pattern
        (regression: the result came back completely empty)."""
        clip = fragment_corpus[0]
        buffered = (
            AcousticPipeline().extract(FAST_EXTRACTION, keep_traces=False).features()
        )
        patterns_mode = (
            AcousticPipeline()
            .extract(FAST_EXTRACTION, keep_traces=False, emit="fragments")
            .features(emit="patterns")
        )
        reference = buffered.build().run(clip)
        streamed = patterns_mode.build().run(clip)
        assert len(streamed.ensembles) == len(reference.ensembles) > 0
        for a, b, pa, pb in zip(
            reference.ensembles, streamed.ensembles, reference.patterns, streamed.patterns
        ):
            assert (a.start, a.end) == (b.start, b.end)
            assert b.samples.size == 0  # audio consumed upstream; shell only
            assert len(pa) == len(pb)
            for u, v in zip(pa, pb):
                np.testing.assert_array_equal(u, v)

    def test_patterns_mode_counts_short_ensembles_too(self):
        """A run long enough to keep but too short for one pattern group
        must still become a counted row when the feature stage consumed its
        audio without completing a pattern (regression: silently dropped)."""
        from repro.pipeline.results import PipelineResult

        events = [
            EnsembleFragmentEvent(kind="open", start=100, sample_rate=8000),
            EnsembleFragmentEvent(kind="close", start=100, sample_rate=8000, end=300),
        ]
        result = PipelineResult.from_events(events, sample_rate=8000, total_samples=1000)
        assert len(result.ensembles) == 1
        assert result.short_ensembles == 1
        assert (result.ensembles[0].start, result.ensembles[0].end) == (100, 300)
        # A stray close without an open (scope repair) stays invisible.
        stray = [EnsembleFragmentEvent(kind="close", start=0, sample_rate=8000, end=10)]
        empty = PipelineResult.from_events(stray, sample_rate=8000, total_samples=0)
        assert empty.ensembles == [] and empty.short_ensembles == 0

    def test_bad_closed_fragment_scope_never_becomes_an_ensemble(self):
        """A fragmented scope truncated by upstream repair must be dropped
        by result collection, exactly like buffered scopes are."""
        from repro.pipeline import collect_result
        from repro.river.records import (
            ScopeType as RST,
            bad_close_scope,
            fragment_record,
            open_scope,
        )

        records = [
            open_scope(
                0,
                RST.ENSEMBLE.value,
                context={"start": 0, "sample_rate": 8000, "fragmented": True},
            ),
            fragment_record(np.ones(50), scope=1, sequence=0),
            bad_close_scope(0, RST.ENSEMBLE.value, reason="worker died"),
        ]
        result = collect_result(records, sample_rate=8000)
        assert result.ensembles == []

    def test_legacy_extractor_counts_short_ensembles(self, small_clip):
        """Pattern yield is a pure function of ensemble length, so the
        count the feature stage reports on the whole-clip (``"global"``)
        path is the count the lengths alone predict."""
        features = FAST_EXTRACTION.features
        result = (
            AcousticPipeline()
            .extract(FAST_EXTRACTION, normalization="global")
            .features(features)
            .build()
            .run(small_clip)
        )
        span = features.record_size + (features.record_size // 2) * (
            features.records_per_pattern - 1
        )
        expected = sum(1 for e in result.ensembles if e.length < span)
        assert result.short_ensembles == expected
        # Cross-check against what the feature extractor actually yields.
        extractor = PatternExtractor(config=features, sample_rate=result.sample_rate)
        actually_short = sum(
            1 for e in result.ensembles if not extractor.patterns_from_ensemble(e)
        )
        assert result.short_ensembles == actually_short

    def test_experiment_data_reports_short_ensembles(self):
        from repro.experiments.datasets import TEST_SCALE, build_experiment_data

        data = build_experiment_data(TEST_SCALE)
        # TEST_SCALE keeps every ensemble item, so the count is exactly the
        # labelled ensembles missing from the ensemble data set.
        assert TEST_SCALE.max_ensemble_items is None
        assert data.short_ensembles == len(data.ensembles) - len(data.ensemble_items)


class TestFragmentWireFormat:
    """Satellite: fragment records over the shared framing (sockets included)."""

    @given(
        payload=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=0,
            max_size=32,
        ),
        sequence=st.integers(min_value=0, max_value=2**31),
        start=st.integers(min_value=0, max_value=2**40),
    )
    @settings(**DEFAULT_SETTINGS)
    def test_fragment_record_round_trips_framed(self, payload, sequence, start):
        from repro.river import (
            RecordFrameDecoder,
            ScopeType,
            Subtype,
            fragment_record,
            frame_record,
            pack_record,
            unpack_record,
        )

        record = fragment_record(
            np.asarray(payload, dtype=float),
            scope=1,
            sequence=sequence,
            context={"start": start, "offset": start},
        )
        assert record.subtype == Subtype.FRAGMENT.value
        assert record.scope_type == ScopeType.ENSEMBLE.value
        unpacked, consumed = unpack_record(pack_record(record))
        assert consumed == len(pack_record(record))
        assert unpacked.subtype == Subtype.FRAGMENT.value
        np.testing.assert_array_equal(unpacked.payload, record.payload)
        assert unpacked.context == record.context
        decoder = RecordFrameDecoder()
        blob = frame_record(record)
        decoded = []
        for i in range(0, len(blob), 7):  # deliberately awkward chunking
            decoded.extend(decoder.feed(blob[i : i + 7]))
        assert len(decoded) == 1
        np.testing.assert_array_equal(decoded[0].payload, record.payload)
