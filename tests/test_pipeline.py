"""Tests for the unified repro.pipeline subsystem.

The headline guarantees under test:

* **one stage graph, two backends** — the same ``AcousticPipeline`` run in
  batch over a clip and via ``to_river()`` over the chunked record stream of
  that clip produces identical ensembles and labels;
* **chunk invariance** — ``extract_stream()`` over 4 chunks matches a
  single-shot ``run()`` over the concatenated signal exactly;
* **compatibility** — ``normalization="global"`` is bit-for-bit the three
  whole-clip primitives (``sax_anomaly_scores`` → ``AdaptiveTrigger`` →
  ``cut_ensembles``) the experiment tables are pinned to.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.config import FAST_EXTRACTION, AnomalyConfig
from repro.core.anomaly import sax_anomaly_scores
from repro.core.cutter import Ensemble, cut_ensembles
from repro.core.trigger import AdaptiveTrigger
from repro.dsp import write_wav
from repro.meso import MesoClassifier
from repro.pipeline import (
    AcousticPipeline,
    BatchOnlyStageError,
    ChunkedAnomalyScorer,
    ChunkedCutter,
    ClassifiedEvent,
    EnsembleEvent,
    PipelineBuildError,
    PipelineResult,
    RunningNormalizer,
    STAGES,
    Stage,
    StageRegistry,
    run_clips_via_river,
)
from repro.river import validate_stream
from repro.river.operators import ClipSource
from repro.synth import ClipBuilder, get_species

#: A cheaper anomaly configuration for the pure streaming-engine tests.
SMALL_ANOMALY = AnomalyConfig(window=64, alphabet=6, level=2, smooth_window=256, lag_factor=4)


def assert_same_ensembles(first: list[Ensemble], second: list[Ensemble]) -> None:
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.start == b.start and a.end == b.end
        np.testing.assert_array_equal(a.samples, b.samples)


@pytest.fixture(scope="module")
def song_clip():
    rng = np.random.default_rng(7)
    return ClipBuilder(sample_rate=16000, duration=12.0).build(
        ["NOCA", "TUTI"], rng, songs_per_species=2
    )


@pytest.fixture(scope="module")
def trained_builder(song_clip):
    """An extract+features+classify builder with a trained MESO memory."""
    rng = np.random.default_rng(3)
    meso = MesoClassifier()
    builder = (
        AcousticPipeline().extract(FAST_EXTRACTION).features(use_paa=True).classify(meso)
    )
    pipe = builder.build()
    for code in ("NOCA", "TUTI"):
        for _ in range(3):
            song = get_species(code).render(song_clip.sample_rate, rng)
            for vector in pipe.patterns_for(song):
                meso.partial_fit(vector, code)
    return builder


class TestStreamingPrimitives:
    def test_running_normalizer_is_chunk_invariant(self, rng):
        x = rng.standard_normal(5000)
        whole = RunningNormalizer().process(x)
        norm = RunningNormalizer()
        parts = [norm.process(part) for part in np.array_split(x, 7)]
        np.testing.assert_allclose(np.concatenate(parts), whole, atol=1e-12)

    def test_running_normalizer_freeze_stops_updates(self, rng):
        x = np.concatenate([rng.standard_normal(1000), 100.0 + rng.standard_normal(1000)])
        frozen = RunningNormalizer(freeze_after=1000)
        out = frozen.process(x)
        # After the freeze the loud shift saturates instead of re-scaling.
        assert frozen.count == 1000
        assert out[1500] > 10.0

    def test_scorer_is_chunk_invariant_under_awkward_chunking(self, rng):
        x = rng.standard_normal(6000)
        whole = ChunkedAnomalyScorer(SMALL_ANOMALY, hop=16).process(x)
        scorer = ChunkedAnomalyScorer(SMALL_ANOMALY, hop=16)
        parts, i = [], 0
        for size in (1, 3, 700, 64, 2048, 999):
            parts.append(scorer.process(x[i : i + size]))
            i += size
        parts.append(scorer.process(x[i:]))
        np.testing.assert_allclose(np.concatenate(parts), whole, atol=1e-9)

    def test_scorer_spikes_on_change(self, rng):
        quiet = 0.05 * rng.standard_normal(6000)
        quiet[3000:3600] += np.sin(2 * np.pi * 0.2 * np.arange(600))
        scores = ChunkedAnomalyScorer(SMALL_ANOMALY, hop=4).process(quiet)
        assert scores[3200:4200].max() > 2 * scores[1000:3000].max()

    def test_chunked_cutter_matches_batch_cutter(self, rng):
        signal = rng.standard_normal(4000)
        trigger = (rng.random(4000) < 0.4).astype(int)
        reference = cut_ensembles(signal, trigger, 8000, min_duration=7)
        cutter = ChunkedCutter(8000, min_duration=7)
        pieces = []
        for part in np.array_split(np.arange(4000), 11):
            pieces.extend(cutter.push_block(signal[part], trigger[part]))
        pieces.extend(cutter.flush())
        assert_same_ensembles(reference, pieces)

    def test_chunked_cutter_stitches_runs_across_chunks(self):
        cutter = ChunkedCutter(8000, min_duration=1)
        assert cutter.push_block(np.ones(10), np.ones(10)) == []
        assert cutter.open
        (ensemble,) = cutter.push_block(np.full(5, 2.0), np.zeros(5))
        assert (ensemble.start, ensemble.end) == (0, 10)


class TestRegistry:
    def test_builtins_are_registered(self):
        assert {"extract", "features", "classify"} <= set(STAGES.names())

    def test_register_and_create_custom_stage(self):
        registry = StageRegistry()

        @registry.register("null")
        class NullStage(Stage):
            name = "null"

            def process(self, event):
                return [event]

        stage = registry.create("null")
        assert isinstance(stage, NullStage)
        assert "null" in registry and len(registry) == 1

    def test_unknown_stage_raises_with_known_names(self):
        with pytest.raises(KeyError, match="extract"):
            STAGES.create("definitely-not-a-stage")

    def test_factory_must_return_a_stage(self):
        registry = StageRegistry()
        registry.register("broken", lambda: object())
        with pytest.raises(TypeError, match="expected a Stage"):
            registry.create("broken")


class TestBuilderValidation:
    def test_empty_pipeline_rejected(self):
        with pytest.raises(PipelineBuildError, match="empty"):
            AcousticPipeline().build()

    def test_classify_requires_features(self):
        builder = AcousticPipeline().extract(FAST_EXTRACTION).classify(MesoClassifier())
        with pytest.raises(PipelineBuildError, match="features"):
            builder.build()

    def test_extract_must_come_first(self):
        builder = AcousticPipeline()
        builder._specs.append(("features", {}))
        builder._specs.append(("extract", {}))
        with pytest.raises(PipelineBuildError, match="first"):
            builder.build()

    def test_unknown_stage_name_rejected(self):
        with pytest.raises(PipelineBuildError, match="no stage registered"):
            AcousticPipeline().stage("nonexistent")

    def test_classifier_must_have_predict(self):
        with pytest.raises(TypeError, match="predict"):
            AcousticPipeline().extract().features().classify(object()).build()


class TestBatchSources:
    def test_run_accepts_clip_array_wav_and_iterator(self, song_clip, tmp_path):
        pipe = AcousticPipeline().extract(FAST_EXTRACTION).build()
        from_clip = pipe.run(song_clip)
        assert from_clip.sample_rate == song_clip.sample_rate
        assert from_clip.total_samples == song_clip.samples.size
        assert from_clip.ensembles, "expected ensembles from a clip with songs"

        from_array = pipe.run(song_clip.samples, sample_rate=song_clip.sample_rate)
        assert_same_ensembles(from_clip.ensembles, from_array.ensembles)

        path = tmp_path / "clip.wav"
        write_wav(path, song_clip.samples, song_clip.sample_rate)
        from_wav = pipe.run(path)
        assert from_wav.sample_rate == song_clip.sample_rate
        # 16-bit quantisation perturbs samples, not the workload size.
        assert from_wav.total_samples == song_clip.samples.size
        assert from_wav.ensembles

        chunks = np.array_split(song_clip.samples, 5)
        from_iter = pipe.run(iter(chunks), sample_rate=song_clip.sample_rate)
        assert_same_ensembles(from_clip.ensembles, from_iter.ensembles)

    def test_run_rejects_unknown_sources(self):
        pipe = AcousticPipeline().extract(FAST_EXTRACTION).build()
        with pytest.raises(TypeError, match="source"):
            pipe.run(42)
        # Iterable but clearly not a chunk stream: reject up front instead
        # of failing with a numpy conversion error inside the first stage.
        with pytest.raises(TypeError, match="source"):
            pipe.run({"not": "audio"})
        with pytest.raises(TypeError, match="source"):
            pipe.run(b"\x00\x01")

    def test_result_reduction_accounting(self, song_clip):
        pipe = AcousticPipeline().extract(FAST_EXTRACTION).build()
        result = pipe.run(song_clip)
        assert result.retained_samples == sum(e.length for e in result.ensembles)
        assert 0.0 < result.reduction < 1.0
        assert result.anomaly_scores is not None
        assert result.anomaly_scores.size == result.total_samples
        assert set(np.unique(result.trigger)) <= {0, 1}

    def test_ground_truth_and_labelled_are_aligned(self, song_clip):
        pipe = AcousticPipeline().extract(FAST_EXTRACTION).build()
        result = pipe.run(song_clip)
        truths = result.ground_truth(song_clip)
        assert len(truths) == len(result.ensembles)
        labelled = result.labelled(song_clip)
        assert [e.label for e in labelled] == [t for t in truths if t is not None]


class TestStreamingEntryPoint:
    def test_extract_stream_four_chunks_matches_single_shot(self, song_clip, trained_builder):
        pipe = trained_builder.build()
        single = pipe.run(song_clip)
        chunks = np.array_split(song_clip.samples, 4)
        streamed = pipe.run(iter(chunks), sample_rate=song_clip.sample_rate)
        assert_same_ensembles(single.ensembles, streamed.ensembles)
        assert single.labels == streamed.labels
        for a, b in zip(single.patterns, streamed.patterns):
            assert len(a) == len(b)
            for u, v in zip(a, b):
                np.testing.assert_array_equal(u, v)
        np.testing.assert_allclose(single.anomaly_scores, streamed.anomaly_scores, atol=1e-9)
        np.testing.assert_array_equal(single.trigger, streamed.trigger)

    def test_extract_stream_yields_events_incrementally(self, song_clip, trained_builder):
        pipe = trained_builder.build()
        chunks = np.array_split(song_clip.samples, 4)
        events = list(pipe.extract_stream(iter(chunks), sample_rate=song_clip.sample_rate))
        assert events, "expected events from a clip with songs"
        assert all(isinstance(event, ClassifiedEvent) for event in events)
        reference = pipe.run(song_clip)
        assert [event.label for event in events] == reference.labels

    def test_stream_carries_state_across_chunk_boundaries(self):
        # A trigger-high run spanning a chunk boundary must come out as ONE
        # ensemble, not two fragments.
        rng = np.random.default_rng(5)
        signal = 0.05 * rng.standard_normal(40000)
        signal[20000:24000] += np.sin(2 * np.pi * 0.1 * np.arange(4000))
        pipe = AcousticPipeline().extract(FAST_EXTRACTION).build()
        single = pipe.run(signal, sample_rate=16000)
        halves = [signal[:21000], signal[21000:]]  # boundary inside the burst
        streamed = pipe.run(iter(halves), sample_rate=16000)
        assert_same_ensembles(single.ensembles, streamed.ensembles)


class TestRiverParity:
    def test_one_stage_graph_two_backends(self, song_clip, trained_builder):
        """The acceptance criterion: batch and river agree exactly."""
        batch = trained_builder.build().run(song_clip)
        river = run_clips_via_river(trained_builder, [song_clip], record_size=4096)
        assert_same_ensembles(batch.ensembles, river.ensembles)
        assert batch.labels == river.labels
        for a, b in zip(batch.patterns, river.patterns):
            assert len(a) == len(b)
            for u, v in zip(a, b):
                np.testing.assert_array_equal(u, v)
        assert river.total_samples == batch.total_samples

    def test_parity_survives_odd_record_sizes(self, song_clip, trained_builder):
        batch = trained_builder.build().run(song_clip)
        river = run_clips_via_river(trained_builder, [song_clip], record_size=1777)
        assert_same_ensembles(batch.ensembles, river.ensembles)
        assert batch.labels == river.labels

    def test_compiled_stream_is_well_formed(self, song_clip, trained_builder):
        pipeline = trained_builder.to_river()
        outputs = pipeline.run_source(ClipSource([song_clip], record_size=4096))
        assert validate_stream(outputs) == []

    def test_extraction_only_graph_compiles_too(self, song_clip):
        builder = AcousticPipeline().extract(FAST_EXTRACTION)
        batch = builder.build().run(song_clip)
        river = run_clips_via_river(builder, [song_clip])
        assert_same_ensembles(batch.ensembles, river.ensembles)
        assert river.labels == [None] * len(river.ensembles)

    def test_verdict_never_lands_in_the_ensemble_label(self, song_clip, trained_builder):
        """Regression: the river path restored the classifier's verdict into
        ``Ensemble.label`` (the ground-truth field), which batch leaves None."""
        batch = trained_builder.build().run(song_clip)
        river = run_clips_via_river(trained_builder, [song_clip])
        assert any(label is not None for label in river.labels)
        assert [e.label for e in river.ensembles] == [e.label for e in batch.ensembles]
        assert all(e.label is None for e in river.ensembles)


@pytest.fixture(scope="module")
def station_corpus():
    """Three clips from three distinct stations (the fan-out workload)."""
    rng = np.random.default_rng(21)
    builder = ClipBuilder(sample_rate=16000, duration=5.0)
    return [
        builder.build(["NOCA", "TUTI"], rng, songs_per_species=1, station_id=f"pole-{i}")
        for i in range(3)
    ]


class TestFanOutRiverParity:
    """to_river(fan_out=k) must be bit-identical to batch run() and to the
    linear single-operator river graph, for any k and partition policy."""

    def _batch_reference(self, trained_builder, clips):
        pipe = trained_builder.build()
        ensembles, labels, patterns = [], [], []
        for clip in clips:
            result = pipe.run(clip)
            ensembles.extend(result.ensembles)
            labels.extend(result.labels)
            patterns.extend(result.patterns)
        return ensembles, labels, patterns

    @pytest.mark.parametrize("fan_out", [1, 2, 4])
    def test_fan_out_matches_batch_and_linear(
        self, trained_builder, station_corpus, fan_out
    ):
        """The acceptance criterion: fan-out ≡ linear ≡ batch, bit-identically."""
        ensembles, labels, patterns = self._batch_reference(
            trained_builder, station_corpus
        )
        linear = run_clips_via_river(trained_builder, station_corpus, record_size=4096)
        fanned = run_clips_via_river(
            trained_builder, station_corpus, record_size=4096, fan_out=fan_out
        )
        assert_same_ensembles(ensembles, linear.ensembles)
        assert_same_ensembles(linear.ensembles, fanned.ensembles)
        assert labels == linear.labels == fanned.labels
        for batch_p, linear_p, fanned_p in zip(patterns, linear.patterns, fanned.patterns):
            assert len(batch_p) == len(linear_p) == len(fanned_p)
            for u, v, w in zip(batch_p, linear_p, fanned_p):
                np.testing.assert_array_equal(u, v)
                np.testing.assert_array_equal(v, w)

    @pytest.mark.parametrize("partition", ["station", "roundrobin"])
    def test_partition_policy_never_changes_results(
        self, trained_builder, station_corpus, partition
    ):
        linear = run_clips_via_river(trained_builder, station_corpus, record_size=1777)
        fanned = run_clips_via_river(
            trained_builder,
            station_corpus,
            record_size=1777,
            fan_out=3,
            partition=partition,
        )
        assert_same_ensembles(linear.ensembles, fanned.ensembles)
        assert linear.labels == fanned.labels

    def test_fan_out_stream_is_well_formed_and_tag_free(self, trained_builder, station_corpus):
        pipeline = trained_builder.to_river(fan_out=4)
        outputs = pipeline.run_source(ClipSource(station_corpus, record_size=4096))
        assert validate_stream(outputs) == []
        for record in outputs:
            assert "fanout_replica" not in record.context
            assert "fanout_ordinal" not in record.context

    def test_fan_out_flush_emits_tail_ensemble_in_order(self, trained_builder):
        """An ensemble still open at end-of-stream (no clip CloseScope) must
        survive the partition/replica/merge chain via the flush path."""
        from repro.river.records import Subtype, data_record, end_of_stream

        rng = np.random.default_rng(9)
        signal = 0.05 * rng.standard_normal(40000)
        signal[30000:] += np.sin(2 * np.pi * 0.1 * np.arange(10000))  # high at EOS
        linear_pipe = trained_builder.to_river()
        fanned_pipe = trained_builder.to_river(fan_out=3)
        records = [
            data_record(signal[start : start + 4096], subtype=Subtype.AUDIO.value)
            for start in range(0, signal.size, 4096)
        ]
        records.append(end_of_stream())
        linear_out = linear_pipe.run(list(records))
        fanned_out = fanned_pipe.run(list(records))
        from repro.pipeline import collect_result

        linear_result = collect_result(linear_out, sample_rate=16000)
        fanned_result = collect_result(fanned_out, sample_rate=16000)
        assert linear_result.ensembles, "expected a tail ensemble at end-of-stream"
        assert_same_ensembles(linear_result.ensembles, fanned_result.ensembles)
        assert linear_result.labels == fanned_result.labels

    def test_stations_stick_to_replicas(self, trained_builder, station_corpus):
        """Every ensemble of one station is routed to the same replica, and
        the replica is the stable station hash the scheduler also uses."""
        from repro.river.placement import station_hash
        from repro.river.records import ScopeType as RST

        pipeline = trained_builder.to_river(fan_out=2)
        extract = pipeline.operator("extract-stage")
        partition = pipeline.operator("features-partition")
        seen: dict[str, set[int]] = {}
        station = None
        for record in ClipSource(station_corpus, record_size=4096).generate():
            for extracted in extract.process(record):
                for out in partition.process(extracted):
                    if out.is_open and out.scope_type == RST.CLIP.value:
                        station = out.context.get("station_id")
                    if out.is_open and out.scope_type == RST.ENSEMBLE.value:
                        seen.setdefault(station, set()).add(
                            out.context["fanout_replica"]
                        )
        assert seen, "expected routed ensemble scopes"
        for station_id, replicas in seen.items():
            assert replicas == {station_hash(station_id) % 2}

    def test_fan_out_validation(self, trained_builder):
        with pytest.raises(ValueError, match="fan_out"):
            trained_builder.to_river(fan_out=0)
        with pytest.raises(ValueError, match="extract"):
            trained_builder.to_river(fan_out={"extract": 2})
        with pytest.raises(ValueError, match="unknown stage"):
            trained_builder.to_river(fan_out={"no-such-stage": 2})
        with pytest.raises(ValueError, match="partition"):
            trained_builder.to_river(fan_out=2, partition="sideways")

    def test_merge_accumulates_scopes_sharing_an_ordinal(self):
        """A stage may emit several scopes per input ensemble; all carry the
        input's ordinal and the merge must keep every one of them."""
        from repro.pipeline import EnsembleMergeOperator
        from repro.river.records import ScopeType as RST
        from repro.river.records import Subtype, close_scope, data_record, open_scope

        def tagged_scope(ordinal, payload):
            context = {
                "sample_rate": 16000,
                "start": 0,
                "end": 4,
                "fanout_replica": 0,
                "fanout_ordinal": ordinal,
            }
            return [
                open_scope(0, RST.ENSEMBLE.value, context=context),
                data_record(
                    payload, subtype=Subtype.AUDIO.value, scope=1,
                    scope_type=RST.ENSEMBLE.value, context=dict(context),
                ),
                close_scope(0, RST.ENSEMBLE.value),
            ]

        merge = EnsembleMergeOperator()
        outputs: list = []
        # Ordinal 1 arrives first (ordinal 0 outstanding), twice — the
        # duplicate must accumulate, not overwrite.
        for record in tagged_scope(1, np.ones(4)) + tagged_scope(1, np.full(4, 2.0)):
            outputs.extend(merge.process(record))
        assert outputs == []  # held until ordinal 0 arrives
        for record in tagged_scope(0, np.zeros(4)):
            outputs.extend(merge.process(record))
        opens = [r for r in outputs if r.is_open]
        closes = [r for r in outputs if r.is_close]
        assert len(opens) == len(closes) == 3
        payloads = [r.payload[0] for r in outputs if r.is_data]
        assert payloads == [0.0, 1.0, 2.0]  # ordinal order, both duplicates kept
        assert validate_stream(outputs, strict=False) == []

    def test_per_stage_fan_out_mapping(self, trained_builder, station_corpus):
        linear = run_clips_via_river(trained_builder, station_corpus)
        mixed = run_clips_via_river(
            trained_builder, station_corpus, fan_out={"features": 3, "classify": 2}
        )
        assert_same_ensembles(linear.ensembles, mixed.ensembles)
        assert linear.labels == mixed.labels
        river = trained_builder.to_river(fan_out={"features": 3})
        names = [op.name for op in river.operators]
        assert "features-partition" in names and "features-merge" in names
        assert sum("features-stage-r" in name for name in names) == 3
        # classify was not fanned out in this graph.
        assert "classify-stage" in names


class TestDeployEntryPoint:
    """deploy(backend=...) — the same compiled graph on a chosen fabric.

    The simulated backend is exercised here (no OS resources needed); the
    process backend's bit-parity lives in tests/test_transport.py."""

    def test_simulated_deploy_matches_batch_run(self, trained_builder, station_corpus):
        ensembles, labels = [], []
        pipe = trained_builder.build()
        for clip in station_corpus:
            result = pipe.run(clip)
            ensembles.extend(result.ensembles)
            labels.extend(result.labels)
        deployed = trained_builder.deploy(
            station_corpus, backend="simulated", fan_out=2, hosts=3
        )
        assert_same_ensembles(ensembles, deployed.ensembles)
        assert labels == deployed.labels

    def test_built_pipeline_delegates_to_spec(self, trained_builder, station_corpus):
        built = trained_builder.build()
        deployed = built.deploy(station_corpus, backend="simulated", hosts=2)
        reference = trained_builder.deploy(station_corpus, backend="simulated", hosts=2)
        assert_same_ensembles(reference.ensembles, deployed.ensembles)
        assert reference.labels == deployed.labels

    def test_unknown_backend_and_bad_hosts_rejected(self, trained_builder, station_corpus):
        with pytest.raises(ValueError, match="backend"):
            trained_builder.deploy(station_corpus, backend="sideways")
        with pytest.raises(ValueError, match="hosts"):
            trained_builder.deploy(station_corpus, backend="simulated", hosts=0)

    def test_sensor_deployment_runs_delivered_clips_on_the_fabric(self):
        from repro.sensors import SensorDeployment, SensorStation, StationConfig, WirelessLink

        deployment = SensorDeployment()
        config = StationConfig(
            station_id="pole", clip_interval=600.0, clip_duration=4.0,
            sample_rate=8000, species=("NOCA",), songs_per_clip=1.0,
        )
        deployment.add_station(SensorStation(config=config, seed=5), WirelessLink(seed=5))
        deployment.run_for(1200.0)
        assert deployment.delivered_clips(), "expected delivered clips"
        builder = AcousticPipeline().extract(FAST_EXTRACTION, keep_traces=False)
        result = deployment.run_pipeline(builder, backend="simulated", hosts=2)
        reference = builder.build()
        expected = []
        for clip in deployment.delivered_clips():
            expected.extend(reference.run(clip).ensembles)
        assert_same_ensembles(expected, result.ensembles)


class TestGlobalNormalizationMode:
    def test_matches_legacy_extractor_exactly(self, song_clip):
        anomaly, trigger_config = FAST_EXTRACTION.anomaly, FAST_EXTRACTION.trigger
        scores = sax_anomaly_scores(song_clip.samples, anomaly, hop=16, smooth=True)
        settle = anomaly.window + anomaly.lag_window + anomaly.smooth_window
        trigger = AdaptiveTrigger(trigger_config, settle=settle).apply(scores)
        ensembles = cut_ensembles(
            song_clip.samples,
            trigger,
            song_clip.sample_rate,
            min_duration=trigger_config.min_duration,
        )
        pipe = AcousticPipeline().extract(FAST_EXTRACTION, normalization="global").build()
        result = pipe.run(song_clip)
        assert_same_ensembles(ensembles, result.ensembles)
        np.testing.assert_array_equal(scores, result.anomaly_scores)
        np.testing.assert_array_equal(trigger, result.trigger)
        retained = sum(e.length for e in ensembles)
        assert result.reduction == 1.0 - retained / song_clip.samples.size

    def test_rejects_chunked_streams(self, song_clip):
        pipe = AcousticPipeline().extract(FAST_EXTRACTION, normalization="global").build()
        chunks = np.array_split(song_clip.samples, 2)
        with pytest.raises(BatchOnlyStageError, match="batch"):
            list(pipe.extract_stream(iter(chunks), sample_rate=song_clip.sample_rate))

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="normalization"):
            AcousticPipeline().extract(FAST_EXTRACTION, normalization="sideways").build()


class TestOnStationPipeline:
    def test_station_capture_transmits_ensembles_only(self):
        from repro.sensors import SensorStation, StationConfig

        config = StationConfig(
            station_id="pole-7",
            clip_interval=600.0,
            clip_duration=8.0,
            sample_rate=16000,
            species=("NOCA",),
            songs_per_clip=2.0,
        )
        pipe = AcousticPipeline().extract(FAST_EXTRACTION, keep_traces=False).build()
        station = SensorStation(config=config, seed=1, pipeline=pipe)
        capture = station.capture(0.0)
        assert capture is not None
        assert capture.result is not None
        assert capture.transmitted_samples == capture.result.retained_samples
        assert capture.transmitted_samples < capture.clip.samples.size
        assert station.samples_transmitted == capture.transmitted_samples
        assert 0.0 < capture.reduction <= 1.0

    def test_station_without_pipeline_transmits_everything(self):
        from repro.sensors import SensorStation, StationConfig

        station = SensorStation(
            config=StationConfig(clip_duration=4.0, sample_rate=8000), seed=2
        )
        capture = station.capture(0.0)
        assert capture.result is None
        assert capture.transmitted_samples == capture.clip.samples.size
        assert capture.reduction == 0.0


class TestDeprecatedShims:
    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.DefinitelyNotAThing


class TestResultFromEvents:
    def test_non_ensemble_events_are_ignored(self):
        ensemble = Ensemble(samples=np.ones(4), start=0, end=4, sample_rate=100)
        events = [SimpleNamespace(), EnsembleEvent(ensemble=ensemble)]
        result = PipelineResult.from_events(events, sample_rate=100, total_samples=10)
        assert len(result.ensembles) == 1
        assert result.patterns == [()]
        assert result.labels == [None]


class TestReviewRegressions:
    def test_bare_stream_trailing_ensemble_is_flushed_on_end(self):
        """A clip-less record stream ending mid-ensemble still emits it."""
        from repro.pipeline import ExtractStage, ExtractStageOperator
        from repro.river.records import Subtype, data_record, end_of_stream

        rng = np.random.default_rng(9)
        signal = 0.05 * rng.standard_normal(40000)
        signal[30000:] += np.sin(2 * np.pi * 0.1 * np.arange(10000))  # high at EOS
        operator = ExtractStageOperator(
            ExtractStage(FAST_EXTRACTION, keep_traces=False)
        )
        outputs = []
        for start in range(0, signal.size, 4096):
            outputs.extend(
                operator.process(
                    data_record(signal[start : start + 4096], subtype=Subtype.AUDIO.value)
                )
            )
        outputs.extend(operator.process(end_of_stream()))
        opens = [r for r in outputs if r.is_open]
        assert opens, "the ensemble still open at end-of-stream must be emitted"
        assert outputs[-1].is_end

    def test_instantiate_overrides_reach_custom_stages(self):
        """compile_to_river's keep_traces override must reach plugins too."""
        registry = StageRegistry()
        registry.register("extract", __import__("repro.pipeline.stages", fromlist=["ExtractStage"]).ExtractStage)
        seen = {}

        @registry.register("tracing")
        class TracingStage(Stage):
            name = "tracing"

            def __init__(self, keep_traces=True):
                seen["keep_traces"] = keep_traces

            def process(self, event):
                return [event]

        builder = AcousticPipeline(registry=registry).extract(FAST_EXTRACTION).stage("tracing")
        builder.instantiate(keep_traces=False)
        assert seen["keep_traces"] is False
        # ...but explicit spec kwargs always win over overrides.
        builder2 = (
            AcousticPipeline(registry=registry)
            .extract(FAST_EXTRACTION)
            .stage("tracing", keep_traces=True)
        )
        builder2.instantiate(keep_traces=False)
        assert seen["keep_traces"] is True

    def test_on_station_deployment_delivers_captures_not_clips(self):
        """With on-station extraction the observatory never sees untransmitted audio."""
        from repro.sensors import SensorDeployment, SensorStation, StationConfig, WirelessLink

        pipe = AcousticPipeline().extract(FAST_EXTRACTION, keep_traces=False).build()
        deployment = SensorDeployment()
        config = StationConfig(
            station_id="pole", clip_interval=600.0, clip_duration=6.0,
            sample_rate=16000, species=("NOCA",), songs_per_clip=2.0,
        )
        deployment.add_station(
            SensorStation(config=config, seed=4, pipeline=pipe), WirelessLink(seed=4)
        )
        deployment.run_for(1800.0)
        assert deployment.captures, "expected delivered captures"
        assert len(deployment.observatory) == 0  # raw clips never crossed the link
        for capture in deployment.captures:
            assert capture.result is not None
            assert capture.transmitted_samples == capture.result.retained_samples

    def test_plain_deployment_still_archives_clips(self):
        from repro.sensors import SensorDeployment, SensorStation, StationConfig, WirelessLink

        deployment = SensorDeployment()
        config = StationConfig(
            station_id="plain", clip_interval=600.0, clip_duration=4.0,
            sample_rate=8000, species=("NOCA",),
        )
        deployment.add_station(SensorStation(config=config, seed=5), WirelessLink(seed=5))
        deployment.run_for(1200.0)
        assert len(deployment.observatory) == len(deployment.captures) > 0
