"""Persistent feature store: round-trips, parity, and integration.

The headline contract (ISSUE 6): classify-from-store is **bit-identical**
to classify-from-raw on every execution path — batch, fragment streaming,
simulated river and process river (fan-out 1 and 2) — on every storage
backend; interrupted writes surface as *incomplete*, never as
truncated-but-valid; and a corpus failure reports exactly which items had
been completed (and persisted) before it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FAST_EXTRACTION
from repro.meso import MesoClassifier
from repro.pipeline import AcousticPipeline, PipelineBuildError, run_clips_via_river
from repro.pipeline.executor import CorpusExecutionError, CorpusExecutor
from repro.pipeline.river_adapter import deploy_clips_via_river
from repro.river.records import (
    ScopeType,
    bad_close_scope,
    close_scope,
    end_of_stream,
    fragment_record,
    open_scope,
)
from repro.river.transport import transport_available
from repro.store import (
    StoreError,
    StoreIntegrityError,
    StoreReader,
    StoreSinkOperator,
    StoreUnavailableError,
    StoreWriter,
    available_backends,
    default_backend,
    resolve_backend,
)
from repro.store.__main__ import main as store_cli
from repro.synth import get_species
from repro.synth.dataset import CorpusSpec, build_corpus

ALL_BACKENDS = ("npz", "parquet")


@pytest.fixture(params=ALL_BACKENDS)
def backend(request) -> str:
    if request.param not in available_backends():
        pytest.skip(f"{request.param} backend unavailable (install the [store] extra)")
    return request.param


@pytest.fixture(scope="module")
def station_clips():
    corpus = build_corpus(
        CorpusSpec(
            species=("NOCA", "BLJA"),
            clips_per_species=2,
            songs_per_clip=2,
            clip_duration=3.0,
            sample_rate=16000,
            seed=11,
        )
    )
    return list(corpus.clips)


@pytest.fixture(scope="module")
def trained_meso(station_clips):
    """A MESO memory trained on reference songs of the corpus species."""
    rng = np.random.default_rng(3)
    meso = MesoClassifier()
    pipe = AcousticPipeline().extract(FAST_EXTRACTION).features(use_paa=True).build()
    for code in ("NOCA", "BLJA"):
        for _ in range(3):
            song = get_species(code).render(16000, rng)
            for vector in pipe.patterns_for(song):
                meso.partial_fit(vector, code)
    return meso


def graph_spec(graph: str, meso, **extract_kwargs) -> AcousticPipeline:
    """The chain up to ``graph``: extract → features → classify."""
    spec = AcousticPipeline().extract(FAST_EXTRACTION, **extract_kwargs)
    if graph != "extract":
        spec = spec.features(use_paa=True)
    return spec.classify(meso) if graph == "classify" else spec


def classify_spec(meso, **extract_kwargs) -> AcousticPipeline:
    return graph_spec("classify", meso, **extract_kwargs)


def assert_results_equal(raw, replay) -> None:
    """Bit-identical result comparison (traces excluded: stores keep none)."""
    assert len(raw.ensembles) == len(replay.ensembles)
    for a, b in zip(raw.ensembles, replay.ensembles):
        assert (a.start, a.end, a.sample_rate) == (b.start, b.end, b.sample_rate)
        np.testing.assert_array_equal(a.samples, b.samples)
    assert len(raw.patterns) == len(replay.patterns)
    for pa, pb in zip(raw.patterns, replay.patterns):
        assert len(pa) == len(pb)
        for x, y in zip(pa, pb):
            np.testing.assert_array_equal(x, y)
    assert raw.labels == replay.labels
    assert raw.short_ensembles == replay.short_ensembles
    assert raw.total_samples == replay.total_samples


def assert_rows_equal(rows, reference) -> None:
    """Two stores hold the same ensembles, bit for bit and column for column."""
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        assert (row.recording, row.station, row.ordinal) == (
            ref.recording, ref.station, ref.ordinal
        )
        a, b = row.ensemble, ref.ensemble
        assert (a.start, a.end, a.sample_rate, a.label) == (b.start, b.end, b.sample_rate, b.label)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert (row.label, row.n_patterns) == (ref.label, ref.n_patterns)
        assert len(row.patterns) == len(ref.patterns)
        for x, y in zip(row.patterns, ref.patterns):
            np.testing.assert_array_equal(x, y)


class TestRoundTrip:
    def test_write_result_round_trip(self, backend, tmp_path, station_clips, trained_meso):
        pipe = classify_spec(trained_meso).build()
        store = tmp_path / "store"
        writer = StoreWriter(store, backend=backend)
        raw = [
            pipe.run(clip, store=writer, recording=f"rec-{i:05d}")
            for i, clip in enumerate(station_clips)
        ]
        writer.close()
        reader = StoreReader(store)
        assert reader.backend.name == backend
        assert reader.recordings() == [f"rec-{i:05d}" for i in range(len(station_clips))]
        assert reader.verify() == []
        for index, result in enumerate(raw):
            assert_results_equal(result, reader.result(f"rec-{index:05d}"))

    def test_reader_filters(self, backend, tmp_path, station_clips, trained_meso):
        pipe = classify_spec(trained_meso).build()
        store = StoreWriter(tmp_path / "store", backend=backend)
        for index, clip in enumerate(station_clips):
            pipe.run(clip, store=store, recording=f"rec-{index:05d}")
        store.close()
        reader = StoreReader(tmp_path / "store")
        everything = list(reader.iter_ensembles())
        assert everything
        station = station_clips[0].station_id
        by_station = list(reader.iter_ensembles(station=station))
        assert by_station and all(row.station == station for row in by_station)
        label = everything[0].label
        assert label is not None  # the classify stage ran, verdicts persisted
        by_label = list(reader.iter_ensembles(label=label))
        assert by_label and all(
            row.label == label or row.ensemble.label == label for row in by_label
        )
        pivot = everything[0].ensemble.end
        early = list(reader.iter_ensembles(until=pivot))
        late = list(reader.iter_ensembles(since=pivot))
        assert all(row.ensemble.start < pivot for row in early)
        assert all(row.ensemble.start >= pivot for row in late)
        pattern_rows = list(reader.iter_patterns())
        assert sum(row.n_patterns for row in everything if row.n_patterns > 0) == len(
            pattern_rows
        )

    def test_store_backed_classifier_round_trip(self, backend, tmp_path, trained_meso):
        writer = StoreWriter(tmp_path / "store", backend=backend)
        writer.save_classifier("meso", trained_meso)
        writer.close()
        reader = StoreReader(tmp_path / "store")
        assert reader.classifiers() == ["meso"]
        loaded = reader.load_classifier("meso")
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(40, trained_meso._dimension))
        assert loaded.predict_batch(queries) == trained_meso.predict_batch(queries)

    def test_meso_save_load_detects_tampering(self, tmp_path, trained_meso):
        target = tmp_path / "meso"
        trained_meso.save(target, backend="npz")
        again = MesoClassifier.load(target)
        assert again.sphere_count == trained_meso.sphere_count
        members = next(target.glob("meso_members*"))
        members.write_bytes(members.read_bytes()[:-7])
        # The checksum is verified before any table is parsed, so tampering
        # surfaces as an integrity error, never as a numpy parse failure.
        with pytest.raises(StoreIntegrityError):
            MesoClassifier.load(target)

    def test_backend_mismatch_rejected(self, tmp_path):
        # The manifest pins the backend; the mismatch is detected before the
        # requested backend's dependencies are even imported.
        StoreWriter(tmp_path / "store", backend="npz").close()
        with pytest.raises(StoreError):
            StoreWriter(tmp_path / "store", backend="parquet")


class TestBackendSelection:
    def test_auto_picks_an_available_backend(self):
        assert default_backend() in available_backends()
        assert resolve_backend("auto").name == default_backend()

    def test_npz_always_available(self):
        assert "npz" in available_backends()

    @pytest.mark.skipif(
        "parquet" in available_backends(), reason="pyarrow is installed here"
    )
    def test_missing_pyarrow_names_the_extra(self):
        with pytest.raises(StoreUnavailableError) as err:
            resolve_backend("parquet")
        assert "[store]" in str(err.value)
        # One clear error type, still catchable as ImportError.
        assert isinstance(err.value, ImportError)


class TestParity:
    """classify-from-store ≡ classify-from-raw, on every execution path."""

    def test_batch(self, backend, tmp_path, station_clips, trained_meso):
        pipe = classify_spec(trained_meso).build()
        store = StoreWriter(tmp_path / "store", backend=backend)
        raw = pipe.run_corpus(station_clips, store=store)
        store.close()
        replay = pipe.run_corpus(from_store=tmp_path / "store")
        for a, b in zip(raw, replay):
            assert_results_equal(a, b)

    def test_fragment_stream_store_before_features(
        self, backend, tmp_path, station_clips, trained_meso
    ):
        """Store between extract and features: raw fragments are persisted and
        the whole feature+classify chain re-runs at replay time."""
        clip = station_clips[0]
        spec = (
            AcousticPipeline()
            .extract(FAST_EXTRACTION, emit="fragments")
            .stage("store", path=str(tmp_path / "store"), backend=backend, recording="rec")
            .features(use_paa=True)
            .classify(trained_meso)
        )
        streaming = spec.build()
        chunks = np.array_split(clip.samples, 7)
        list(streaming.extract_stream(chunks, sample_rate=clip.sample_rate))
        replay = classify_spec(trained_meso).build().run_from_store(
            tmp_path / "store", "rec"
        )
        raw = classify_spec(trained_meso).build().run(clip)
        assert_results_equal(raw, replay)

    def test_fragment_stream_store_after_features(
        self, backend, tmp_path, station_clips, trained_meso
    ):
        """Store after features: patterns are persisted, so replay skips the
        feature stage's work entirely and still classifies identically."""
        clip = station_clips[1]
        spec = (
            AcousticPipeline()
            .extract(FAST_EXTRACTION, emit="fragments")
            .features(use_paa=True)
            .stage("store", path=str(tmp_path / "store"), backend=backend, recording="rec")
            .classify(trained_meso)
        )
        streaming = spec.build()
        chunks = np.array_split(clip.samples, 5)
        list(streaming.extract_stream(chunks, sample_rate=clip.sample_rate))
        reader = StoreReader(tmp_path / "store")
        stored = list(reader.iter_ensembles(recording="rec"))
        assert any(row.n_patterns >= 0 for row in stored)
        replay = classify_spec(trained_meso).build().run_from_store(reader, "rec")
        raw = classify_spec(trained_meso).build().run(clip)
        assert_results_equal(raw, replay)

    @pytest.mark.parametrize("graph", ["extract", "features", "classify"])
    @pytest.mark.parametrize("emit", ["ensembles", "fragments"])
    @pytest.mark.parametrize("fan_out", [1, 2])
    def test_simulated_river(
        self, backend, tmp_path, station_clips, trained_meso, fan_out, emit, graph
    ):
        spec = graph_spec(graph, trained_meso, emit=emit).stage(
            "store", path=str(tmp_path / "store"), backend=backend
        )
        river_result = run_clips_via_river(spec, station_clips, fan_out=fan_out)
        replay = graph_spec(graph, trained_meso).build().run_corpus(
            from_store=tmp_path / "store"
        )
        assert len(replay) == len(station_clips)
        flat_labels = [label for result in replay for label in result.labels]
        assert flat_labels == river_result.labels
        flat = [e for result in replay for e in result.ensembles]
        assert len(flat) == len(river_result.ensembles)
        for a, b in zip(flat, river_result.ensembles):
            np.testing.assert_array_equal(a.samples, b.samples)
        flat_patterns = [p for result in replay for p in result.patterns]
        for pa, pb in zip(flat_patterns, river_result.patterns):
            assert len(pa) == len(pb)
            for x, y in zip(pa, pb):
                np.testing.assert_array_equal(x, y)
        assert sum(r.short_ensembles for r in replay) == river_result.short_ensembles
        assert sum(r.total_samples for r in replay) == river_result.total_samples
        # And the river-written store is the store a batch run writes, row
        # for row — whichever scope shape carried the ensembles to the sink.
        graph_spec(graph, trained_meso).build().run_corpus(
            station_clips, store=tmp_path / "batch"
        )
        rows = list(StoreReader(tmp_path / "store").iter_ensembles())
        assert len(rows) == len(river_result.ensembles)
        assert_rows_equal(rows, list(StoreReader(tmp_path / "batch").iter_ensembles()))
        assert all(row.ensemble.label is None for row in rows)
        n_patterns = sorted({row.n_patterns for row in rows})
        if graph == "extract":
            assert n_patterns == [-1]
        else:
            # The corpus has two ensembles too short for a single pattern.
            assert n_patterns[0] == 0 and n_patterns[-1] > 0
            assert sum(row.n_patterns == 0 for row in rows) == 2

    @pytest.mark.skipif(
        not transport_available(), reason="process transport unavailable here"
    )
    @pytest.mark.parametrize("fan_out", [1, 2])
    def test_process_river(self, tmp_path, station_clips, trained_meso, fan_out):
        builder = classify_spec(trained_meso)
        deployed = deploy_clips_via_river(
            builder,
            station_clips,
            backend="process",
            hosts=2,
            fan_out=fan_out,
            store=tmp_path / "store",
        )
        replay = classify_spec(trained_meso).build().run_corpus(
            from_store=tmp_path / "store"
        )
        assert len(replay) == len(station_clips)
        assert [label for r in replay for label in r.labels] == deployed.labels
        flat = [e for r in replay for e in r.ensembles]
        for a, b in zip(flat, deployed.ensembles):
            np.testing.assert_array_equal(a.samples, b.samples)
        assert sum(r.total_samples for r in replay) == deployed.total_samples

    def test_sweep_reuses_stored_ensembles(self, backend, tmp_path, station_clips, trained_meso):
        """Extract once, then read → enrich → persist into a second store."""
        extract_only = AcousticPipeline().extract(FAST_EXTRACTION).build()
        first = tmp_path / "first"
        writer = StoreWriter(first, backend=backend)
        extract_only.run_corpus(station_clips, store=writer)
        writer.close()
        enriched = tmp_path / "enriched"
        swept = classify_spec(trained_meso).build().run_corpus(
            from_store=first, store=enriched
        )
        raw = classify_spec(trained_meso).build().run_corpus(station_clips)
        for a, b in zip(raw, swept):
            assert_results_equal(a, b)
        # And the enriched store replays the same labels without any stages
        # re-running feature extraction.
        second = classify_spec(trained_meso).build().run_corpus(from_store=enriched)
        for a, b in zip(raw, second):
            assert a.labels == b.labels

    def test_sweep_onto_its_own_input_is_rejected(self, tmp_path, station_clips, trained_meso):
        extract_only = AcousticPipeline().extract(FAST_EXTRACTION).build()
        store = tmp_path / "store"
        extract_only.run_corpus(station_clips[:1], store=store)
        with pytest.raises(StoreError):
            classify_spec(trained_meso).build().run_corpus(
                from_store=store, store=store
            )


class _IntLabels:
    """A classifier whose verdicts are not strings."""

    def predict(self, pattern) -> int:
        return 7


class TestRiverSink:
    def test_truncated_fragment_scope_is_orphaned_not_sealed(self, tmp_path):
        """A hand-built stream through a bare sink: the bad-closed scope's
        flushed audio stays orphaned under its own ordinal, and the survivor
        is sealed from the stream's own ``n_patterns`` stamp."""
        ensemble = ScopeType.ENSEMBLE.value
        fragmented = {"sample_rate": 8000, "fragmented": True}
        stamped_close = close_scope(1, ensemble, sequence=1)
        stamped_close.context = {"n_patterns": 0}
        stream = [
            open_scope(0, ScopeType.CLIP.value, context={"sample_rate": 8000}),
            open_scope(1, ensemble, sequence=0, context={"start": 100, **fragmented}),
            fragment_record(np.ones(50), scope=2, sequence=0, context={"offset": 100}),
            bad_close_scope(1, ensemble, reason="worker died"),
            open_scope(1, ensemble, sequence=1, context={"start": 400, **fragmented}),
            fragment_record(np.full(30, 2.0), scope=2, sequence=0, context={"offset": 400}),
            stamped_close,
            close_scope(0, ScopeType.CLIP.value),
            end_of_stream(),
        ]
        stream[-2].context = {"total_samples": 1000}
        sink = StoreSinkOperator(tmp_path / "store")
        assert [out for record in stream for out in sink.process(record)] == stream
        reader = StoreReader(tmp_path / "store")
        assert reader.incomplete() == {"ensembles": [("rec-00000", 0)], "recordings": []}
        (survivor,) = reader.iter_ensembles()
        assert (survivor.ordinal, survivor.n_patterns, survivor.label) == (1, 0, None)
        assert (survivor.ensemble.start, survivor.ensemble.end) == (400, 430)
        np.testing.assert_array_equal(survivor.ensemble.samples, np.full(30, 2.0))
        assert reader.recording_info("rec-00000").total_samples == 1000

    def test_unstorable_verdict_is_the_named_error_on_the_river_too(
        self, tmp_path, station_clips
    ):
        """One behaviour for labels a store cannot hold: the river sink used
        to ``str()``-coerce what ``write_result`` and the store stage reject."""
        spec = classify_spec(_IntLabels())
        with pytest.raises(StoreError, match="map labels to strings"):
            spec.build().run(station_clips[0], store=tmp_path / "batch")
        with pytest.raises(StoreError, match="map labels to strings"):
            run_clips_via_river(spec, station_clips[:1], store=tmp_path / "river")


class TestExecutorCompleted:
    """CorpusExecutionError records which clips finished before the failure."""

    def _items(self, station_clips):
        return [station_clips[0], station_clips[1], "/nonexistent/clip.wav", station_clips[2]]

    @pytest.mark.parametrize("backend_name", ["serial", "thread", "process"])
    def test_completed_indices(self, tmp_path, station_clips, backend_name):
        builder = AcousticPipeline().extract(FAST_EXTRACTION)
        store = tmp_path / "store"
        executor = CorpusExecutor(builder, backend=backend_name, workers=2)
        with pytest.raises(CorpusExecutionError) as err:
            executor.run(self._items(station_clips), store=store)
        assert err.value.index == 2
        assert err.value.completed == (0, 1)
        # Exactly the completed items were persisted, so a rerun can skip them.
        reader = StoreReader(store)
        assert reader.recordings() == ["rec-00000", "rec-00001"]
        assert all(reader.recording_info(name).complete for name in reader.recordings())

    def test_completed_defaults_empty(self):
        error = CorpusExecutionError("boom", index=3)
        assert error.completed == ()

    def test_store_stage_rejected_off_serial(self, tmp_path, station_clips):
        spec = (
            AcousticPipeline()
            .extract(FAST_EXTRACTION)
            .stage("store", path=str(tmp_path / "store"))
        )
        with pytest.raises(PipelineBuildError):
            spec.run_corpus(station_clips, backend="thread")

    def test_recordings_length_mismatch_rejected(self, tmp_path, station_clips):
        pipe = AcousticPipeline().extract(FAST_EXTRACTION).build()
        with pytest.raises(ValueError):
            pipe.run_corpus(
                station_clips, store=tmp_path / "store", recordings=["only-one"]
            )


class TestCli:
    def _populate(self, path, clips):
        pipe = AcousticPipeline().extract(FAST_EXTRACTION).features(use_paa=True).build()
        writer = StoreWriter(path, backend="npz")
        pipe.run_corpus(clips, store=writer)
        writer.close()

    def test_ls_and_info(self, tmp_path, station_clips, capsys):
        store = tmp_path / "store"
        self._populate(store, station_clips[:2])
        assert store_cli(["ls", str(store)]) == 0
        out = capsys.readouterr().out
        assert "rec-00000" in out and "complete" in out
        assert store_cli(["info", str(store)]) == 0
        out = capsys.readouterr().out
        assert "schema version: 1" in out
        assert "backend:        npz" in out

    def test_verify_detects_corruption(self, tmp_path, station_clips, capsys):
        store = tmp_path / "store"
        self._populate(store, station_clips[:1])
        assert store_cli(["verify", str(store)]) == 0
        assert "OK" in capsys.readouterr().out
        shard = sorted((store / "shards").iterdir())[0]
        shard.write_bytes(shard.read_bytes() + b"corruption")
        assert store_cli(["verify", str(store)]) == 1
        assert "FAIL" in capsys.readouterr().out
