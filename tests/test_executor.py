"""Tests for the parallel corpus executor (repro.pipeline.executor).

The headline guarantees under test:

* **backend parity** — ``run_corpus`` with the serial, thread and process
  backends produces bit-identical :class:`PipelineResult`\\ s (ensembles,
  patterns, labels, traces) for the same corpus, across worker counts;
* **specs are serialisable-by-construction** — every registered stage's
  ``(name, kwargs)`` spec survives pickle → re-instantiate → identical
  output on a fixed clip (the property the process backend relies on);
* **error paths** — a stage raising mid-corpus surfaces the failing item's
  index and source in a :class:`CorpusExecutionError` and never deadlocks
  the process pool.
"""

from __future__ import annotations

import pickle
import time
import uuid
from pathlib import Path

import numpy as np
import pytest

from repro.config import FAST_EXTRACTION
from repro.meso import MesoClassifier
from repro.pipeline import (
    AcousticPipeline,
    BuiltPipeline,
    CorpusExecutionError,
    CorpusExecutor,
    EnsembleEvent,
    PipelineBuildError,
    STAGES,
    Stage,
    StageRegistry,
)
from repro.pipeline.executor import Dispatcher
from repro.synth import ClipBuilder, get_species
from repro.synth.dataset import CorpusSpec, build_corpus


class ExplodingStage(Stage):
    """A stage that raises once its cumulative ensemble count passes a limit.

    Module-level so the process backend can pickle it by reference.
    """

    name = "exploding"

    def __init__(self, explode_after: int = 0) -> None:
        self.explode_after = explode_after
        self.seen = 0

    def reset(self) -> None:
        # Per-clip state resets, but the explosion budget is cumulative so
        # a mid-corpus failure can be provoked deterministically in the
        # serial backend (each worker re-counts from zero elsewhere).
        pass

    def process(self, event):
        if isinstance(event, EnsembleEvent):
            self.seen += 1
            if self.seen > self.explode_after:
                raise RuntimeError("stage blew up mid-corpus")
        return [event]


class RecordingStage(Stage):
    """Leaves one file in ``log_dir`` per item it starts (visible across
    process workers), then holds the worker briefly so a queue builds up."""

    name = "recording"

    def __init__(self, log_dir: str) -> None:
        self.log_dir = Path(log_dir)

    def start(self, sample_rate: int) -> None:
        (self.log_dir / uuid.uuid4().hex).touch()
        time.sleep(0.05)

    def process(self, event):
        return [event]


def failing_registry() -> StageRegistry:
    registry = StageRegistry()
    registry.register("extract", STAGES.factory("extract"))
    registry.register("exploding", ExplodingStage)
    registry.register("recording", RecordingStage)
    return registry


def assert_same_results(reference, candidate) -> None:
    """Bit-identical PipelineResult lists, field by field."""
    assert len(reference) == len(candidate)
    for a, b in zip(reference, candidate):
        assert a.sample_rate == b.sample_rate
        assert a.total_samples == b.total_samples
        assert a.labels == b.labels
        assert len(a.ensembles) == len(b.ensembles)
        for ea, eb in zip(a.ensembles, b.ensembles):
            assert ea.start == eb.start and ea.end == eb.end
            np.testing.assert_array_equal(ea.samples, eb.samples)
        for pa, pb in zip(a.patterns, b.patterns):
            assert len(pa) == len(pb)
            for u, v in zip(pa, pb):
                np.testing.assert_array_equal(u, v)
        if a.anomaly_scores is None:
            assert b.anomaly_scores is None
        else:
            np.testing.assert_array_equal(a.anomaly_scores, b.anomaly_scores)
            np.testing.assert_array_equal(a.trigger, b.trigger)


@pytest.fixture(scope="module")
def corpus_clips():
    """Three short clips with different seeds/species mixes."""
    clips = []
    for seed, species in ((1, ["NOCA", "TUTI"]), (2, ["TUTI"]), (3, ["NOCA"])):
        builder = ClipBuilder(sample_rate=16000, duration=6.0)
        clips.append(builder.build(species, np.random.default_rng(seed), songs_per_species=1))
    return clips


@pytest.fixture(scope="module")
def trained_builder():
    """extract → features → classify with a trained MESO memory."""
    rng = np.random.default_rng(11)
    meso = MesoClassifier()
    builder = (
        AcousticPipeline().extract(FAST_EXTRACTION).features(use_paa=True).classify(meso)
    )
    pipe = builder.build()
    for code in ("NOCA", "TUTI"):
        for _ in range(3):
            song = get_species(code).render(16000, rng)
            for vector in pipe.patterns_for(song):
                meso.partial_fit(vector, code)
    return builder


@pytest.fixture(scope="module")
def serial_reference(trained_builder, corpus_clips):
    return trained_builder.build().run_corpus(corpus_clips)


class TestBackendParity:
    """The acceptance criterion: all backends agree bit-for-bit."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_backend_matches_serial(
        self, trained_builder, corpus_clips, serial_reference, backend, workers
    ):
        results = trained_builder.build().run_corpus(
            corpus_clips, backend=backend, workers=workers
        )
        assert_same_results(serial_reference, results)

    def test_serial_matches_per_clip_run(self, trained_builder, corpus_clips, serial_reference):
        pipe = trained_builder.build()
        assert_same_results(serial_reference, [pipe.run(clip) for clip in corpus_clips])

    def test_results_in_corpus_order(self, trained_builder, corpus_clips, serial_reference):
        # Reversing the corpus reverses the results: order is corpus order,
        # not completion order.
        reversed_results = trained_builder.build().run_corpus(
            list(reversed(corpus_clips)), backend="process", workers=2
        )
        assert_same_results(serial_reference, list(reversed(reversed_results)))

    def test_array_corpus_with_sample_rate(self, trained_builder, corpus_clips):
        arrays = [clip.samples for clip in corpus_clips]
        pipe = trained_builder.build()
        from_arrays = pipe.run_corpus(arrays, backend="thread", workers=2, sample_rate=16000)
        from_clips = pipe.run_corpus(corpus_clips, backend="thread", workers=2)
        for a, b in zip(from_clips, from_arrays):
            assert a.labels == b.labels
            assert len(a.ensembles) == len(b.ensembles)


class TestExecutorInputs:
    def test_accepts_clip_corpus_objects(self, trained_builder):
        corpus = build_corpus(
            CorpusSpec(
                species=("NOCA",), clips_per_species=2, songs_per_clip=1,
                clip_duration=5.0, sample_rate=16000, seed=5,
            )
        )
        results = trained_builder.build().run_corpus(corpus)
        assert len(results) == len(corpus.clips)

    def test_empty_corpus_returns_empty_list(self, trained_builder):
        assert trained_builder.build().run_corpus([]) == []
        assert trained_builder.build().run_corpus([], backend="process") == []

    def test_single_source_rejected(self, trained_builder, corpus_clips):
        with pytest.raises(TypeError, match="sequence of sources"):
            trained_builder.build().run_corpus(corpus_clips[0].samples)
        with pytest.raises(TypeError, match="sequence of sources"):
            trained_builder.build().run_corpus("clip.wav")

    def test_unknown_backend_rejected(self, trained_builder):
        with pytest.raises(ValueError, match="backend"):
            CorpusExecutor(trained_builder.build(), backend="gpu")

    def test_bad_worker_count_rejected(self, trained_builder):
        with pytest.raises(ValueError, match="workers"):
            CorpusExecutor(trained_builder.build(), backend="thread", workers=0)

    def test_pipeline_type_checked(self):
        with pytest.raises(TypeError, match="pipeline"):
            CorpusExecutor(object())

    def test_specless_pipeline_rejected_for_parallel_backends(self):
        from repro.pipeline import ExtractStage

        bare = BuiltPipeline([ExtractStage(FAST_EXTRACTION)])
        with pytest.raises(PipelineBuildError, match="spec"):
            CorpusExecutor(bare, backend="process")
        # ...but the serial backend runs the instance directly.
        assert CorpusExecutor(bare, backend="serial").run([]) == []

    def test_builder_input_builds_per_run(self, trained_builder, corpus_clips):
        executor = CorpusExecutor(trained_builder, backend="serial")
        results = executor.run(corpus_clips[:1])
        assert len(results) == 1 and results[0].ensembles


class TestErrorPaths:
    """A raising stage surfaces the failing item and never deadlocks."""

    @pytest.fixture()
    def exploding_builder(self):
        return (
            AcousticPipeline(registry=failing_registry())
            .extract(FAST_EXTRACTION, keep_traces=False)
            .stage("exploding", explode_after=0)
        )

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_failure_carries_index_and_source(self, exploding_builder, corpus_clips, backend):
        with pytest.raises(CorpusExecutionError, match="corpus item") as excinfo:
            exploding_builder.build().run_corpus(
                corpus_clips, backend=backend, workers=2
            )
        error = excinfo.value
        assert error.index is not None and 0 <= error.index < len(corpus_clips)
        assert error.source is not None
        assert "AcousticClip" in str(error)
        assert "blew up" in str(error)

    def test_process_failure_ships_worker_traceback(self, exploding_builder, corpus_clips):
        with pytest.raises(CorpusExecutionError) as excinfo:
            exploding_builder.build().run_corpus(corpus_clips, backend="process", workers=2)
        assert excinfo.value.worker_traceback is not None
        assert "RuntimeError" in excinfo.value.worker_traceback

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_wav_path_failures_name_the_path(self, trained_builder, tmp_path, backend):
        missing = tmp_path / "missing.wav"
        with pytest.raises(CorpusExecutionError, match="missing.wav") as excinfo:
            trained_builder.build().run_corpus([str(missing)], backend=backend)
        assert excinfo.value.index == 0

    def test_mid_corpus_failure_after_successes(self, corpus_clips):
        # Let the whole first clip through, then explode: the error must
        # name a later index, proving earlier items completed.
        reference = AcousticPipeline().extract(FAST_EXTRACTION, keep_traces=False).build()
        counts = [len(reference.run(clip).ensembles) for clip in corpus_clips]
        assert counts[0] > 0 and sum(counts[1:]) > 0
        builder = (
            AcousticPipeline(registry=failing_registry())
            .extract(FAST_EXTRACTION, keep_traces=False)
            .stage("exploding", explode_after=counts[0])
        )
        with pytest.raises(CorpusExecutionError) as excinfo:
            builder.build().run_corpus(corpus_clips, backend="serial")
        assert excinfo.value.index > 0

    def test_unpicklable_corpus_item_carries_index(self, trained_builder, corpus_clips):
        # A generator is a valid chunk source for run() but cannot cross
        # the process boundary; the pickling failure must still honour the
        # index/source contract instead of escaping as a raw PicklingError.
        generator = (chunk for chunk in [corpus_clips[0].samples])
        with pytest.raises(CorpusExecutionError) as excinfo:
            trained_builder.build().run_corpus(
                [corpus_clips[0], generator], backend="process", workers=2
            )
        assert excinfo.value.index == 1

    def test_unpicklable_spec_reported_up_front(self, corpus_clips):
        registry = StageRegistry()
        registry.register("extract", STAGES.factory("extract"))

        class LocalStage(Stage):  # not importable => not picklable
            name = "local"

            def process(self, event):
                return [event]

        registry.register("local", lambda: LocalStage())
        builder = AcousticPipeline(registry=registry).extract(FAST_EXTRACTION).stage("local")
        with pytest.raises(CorpusExecutionError, match="not picklable"):
            builder.build().run_corpus(corpus_clips, backend="process")


class TestFailFast:
    """The first failure aborts the run: queued items are cancelled, not run."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_failure_at_item_zero_cancels_unstarted_work(self, backend, tmp_path):
        log_dir = tmp_path / "started"
        log_dir.mkdir()
        builder = (
            AcousticPipeline(registry=failing_registry())
            .extract(FAST_EXTRACTION, keep_traces=False)
            .stage("recording", log_dir=str(log_dir))
        )
        rng = np.random.default_rng(7)
        corpus = [str(tmp_path / "missing.wav")]  # fails before any stage starts
        corpus += [0.01 * rng.standard_normal(4000) for _ in range(30)]
        with pytest.raises(CorpusExecutionError) as excinfo:
            builder.run_corpus(corpus, backend=backend, workers=2, sample_rate=16000)
        assert excinfo.value.index == 0 and excinfo.value.completed == ()
        assert len(list(log_dir.iterdir())) < len(corpus) - 1


class TestDispatcher:
    """The one dispatch loop under both runners, driven directly."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_ordered_outcomes_errors_as_data_pool_reused(
        self, trained_builder, corpus_clips, serial_reference, backend, tmp_path, monkeypatch
    ):
        builds = []
        build = AcousticPipeline.build
        monkeypatch.setattr(
            AcousticPipeline, "build", lambda self: builds.append(1) or build(self)
        )
        # Indices are the caller's labels, not positions: outcomes follow
        # the order of the batch whatever they are.
        batch = [(7, corpus_clips[0]), (3, str(tmp_path / "missing.wav")), (5, corpus_clips[1])]
        if backend == "process":
            batch.append((9, (chunk for chunk in [corpus_clips[0].samples])))
        executor = CorpusExecutor(trained_builder, backend=backend, workers=2)
        with Dispatcher(executor, None, len(batch)) as dispatch:
            pool = dispatch.pool
            first = list(dispatch.outcomes(batch))
            second = list(dispatch.outcomes(batch[:3]))
            assert dispatch.pool is pool
        # One stage graph per worker serves both batches.
        assert len(builds) <= executor.workers

        for outcomes in (first, second):
            assert [index for index, _, _ in outcomes[:3]] == [7, 3, 5]
            (_, good, no_error), (_, no_result, error), (_, also_good, _) = outcomes[:3]
            assert no_error is None and no_result is None
            assert_same_results(serial_reference[:2], [good, also_good])
            assert "missing.wav" in error.message
            if backend == "process":
                assert "FileNotFoundError" in error.worker_traceback and error.cause is None
            else:
                assert isinstance(error.cause, FileNotFoundError)
                assert error.worker_traceback is None
        if backend == "process":
            index, result, error = first[3]
            assert (index, result) == (9, None)
            assert "pickle" in error.message and error.worker_traceback is None


class TestCompletedContract:
    """``CorpusExecutionError.completed`` is a resume seed: it may name an
    index only if that index's ``store=`` persist call succeeded."""

    @staticmethod
    def failing_writer(path, fail_on: int):
        """A real store writer whose persist fails at the Nth call."""
        from repro.store import StoreWriter

        class FailingWriter(StoreWriter):
            def __init__(self) -> None:
                super().__init__(path)
                self.calls = 0
                self.persisted: list[str] = []

            def write_result(self, name, result, station="", features=False) -> None:
                self.calls += 1
                if self.calls == fail_on:
                    raise OSError("No space left on device (simulated)")
                super().write_result(name, result, station=station, features=features)
                self.persisted.append(name)

        return FailingWriter()

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_persist_failure_wrapped_with_honest_completed(
        self, trained_builder, corpus_clips, backend, tmp_path
    ):
        writer = self.failing_writer(tmp_path / "c.store", fail_on=2)
        with pytest.raises(CorpusExecutionError, match="failed to persist") as excinfo:
            trained_builder.build().run_corpus(
                corpus_clips, backend=backend, workers=2, store=writer
            )
        error = excinfo.value
        assert error.index == 1
        # Item 1's result was *collected* but never persisted: the resume
        # seed must not name it — only indices whose persist succeeded.
        assert error.completed == (0,)
        assert writer.persisted == ["rec-00000"]

    def test_closing_flush_cannot_mask_a_persist_failure(
        self, trained_builder, corpus_clips, tmp_path
    ):
        """A full disk fails the persist *and* the run's closing flush; the
        caller must still get the persist failure with its resume seed, not
        the closing flush's bare OSError."""
        from repro.store import StoreWriter

        class FullDisk(StoreWriter):
            def flush(self) -> None:
                raise OSError("No space left on device (simulated)")

        writer = FullDisk(tmp_path / "full.store", flush_values=1)
        with pytest.raises(CorpusExecutionError, match="failed to persist") as excinfo:
            trained_builder.build().run_corpus(corpus_clips, store=writer)
        assert (excinfo.value.index, excinfo.value.completed) == (0, ())
        assert isinstance(excinfo.value.__cause__, OSError)

    @pytest.mark.parametrize("flush_values, durable", [(1, (0,)), (2**62, ())])
    def test_failed_closing_flush_narrows_completed_to_durable_items(
        self, trained_builder, corpus_clips, flush_values, durable, tmp_path
    ):
        """The disk fills at item 2 and the closing flush fails too: items
        0 and 1 were persisted, but only what reached the on-disk manifest
        complete may be reported, or a resume would skip lost recordings."""
        from repro.store import StoreReader, StoreWriter

        class FullDisk(StoreWriter):
            full = False

            def write_result(self, recording, result, **kwargs):
                if recording == "rec-00002":
                    self.full = True
                    raise OSError("No space left on device (simulated)")
                super().write_result(recording, result, **kwargs)

            def flush(self) -> None:
                if self.full:
                    raise OSError("No space left on device (simulated)")
                super().flush()

        path = tmp_path / "full.store"
        writer = FullDisk(path, flush_values=flush_values)
        with pytest.raises(CorpusExecutionError, match="failed to persist") as excinfo:
            trained_builder.build().run_corpus(corpus_clips, store=writer)
        error = excinfo.value
        assert (error.index, error.completed) == (2, durable)
        assert "closing store flush" in str(error)
        assert isinstance(error.__cause__, OSError)
        if durable:
            reader = StoreReader(path)
            assert all(reader.recording_info(f"rec-{i:05d}").complete for i in durable)
            assert not reader.recording_info("rec-00001").complete
        else:
            assert not path.joinpath("manifest.json").exists()

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_item_failure_completed_lists_persisted_only(
        self, corpus_clips, backend, tmp_path
    ):
        # Explode inside the *pipeline* on a later clip: `completed` must
        # list exactly the persisted earlier indices, not a positional
        # prefix guess.
        reference = AcousticPipeline().extract(FAST_EXTRACTION, keep_traces=False).build()
        counts = [len(reference.run(clip).ensembles) for clip in corpus_clips]
        assert counts[0] > 0
        builder = (
            AcousticPipeline(registry=failing_registry())
            .extract(FAST_EXTRACTION, keep_traces=False)
            .stage("exploding", explode_after=counts[0])
        )
        writer = self.failing_writer(
            tmp_path / "c.store", fail_on=len(corpus_clips) + 1  # never fails
        )
        with pytest.raises(CorpusExecutionError) as excinfo:
            builder.build().run_corpus(
                corpus_clips, backend=backend, workers=2, store=writer
            )
        error = excinfo.value
        assert error.index not in error.completed
        assert set(error.completed) == {int(name[4:]) for name in writer.persisted}


class TestSpecPickleRoundTrip:
    """Property: registered stage specs are serialisable-by-construction."""

    def test_every_builtin_stage_spec_round_trips(self, trained_builder, corpus_clips):
        clip = corpus_clips[0]
        specs = trained_builder.specs
        assert {name for name, _ in specs} == {"extract", "features", "classify"}
        # "store" needs a filesystem path, so its spec round-trips in the
        # dedicated test below.
        assert set(STAGES.names()) == {name for name, _ in specs} | {"store"}
        restored = pickle.loads(pickle.dumps(specs))
        rebuilt = AcousticPipeline()
        for name, kwargs in restored:
            rebuilt.stage(name, **kwargs)
        assert_same_results(
            [trained_builder.build().run(clip)], [rebuilt.build().run(clip)]
        )

    def test_store_stage_spec_round_trips(self, trained_builder, corpus_clips, tmp_path):
        from repro.store import StoreReader

        clip = corpus_clips[0]
        builder = pickle.loads(pickle.dumps(trained_builder)).stage(
            "store", path=tmp_path / "spec-store", recording="clip"
        )
        restored = pickle.loads(pickle.dumps(builder.specs))
        assert {name for name, _ in restored} == set(STAGES.names())
        rebuilt = AcousticPipeline()
        for name, kwargs in restored:
            rebuilt.stage(name, **kwargs)
        assert_same_results(
            [trained_builder.build().run(clip)], [rebuilt.build().run(clip)]
        )
        reader = StoreReader(tmp_path / "spec-store")
        assert reader.recordings() == ["clip"]
        assert not reader.incomplete()["recordings"]

    def test_builder_itself_round_trips(self, trained_builder, corpus_clips):
        clip = corpus_clips[1]
        clone = pickle.loads(pickle.dumps(trained_builder))
        assert_same_results(
            [trained_builder.build().run(clip)], [clone.build().run(clip)]
        )

    def test_random_extract_specs_round_trip(self, corpus_clips):
        # Seeded-random property loop: arbitrary extract/features kwargs
        # survive the pickle → re-instantiate cycle with identical output.
        rng = np.random.default_rng(2007)
        clip = corpus_clips[2]
        for _ in range(5):
            builder = AcousticPipeline().extract(
                FAST_EXTRACTION,
                hop=int(rng.choice([8, 16, 32])),
                normalization=str(rng.choice(["running", "global"])),
                keep_traces=bool(rng.choice([True, False])),
            )
            if rng.random() < 0.5:
                builder = builder.features(
                    use_paa=bool(rng.choice([True, False])),
                    log_compress=bool(rng.choice([True, False])),
                )
            restored = pickle.loads(pickle.dumps(builder))
            assert restored.specs == builder.specs
            assert_same_results(
                [builder.build().run(clip)], [restored.build().run(clip)]
            )

    def test_custom_registered_stage_round_trips(self, corpus_clips):
        registry = failing_registry()
        builder = (
            AcousticPipeline(registry=registry)
            .extract(FAST_EXTRACTION)
            .stage("exploding", explode_after=10**9)
        )
        clone = pickle.loads(pickle.dumps(builder))
        assert clone.specs == builder.specs
        a = builder.build().run(corpus_clips[0])
        b = clone.build().run(corpus_clips[0])
        assert_same_results([a], [b])


class TestTrainedClassifierTransfer:
    def test_process_workers_see_the_trained_memory(self, trained_builder, corpus_clips):
        # The classify kwargs carry the trained MesoClassifier through the
        # pickle; labels produced in workers must match the parent's.
        serial = trained_builder.build().run_corpus(corpus_clips)
        process = trained_builder.build().run_corpus(corpus_clips, backend="process", workers=2)
        assert [r.labels for r in process] == [r.labels for r in serial]
        assert any(label is not None for r in serial for label in r.labels)
