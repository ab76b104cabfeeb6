"""One recording identity in the store: a recording is written once.

The store is append-only with no row delete, so writing a recording a
second time can only double its rows.  :class:`~repro.store.StoreWriter`
therefore owns the decision for every write path — batch ``run(store=)``,
``run_corpus(store=)``, the ``"store"`` stage, the river sink and the
experiment drivers: a name the store already holds raises
:class:`~repro.store.StoreError` before anything is appended, and an
unnamed recording takes the first free ``recording_name(i)``.  Ensemble
keys are checked unique and in order when they are written, and
``verify()`` flags stores doubled by writers that did not check.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

import repro.store
from repro.config import FAST_EXTRACTION
from repro.core.cutter import Ensemble
from repro.experiments.datasets import TEST_SCALE, build_experiment_data
from repro.dsp.wav import write_wav
from repro.jobs import JobWorker, Ledger, LedgerConfig, LedgerService
from repro.pipeline import AcousticPipeline, run_clips_via_river
from repro.pipeline.executor import CorpusExecutionError
from repro.store import StoreError, StoreReader, StoreWriter, open_writer
from repro.store.__main__ import main as store_cli
from repro.store.schema import MANIFEST_NAME, SHARD_DIR, recording_name
from repro.synth.dataset import CorpusSpec, build_corpus


@pytest.fixture(scope="module")
def clips():
    corpus = build_corpus(
        CorpusSpec(
            species=("NOCA", "BLJA"),
            clips_per_species=1,
            songs_per_clip=2,
            clip_duration=3.0,
            sample_rate=16000,
            seed=5,
        )
    )
    return list(corpus.clips)


@pytest.fixture(scope="module")
def extract():
    return AcousticPipeline().extract(FAST_EXTRACTION, keep_traces=False)


def snapshot(path) -> tuple:
    """What a refused write must leave untouched: rows, recordings, verify()."""
    reader = StoreReader(path)
    return reader.counts(), reader.recordings(), reader.verify()


def ensemble(start: int, size: int = 4) -> Ensemble:
    samples = np.arange(size, dtype=float)
    return Ensemble(samples=samples, start=start, end=start + size, sample_rate=8000)


class TestWriteOnce:
    def test_complete_recording_is_not_reopened(self, tmp_path):
        with StoreWriter(tmp_path / "s") as writer:
            writer.write_ensembles("a", [ensemble(0)])
        with StoreWriter(tmp_path / "s") as writer:
            with pytest.raises(StoreError, match="'a'.*append-only.*new store"):
                writer.begin_recording("a")
        assert StoreReader(tmp_path / "s").recording_info("a").complete

    def test_partial_recording_is_not_reopened(self, tmp_path):
        writer = StoreWriter(tmp_path / "s")
        writer.begin_recording("a")
        with pytest.raises(StoreError, match="'a'"):
            writer.begin_recording("a")

    def test_unnamed_recording_takes_the_first_free_name(self, tmp_path):
        with StoreWriter(tmp_path / "s") as writer:
            assert writer.begin_recording(None) == recording_name(0) == "rec-00000"
            writer.begin_recording(recording_name(2))
            assert writer.begin_recording(None) == "rec-00001"
            writer.write_ensembles(None, [ensemble(0)])
            assert writer.recordings() == ["rec-00000", "rec-00002", "rec-00001", "rec-00003"]


class TestOrdinalCheck:
    def test_ordinals_must_rise(self, tmp_path):
        writer = StoreWriter(tmp_path / "s")
        writer.begin_recording("a")
        writer.write_ensemble("a", 0, ensemble(0))
        writer.write_ensemble("a", 2, ensemble(10))
        for stale in (2, 1):
            with pytest.raises(StoreError, match="unique and increasing"):
                writer.close_ensemble("a", stale, 20, n_patterns=-1, start=16)
        # Other recordings keep their own sequence.
        writer.begin_recording("b")
        writer.write_ensemble("b", 0, ensemble(0))

    def test_abandoned_ordinal_is_skipped_not_reused(self, tmp_path):
        """The store stage gives up on a truncated ensemble by moving to the
        next ordinal; the orphan stays incomplete and the next seal is fine."""
        writer = StoreWriter(tmp_path / "s", flush_values=1)
        writer.begin_recording("a")
        writer.open_ensemble("a", 0, 0, sample_rate=8000)
        writer.append_audio("a", 0, 0, np.ones(3))
        writer.write_ensemble("a", 1, ensemble(10))
        writer.close()
        reader = StoreReader(tmp_path / "s")
        assert reader.incomplete()["ensembles"] == [("a", 0)]
        assert reader.verify() == []


class TestVerifyFlagsDoubledStores:
    def test_duplicate_keys_fail_verify_and_the_cli(self, tmp_path, capsys):
        """A store doubled before 5.0 (the same ensembles shard listed twice,
        checksums intact) is reported, and ``verify`` exits 1."""
        path = tmp_path / "s"
        with StoreWriter(path, backend="npz") as writer:
            writer.write_ensembles("a", [ensemble(0), ensemble(10)])
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        (entry,) = [shard for shard in manifest["shards"] if shard["kind"] == "ensembles"]
        copy = dict(entry, name="999999-ensembles.npz")
        shutil.copy(path / SHARD_DIR / entry["name"], path / SHARD_DIR / copy["name"])
        manifest["shards"].append(copy)
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        (problem,) = StoreReader(path).verify()
        assert "'a' holds 2 ensemble ordinal(s) more than once" in problem
        assert store_cli(["verify", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestOpenWriter:
    def test_closes_what_it_opened_and_flushes_what_it_was_handed(self, tmp_path):
        with open_writer(tmp_path / "s") as writer:
            writer.write_ensembles(None, [ensemble(0)])
        with pytest.raises(StoreError, match="closed"):
            writer.flush()
        handed = StoreWriter(tmp_path / "t")
        with open_writer(handed) as writer:
            assert writer is handed
            writer.write_ensembles(None, [ensemble(0)])
        assert StoreReader(tmp_path / "t").recordings() == ["rec-00000"]
        handed.flush()  # still open for its owner
        with open_writer(None) as writer:
            assert writer is None

    def test_exit_never_replaces_the_exception_in_flight(self, tmp_path):
        class FullDisk(StoreWriter):
            def flush(self):
                raise OSError("No space left on device (simulated)")

        with pytest.raises(KeyError):
            with open_writer(FullDisk(tmp_path / "s")):
                raise KeyError("the real failure")
        with pytest.raises(OSError):
            with open_writer(FullDisk(tmp_path / "s")):
                pass


class TestEveryWritePathRefusesARewrite:
    def test_named_run_twice(self, tmp_path, clips, extract):
        pipe = extract.build()
        pipe.run(clips[0], store=tmp_path / "s", recording="x")
        before = snapshot(tmp_path / "s")
        with pytest.raises(StoreError, match="'x'"):
            pipe.run(clips[0], store=tmp_path / "s", recording="x")
        assert snapshot(tmp_path / "s") == before

    def test_auto_named_runs_take_fresh_names(self, tmp_path, clips, extract):
        extract.build().run(clips[0], store=tmp_path / "s")
        extract.build().run(clips[1], store=tmp_path / "s")
        with StoreWriter(tmp_path / "s") as writer:
            extract.build().run(clips[0], store=writer)
        reader = StoreReader(tmp_path / "s")
        assert reader.recordings() == ["rec-00000", "rec-00001", "rec-00002"]
        assert reader.verify() == []

    def test_corpus_run_twice(self, tmp_path, clips, extract):
        pipe = extract.build()
        pipe.run_corpus(clips, store=tmp_path / "s")
        before = snapshot(tmp_path / "s")
        with pytest.raises(CorpusExecutionError) as excinfo:
            pipe.run_corpus(clips, store=tmp_path / "s")
        error = excinfo.value
        assert (error.index, error.completed) == (0, ())
        assert isinstance(error.__cause__, StoreError)
        assert "'rec-00000'" in str(error.__cause__)
        assert snapshot(tmp_path / "s") == before

    def test_rebuilt_store_stage(self, tmp_path, clips):
        store = str(tmp_path / "s")
        auto = AcousticPipeline().extract(FAST_EXTRACTION).stage("store", path=store)
        for _ in range(2):
            auto.build().run(clips[0])
        reader = StoreReader(store)
        assert reader.recordings() == ["rec-00000", "rec-00001"]
        assert reader.verify() == []
        named = AcousticPipeline().extract(FAST_EXTRACTION).stage(
            "store", path=str(tmp_path / "n"), recording="rec"
        )
        named.build().run(clips[0])
        before = snapshot(tmp_path / "n")
        with pytest.raises(StoreError, match="'rec'"):
            named.build().run(clips[0])
        assert snapshot(tmp_path / "n") == before

    def test_river_run_twice(self, tmp_path, clips, extract):
        run_clips_via_river(extract, clips[:1], store=tmp_path / "s")
        before = snapshot(tmp_path / "s")
        with pytest.raises(StoreError, match="'rec-00000'"):
            run_clips_via_river(extract, clips[:1], store=tmp_path / "s")
        assert snapshot(tmp_path / "s") == before

    def test_ledger_default_names_are_the_store_names(self, tmp_path):
        ledger = Ledger.create(tmp_path / "l.json", ["a.wav", "b.wav"])
        assert [row.recording for row in ledger.rows] == [recording_name(0), recording_name(1)]

    def test_removed_names_stay_removed(self):
        assert not hasattr(repro.store, "coerce_writer")
        assert not hasattr(Ledger, "claimable") and not hasattr(Ledger, "release")


class TestWorkerMeetsItsOwnRecording:
    """A worker that died after persisting an item but before reporting it
    done leaves the recording in the store; whoever claims the item next
    must square with that, as the ledgered runner's reconcile does."""

    def serve(self, tmp_path, clips, extract, prepare):
        sources = []
        for i, clip in enumerate(clips):
            sources.append(str(tmp_path / f"clip-{i}.wav"))
            write_wav(sources[-1], clip.samples, clip.sample_rate)
        store = tmp_path / "w.store"
        with StoreWriter(store) as writer:
            prepare(writer, extract.build().run(sources[0]))
        before = StoreReader(store).counts()
        config = LedgerConfig(max_attempts=2, backoff_base=0.0, backoff_cap=0.0)
        ledger = Ledger.create(tmp_path / "l.json", sources, config=config)
        with LedgerService(ledger) as service:
            worker = JobWorker(service.url, extract, store=store, worker_id="w", poll=0.05)
            worker.run()
        return worker, Ledger.open(tmp_path / "l.json"), before, StoreReader(store)

    def test_complete_recording_is_reported_done_not_rerun(self, tmp_path, clips, extract):
        def complete(writer, result):
            writer.write_result(recording_name(0), result)

        worker, ledger, before, reader = self.serve(tmp_path, clips, extract, complete)
        assert ledger.all_settled() and not ledger.quarantined()
        assert worker.completed == len(clips) and worker.failed == 0
        assert reader.recordings() == [recording_name(i) for i in range(len(clips))]
        rows = sum(1 for _ in reader.iter_ensembles(recording=recording_name(0)))
        assert rows == before["ensembles"]
        assert reader.verify() == []

    def test_partial_recording_is_quarantined(self, tmp_path, clips, extract):
        def partial(writer, result):
            writer.begin_recording(recording_name(0), sample_rate=result.sample_rate)

        worker, ledger, _, reader = self.serve(tmp_path, clips, extract, partial)
        assert [row.index for row in ledger.quarantined()] == [0]
        assert "partial write for recording 'rec-00000'" in ledger.row(0).error
        assert worker.completed == len(clips) - 1
        assert reader.recording_info(recording_name(1)).complete


def test_experiment_data_store_written_once(tmp_path):
    """The paper tables replayed from a store see every ensemble exactly
    once, however often the store was (tried to be) written."""
    store = tmp_path / "s"
    first = build_experiment_data(TEST_SCALE, store=store)
    before = snapshot(store)
    with pytest.raises(StoreError, match="'rec-00000'"):
        build_experiment_data(TEST_SCALE, store=store)
    assert snapshot(store) == before
    replayed = build_experiment_data(TEST_SCALE, from_store=store)
    assert len(replayed.ensembles) == len(first.ensembles) == 47
    assert replayed.total_samples == first.total_samples
