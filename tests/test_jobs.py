"""Tests for the durable corpus job layer (repro.jobs).

The headline guarantees under test:

* **ledger state machine** — claims, leases, retry backoff and quarantine
  follow the documented transitions, every mutation is atomic on disk,
  and a reload always sees exactly the state a caller was told about
  (property-tested over random operation sequences);
* **crash-recovery parity** — a ledgered corpus run killed mid-way and
  resumed produces results and store contents bit-identical to an
  uninterrupted run, on every backend, without re-extracting completed
  items and without any item running more than ``max_attempts`` times;
* **no ``done`` without persist** — a persist failure (simulated full
  disk) marks the item failed, never done, and leaves no partial
  recording that a resume could double-append;
* **control plane** — many pull-based workers drain one ledger over
  HTTP; a worker that stops heart-beating loses its lease and its row
  lapses back to the pool instead of wedging the corpus.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FAST_EXTRACTION
from repro.dsp.wav import write_wav
from repro.jobs import (
    BUSY,
    DONE,
    FAILED,
    OPEN,
    QUARANTINED,
    JobWorker,
    Ledger,
    LedgerConfig,
    LedgerError,
    LedgerService,
    WorkerError,
    run_corpus,
)
from repro.jobs.__main__ import main as jobs_cli
from repro.pipeline import AcousticPipeline, CorpusExecutionError, PipelineBuildError
from repro.pipeline.executor import describe_source
from repro.store import StoreReader, StoreWriter
from repro.synth import ClipBuilder

FAST_RETRY = LedgerConfig(max_attempts=3, backoff_base=0.0, backoff_cap=0.0)


def clip_sources(clips) -> list[str]:
    """The source strings a ledger records for in-memory clips."""
    return [describe_source(clip) for clip in clips]


# -- shared corpus -------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_clips():
    """Three short clips with different seeds/species mixes."""
    clips = []
    for seed, species in ((1, ["NOCA", "TUTI"]), (2, ["TUTI"]), (3, ["NOCA"])):
        builder = ClipBuilder(sample_rate=16000, duration=5.0)
        clips.append(builder.build(species, np.random.default_rng(seed), songs_per_species=1))
    return clips


@pytest.fixture(scope="module")
def feature_builder():
    return AcousticPipeline().extract(FAST_EXTRACTION, keep_traces=False).features(use_paa=True)


@pytest.fixture(scope="module")
def reference(feature_builder, corpus_clips, tmp_path_factory):
    """Uninterrupted results + store: the target every recovery must hit."""
    store = tmp_path_factory.mktemp("jobs-ref") / "ref.store"
    results = feature_builder.build().run_corpus(corpus_clips, store=store)
    return results, StoreReader(store)


def assert_results_equal(reference, candidate) -> None:
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


def assert_store_contents_equal(ref_reader: StoreReader, path) -> None:
    """Same recordings, and per recording bit-identical ensembles/patterns."""
    candidate = StoreReader(path)
    assert candidate.recordings() == ref_reader.recordings()
    assert not candidate.incomplete()["recordings"]
    assert candidate.verify() == []
    for name in ref_reader.recordings():
        ref_rows = list(ref_reader.iter_ensembles(recording=name))
        rows = list(candidate.iter_ensembles(recording=name))
        assert len(rows) == len(ref_rows)
        for a, b in zip(ref_rows, rows):
            assert (a.ordinal, a.ensemble.start, a.label) == (b.ordinal, b.ensemble.start, b.label)
            np.testing.assert_array_equal(a.ensemble.samples, b.ensemble.samples)
            assert len(a.patterns) == len(b.patterns)
            for u, v in zip(a.patterns, b.patterns):
                np.testing.assert_array_equal(u, v)


# -- ledger state machine ------------------------------------------------------


class TestLedgerStateMachine:
    def test_create_open_roundtrip(self, tmp_path):
        ledger = Ledger.create(tmp_path / "l.json", ["a", "b"], config=FAST_RETRY)
        loaded = Ledger.open(tmp_path / "l.json")
        assert [row.state for row in loaded.rows] == [OPEN, OPEN]
        assert loaded.config.max_attempts == 3
        assert loaded.row(0).recording == "rec-00000"

    def test_create_refuses_overwrite(self, tmp_path):
        Ledger.create(tmp_path / "l.json", ["a"])
        with pytest.raises(LedgerError, match="already exists"):
            Ledger.create(tmp_path / "l.json", ["a"])

    def test_corpus_mismatch_refused(self, tmp_path):
        Ledger.create(tmp_path / "l.json", ["a", "b"])
        with pytest.raises(LedgerError, match="tracks 2 items"):
            Ledger.open_or_create(tmp_path / "l.json", sources=["a"])
        with pytest.raises(LedgerError, match="exactly the corpus"):
            Ledger.open_or_create(tmp_path / "l.json", sources=["a", "c"])

    def test_claim_marks_busy_lowest_first(self, tmp_path):
        ledger = Ledger.create(tmp_path / "l.json", ["a", "b"], config=FAST_RETRY)
        row = ledger.claim("w1", now=100.0)
        assert row.index == 0 and row.state == BUSY and row.worker == "w1"
        assert row.lease_expires == 100.0 + ledger.config.lease
        # Durable before the caller hears about it.
        assert Ledger.open(ledger.path).row(0).state == BUSY

    def test_done_requires_busy(self, tmp_path):
        ledger = Ledger.create(tmp_path / "l.json", ["a"], config=FAST_RETRY)
        with pytest.raises(LedgerError, match="only a claimed"):
            ledger.mark_done(0)
        row = ledger.claim("w1")
        ledger.mark_done(row.index, worker="w1")
        assert ledger.row(0).state == DONE
        # Idempotent for retried reports, but never claimable again.
        ledger.mark_done(row.index, worker="w1")
        assert ledger.claim("w2") is None

    def test_done_checks_holder(self, tmp_path):
        ledger = Ledger.create(tmp_path / "l.json", ["a"], config=FAST_RETRY)
        ledger.claim("w1")
        with pytest.raises(LedgerError, match="held by worker"):
            ledger.mark_done(0, worker="w2")

    def test_failure_backoff_then_quarantine(self, tmp_path):
        config = LedgerConfig(max_attempts=3, backoff_base=10.0, backoff_cap=15.0)
        ledger = Ledger.create(tmp_path / "l.json", ["a"], config=config)
        ledger.claim("w1", now=0.0)
        row = ledger.mark_failed(0, "boom", worker="w1", now=0.0)
        assert row.state == FAILED and row.attempts == 1
        assert row.not_before == 10.0  # base * 2^0
        assert ledger.claim("w1", now=5.0) is None  # backoff holds
        assert ledger.claim("w1", now=10.0).index == 0
        row = ledger.mark_failed(0, "boom", worker="w1", now=10.0)
        assert row.not_before == 25.0  # 10 + min(base*2, cap)
        ledger.claim("w1", now=30.0)
        row = ledger.mark_failed(0, "boom", worker="w1", now=30.0)
        assert row.state == QUARANTINED
        assert ledger.claim("w1", now=1e9) is None  # terminal
        assert ledger.all_settled()

    def test_lease_lapse_reopens_and_charges(self, tmp_path):
        ledger = Ledger.create(tmp_path / "l.json", ["a"], config=FAST_RETRY)
        ledger.claim("w1", now=0.0, lease=5.0)
        # Before expiry nobody else can take it; after expiry it lapses.
        assert ledger.claim("w2", now=4.0) is None
        row = ledger.claim("w2", now=6.0)
        assert row.index == 0 and row.worker == "w2"
        assert row.attempts == 1  # the lapse was charged
        with pytest.raises(LedgerError, match="held by worker"):
            ledger.mark_done(0, worker="w1")  # the dead worker's report

    def test_heartbeat_extends_lease(self, tmp_path):
        ledger = Ledger.create(tmp_path / "l.json", ["a"], config=FAST_RETRY)
        ledger.claim("w1", now=0.0, lease=5.0)
        ledger.heartbeat(0, "w1", now=4.0, lease=5.0)
        assert ledger.claim("w2", now=6.0) is None  # lease now runs to 9.0
        with pytest.raises(LedgerError, match="not busy under"):
            ledger.heartbeat(0, "w2", now=6.0)

    def test_recover_busy_charges_and_quarantines(self, tmp_path):
        config = LedgerConfig(max_attempts=2, backoff_base=0.0)
        ledger = Ledger.create(tmp_path / "l.json", ["a", "b"], config=config)
        ledger.claim_batch("w1", limit=2, now=0.0)
        recovered = ledger.recover_busy(now=1.0)
        assert [row.state for row in recovered] == [OPEN, OPEN]
        ledger.claim_batch("w1", limit=2, now=2.0)
        recovered = ledger.recover_busy(now=3.0)
        # Second interruption exhausts max_attempts=2: crash loops quarantine.
        assert [row.state for row in recovered] == [QUARANTINED, QUARANTINED]

    def test_adopt_done_and_quarantine_guards(self, tmp_path):
        ledger = Ledger.create(tmp_path / "l.json", ["a", "b"], config=FAST_RETRY)
        ledger.adopt_done(0)
        assert ledger.row(0).state == DONE
        with pytest.raises(LedgerError, match="cannot quarantine"):
            ledger.quarantine(0, "nope")
        ledger.quarantine(1, "partial write")
        with pytest.raises(LedgerError, match="reopen it explicitly"):
            ledger.adopt_done(1)
        ledger.reopen(1)
        assert ledger.row(1).state == OPEN


class TestLedgerProperties:
    """Random operation sequences keep the ledger consistent and durable."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_state_machine_invariants(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4), label="rows")
        max_attempts = data.draw(st.integers(min_value=1, max_value=3), label="max_attempts")
        ops = data.draw(st.integers(min_value=1, max_value=25), label="ops")
        with tempfile.TemporaryDirectory() as tmp:
            config = LedgerConfig(max_attempts=max_attempts, backoff_base=1.0, backoff_cap=4.0)
            ledger = Ledger.create(
                Path(tmp) / "l.json", [f"s{i}" for i in range(n)], config=config
            )
            clock = 0.0
            attempts_before = {row.index: 0 for row in ledger.rows}
            for _ in range(ops):
                clock += data.draw(
                    st.floats(min_value=0.0, max_value=3.0, allow_nan=False), label="dt"
                )
                op = data.draw(
                    st.sampled_from(["claim", "done", "fail", "heartbeat", "recover"]),
                    label="op",
                )
                worker = data.draw(st.sampled_from(["w1", "w2"]), label="worker")
                index = data.draw(st.integers(min_value=0, max_value=n - 1), label="index")
                snapshot = {r.index: (r.state, r.attempts, r.worker) for r in ledger.rows}
                try:
                    if op == "claim":
                        lease = data.draw(
                            st.floats(min_value=0.5, max_value=5.0), label="lease"
                        )
                        row = ledger.claim(worker, now=clock, lease=lease)
                        if row is not None:
                            assert row.state == BUSY and row.worker == worker
                            before_state, _, _ = snapshot[row.index]
                            assert before_state in (OPEN, FAILED, BUSY)
                    elif op == "done":
                        ledger.mark_done(index, worker=worker, now=clock)
                        assert ledger.row(index).state == DONE
                    elif op == "fail":
                        row = ledger.mark_failed(index, "x", worker=worker, now=clock)
                        assert row.attempts == snapshot[index][1] + 1
                        assert row.state == (
                            QUARANTINED if row.attempts >= max_attempts else FAILED
                        )
                        if row.state == FAILED:
                            assert row.not_before > clock  # backoff is real
                    elif op == "heartbeat":
                        ledger.heartbeat(index, worker, now=clock)
                        assert ledger.row(index).state == BUSY
                    elif op == "recover":
                        ledger.recover_busy(now=clock)
                        assert not any(r.state == BUSY for r in ledger.rows)
                except LedgerError:
                    # A rejected transition must not have changed anything.
                    assert snapshot == {
                        r.index: (r.state, r.attempts, r.worker) for r in ledger.rows
                    }
                # Global invariants, after every operation.
                for row in ledger.rows:
                    assert row.state in (OPEN, BUSY, DONE, FAILED, QUARANTINED)
                    assert row.attempts >= attempts_before[row.index]
                    attempts_before[row.index] = row.attempts
                    if row.state == QUARANTINED:
                        assert row.attempts >= 1
                    if snapshot[row.index][0] == DONE:
                        assert row.state == DONE  # done is terminal
                assert sum(ledger.counts().values()) == n
                # Durability: the file always holds exactly the live state.
                reloaded = Ledger.open(ledger.path)
                assert [
                    (r.index, r.state, r.attempts, r.worker) for r in reloaded.rows
                ] == [(r.index, r.state, r.attempts, r.worker) for r in ledger.rows]


# -- crash-recovery parity -----------------------------------------------------


class InterruptAfter:
    """Patch a ledger's mark_done to hard-interrupt after ``n`` completions,
    simulating a run that dies between items."""

    def __init__(self, ledger: Ledger, n: int) -> None:
        self.remaining = n
        self._original = ledger.mark_done
        ledger.mark_done = self  # type: ignore[method-assign]

    def __call__(self, index, **kwargs):
        self._original(index, **kwargs)
        self.remaining -= 1
        if self.remaining == 0:
            raise KeyboardInterrupt("simulated crash between items")


class TestCrashRecoveryParity:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_interrupted_resume_is_bit_identical(
        self, backend, feature_builder, corpus_clips, reference, tmp_path
    ):
        ref_results, ref_reader = reference
        ledger = Ledger.create(
            tmp_path / "run.json", clip_sources(corpus_clips), config=FAST_RETRY
        )
        store = tmp_path / "run.store"
        InterruptAfter(ledger, 1)
        with pytest.raises(KeyboardInterrupt):
            run_corpus(
                feature_builder, corpus_clips, ledger,
                backend=backend, workers=2, store=store,
            )
        crashed = Ledger.open(tmp_path / "run.json")
        done = [row.index for row in crashed.rows if row.state == DONE]
        assert done == [0]
        if backend != "serial":
            # The parallel backends had claimed item 1 when the run died.
            assert crashed.row(1).state == BUSY

        # Resume from the file alone — no state survives but the disk.
        results = run_corpus(
            feature_builder, corpus_clips, tmp_path / "run.json",
            backend=backend, workers=2, store=store,
        )
        final = Ledger.open(tmp_path / "run.json")
        assert final.all_settled() and not final.quarantined()
        # The interrupted item was charged its one attempt; the persisted
        # item was recovered from the store, not re-run.
        assert final.row(0).attempts == 0
        assert all(row.attempts <= final.config.max_attempts for row in final.rows)
        assert_results_equal(ref_results, results)
        assert_store_contents_equal(ref_reader, store)

    def test_hard_killed_run_resumes(self, feature_builder, corpus_clips, tmp_path):
        """A run killed via os._exit (no cleanup, no flush — equivalent to
        SIGKILL) resumes to bit-identical output."""
        clip_dir = tmp_path / "wavs"
        clip_dir.mkdir()
        for i, clip in enumerate(corpus_clips):
            write_wav(clip_dir / f"clip-{i}.wav", clip.samples, clip.sample_rate)
        script = f"""
import sys
sys.path.insert(0, {str(Path.cwd() / 'src')!r})
import os
from pathlib import Path
from repro.config import FAST_EXTRACTION
from repro.jobs import Ledger, run_corpus
from repro.pipeline import AcousticPipeline

clip_dir = Path({str(clip_dir)!r})
paths = sorted(str(p) for p in clip_dir.glob('*.wav'))
pipe = AcousticPipeline().extract(FAST_EXTRACTION, keep_traces=False).features(use_paa=True)
ledger = Ledger.open({str(tmp_path / 'kill.json')!r})
original = ledger.mark_done
def die_after_two(index, **kwargs):
    original(index, **kwargs)
    if sum(1 for row in ledger.rows if row.state == 'done') >= 2:
        os._exit(137)  # hard kill: no finally blocks, no writer close
ledger.mark_done = die_after_two
run_corpus(pipe, paths, ledger, store={str(tmp_path / 'kill.store')!r})
"""
        paths = sorted(str(p) for p in clip_dir.glob("*.wav"))
        # The WAV round-trip quantises samples, so the parity reference must
        # come from the same files, not the in-memory clips.
        ref_results = feature_builder.build().run_corpus(paths, store=tmp_path / "ref.store")
        ref_reader = StoreReader(tmp_path / "ref.store")
        Ledger.create(tmp_path / "kill.json", paths, config=FAST_RETRY)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=240
        )
        assert proc.returncode == 137, proc.stderr
        crashed = Ledger.open(tmp_path / "kill.json")
        assert sum(1 for row in crashed.rows if row.state == DONE) == 2

        pipe = (
            AcousticPipeline().extract(FAST_EXTRACTION, keep_traces=False).features(use_paa=True)
        )
        results = pipe.build().run_corpus(
            paths, ledger=tmp_path / "kill.json", store=tmp_path / "kill.store"
        )
        assert Ledger.open(tmp_path / "kill.json").all_settled()
        assert_results_equal(ref_results, results)
        assert_store_contents_equal(ref_reader, tmp_path / "kill.store")

    def test_resume_without_store_reruns_done_rows(
        self, feature_builder, corpus_clips, reference, tmp_path
    ):
        """Without a store there is nowhere to recover results from, so a
        resumed run honestly re-runs `done` rows instead of inventing them."""
        ref_results, _ = reference
        ledger = Ledger.create(
            tmp_path / "l.json", clip_sources(corpus_clips), config=FAST_RETRY
        )
        InterruptAfter(ledger, 2)
        with pytest.raises(KeyboardInterrupt):
            run_corpus(feature_builder, corpus_clips, ledger)
        results = run_corpus(feature_builder, corpus_clips, tmp_path / "l.json")
        assert_results_equal(ref_results, results)


class TestStageGraphReuse:
    def test_thread_backend_builds_one_graph_per_worker(
        self, feature_builder, corpus_clips, reference, tmp_path, monkeypatch
    ):
        """The worker pool and its stage graphs span every claim round."""
        builds = []
        build = AcousticPipeline.build
        monkeypatch.setattr(
            AcousticPipeline, "build", lambda self: builds.append(1) or build(self)
        )
        results = run_corpus(
            feature_builder, corpus_clips * 2, tmp_path / "l.json", backend="thread", workers=2
        )
        assert_results_equal(reference[0] * 2, results)
        assert 1 <= len(builds) <= 2


# -- persist discipline --------------------------------------------------------


class FlakyWriter(StoreWriter):
    """A writer whose flush fails once at a chosen item (simulated full disk)."""

    def __init__(self, path, fail_on_flush: int) -> None:
        super().__init__(path, flush_values=2**62)
        self.fail_on_flush = fail_on_flush
        self.flushes = 0

    def flush(self) -> None:
        self.flushes += 1
        if self.flushes == self.fail_on_flush:
            raise OSError("No space left on device (simulated)")
        super().flush()


class TestPersistDiscipline:
    def test_no_done_without_persist(self, feature_builder, corpus_clips, reference, tmp_path):
        ref_results, ref_reader = reference
        store = tmp_path / "flaky.store"
        writer = FlakyWriter(store, fail_on_flush=2)
        ledger = Ledger.create(
            tmp_path / "l.json", clip_sources(corpus_clips), config=FAST_RETRY
        )
        with pytest.raises(CorpusExecutionError, match="failed to persist"):
            run_corpus(feature_builder, corpus_clips, ledger, store=writer)
        crashed = Ledger.open(tmp_path / "l.json")
        # Item 0 persisted and completed; item 1 hit the disk error: failed,
        # never done — `done` means durable, full stop.
        assert crashed.row(0).state == DONE
        assert crashed.row(1).state == FAILED
        assert "persist failed" in crashed.row(1).error
        # Nothing partial leaked into the store for the failed item.
        reader = StoreReader(store)
        assert reader.recordings() == ["rec-00000"]
        # Resume with a healthy writer completes to bit-identical output.
        results = run_corpus(
            feature_builder, corpus_clips, tmp_path / "l.json", store=store
        )
        assert_results_equal(ref_results, results)
        assert_store_contents_equal(ref_reader, store)

    def test_partial_recording_quarantines_not_duplicates(
        self, feature_builder, corpus_clips, tmp_path
    ):
        """A store holding a *partial* write for a pending row (foreign
        writer, mid-item flush) cannot be appended to safely — the runner
        quarantines that item instead of duplicating its rows."""
        store = tmp_path / "partial.store"
        writer = StoreWriter(store)
        writer.begin_recording("rec-00001", sample_rate=16000)
        writer.open_ensemble("rec-00001", 0, 0, sample_rate=16000)
        writer.append_audio("rec-00001", 0, 0, np.zeros(8))
        writer.close_ensemble("rec-00001", 0, 8, n_patterns=-1)
        writer.flush()  # durable rows, but the recording never completed
        ledger = Ledger.create(
            tmp_path / "l.json", clip_sources(corpus_clips), config=FAST_RETRY
        )
        results = run_corpus(feature_builder, corpus_clips, ledger, store=store)
        final = Ledger.open(tmp_path / "l.json")
        assert final.row(1).state == QUARANTINED
        assert "partial write" in final.row(1).error
        assert results[1] is None
        assert results[0] is not None and results[2] is not None
        # The partial recording was not appended to again.
        rows = list(StoreReader(store).iter_ensembles(recording="rec-00001"))
        assert len(rows) == 1


# -- quarantine instead of abort -----------------------------------------------


class TestQuarantine:
    def test_poison_item_quarantines_run_completes(
        self, feature_builder, corpus_clips, tmp_path
    ):
        corpus = list(corpus_clips)
        corpus.insert(1, str(tmp_path / "missing.wav"))  # unreadable source
        config = LedgerConfig(max_attempts=2, backoff_base=0.0)
        results = run_corpus(
            feature_builder, corpus, tmp_path / "l.json",
            store=tmp_path / "q.store", config=config,
        )
        final = Ledger.open(tmp_path / "l.json")
        assert final.row(1).state == QUARANTINED
        assert final.row(1).attempts == 2  # retried exactly max_attempts times
        assert results[1] is None
        assert [r is not None for r in results] == [True, False, True, True]
        assert final.all_settled()
        # The healthy items' recordings are all present and complete.
        reader = StoreReader(tmp_path / "q.store")
        assert reader.recordings() == ["rec-00000", "rec-00002", "rec-00003"]

    def test_status_cli_flags_quarantine(self, tmp_path, capsys):
        ledger = Ledger.create(tmp_path / "l.json", ["a", "b"], config=FAST_RETRY)
        assert jobs_cli(["status", str(tmp_path / "l.json")]) == 0
        ledger.quarantine(1, "poison")
        assert jobs_cli(["status", str(tmp_path / "l.json")]) == 1
        out = capsys.readouterr().out
        assert "quarantined" in out and "poison" in out


# -- entry points and guards ---------------------------------------------------


class TestEntryPoints:
    def test_builder_and_built_passthrough(self, feature_builder, corpus_clips, reference, tmp_path):
        ref_results, _ = reference
        results = feature_builder.run_corpus(corpus_clips, ledger=tmp_path / "a.json")
        assert_results_equal(ref_results, results)
        results = feature_builder.build().run_corpus(
            corpus_clips, ledger=tmp_path / "b.json", backend="thread", workers=2
        )
        assert_results_equal(ref_results, results)

    def test_ledger_with_from_store_rejected(self, feature_builder, tmp_path):
        with pytest.raises(PipelineBuildError, match="ledger="):
            feature_builder.build().run_corpus(
                from_store=tmp_path / "s", ledger=tmp_path / "l.json"
            )

    def test_store_stage_rejected(self, corpus_clips, tmp_path):
        pipe = (
            AcousticPipeline()
            .extract(FAST_EXTRACTION, keep_traces=False)
            .stage("store", path=tmp_path / "s.store")
        )
        with pytest.raises(PipelineBuildError, match="in-graph 'store' stage"):
            run_corpus(pipe, corpus_clips, tmp_path / "l.json")

    def test_empty_corpus(self, feature_builder, tmp_path):
        assert run_corpus(feature_builder, [], tmp_path / "l.json") == []

    def test_experiment_driver_passthrough(self, experiment_data, tmp_path):
        from repro.experiments.datasets import TEST_SCALE, build_experiment_data

        plain = experiment_data
        ledgered = build_experiment_data(TEST_SCALE, ledger=tmp_path / "exp.json")
        assert Ledger.open(tmp_path / "exp.json").all_settled()
        assert len(ledgered.ensembles) == len(plain.ensembles)
        assert ledgered.total_samples == plain.total_samples
        assert ledgered.retained_samples == plain.retained_samples


# -- control plane + workers ---------------------------------------------------


@pytest.fixture()
def wav_corpus(corpus_clips, tmp_path):
    paths = []
    for i, clip in enumerate(corpus_clips):
        path = tmp_path / f"clip-{i}.wav"
        write_wav(path, clip.samples, clip.sample_rate)
        paths.append(str(path))
    return paths


class TestControlPlane:
    def test_two_workers_drain_one_ledger(self, wav_corpus, feature_builder, tmp_path):
        ledger = Ledger.create(tmp_path / "l.json", wav_corpus, config=FAST_RETRY)
        with LedgerService(ledger) as service:
            workers = [
                JobWorker(
                    service.url,
                    feature_builder,
                    store=tmp_path / f"w{i}.store",
                    worker_id=f"w{i}",
                )
                for i in range(2)
            ]
            threads = [threading.Thread(target=w.run) for w in workers]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
        final = Ledger.open(tmp_path / "l.json")
        assert final.all_settled() and not final.quarantined()
        assert sum(w.completed for w in workers) == len(wav_corpus)
        # Every recording landed, complete, in exactly one worker's store.
        feature_builder.build().run_corpus(wav_corpus, store=tmp_path / "ref.store")
        ref_reader = StoreReader(tmp_path / "ref.store")
        seen = {}
        for i in range(2):
            reader = StoreReader(tmp_path / f"w{i}.store")
            for name in reader.recordings():
                assert name not in seen
                seen[name] = reader
        assert sorted(seen) == ref_reader.recordings()
        for name, reader in seen.items():
            ref_rows = list(ref_reader.iter_ensembles(recording=name))
            rows = list(reader.iter_ensembles(recording=name))
            assert len(rows) == len(ref_rows)
            for a, b in zip(ref_rows, rows):
                np.testing.assert_array_equal(a.ensemble.samples, b.ensemble.samples)
                for u, v in zip(a.patterns, b.patterns):
                    np.testing.assert_array_equal(u, v)

    def test_dead_worker_lease_lapses(self, wav_corpus, feature_builder, tmp_path):
        config = LedgerConfig(max_attempts=3, backoff_base=0.0, lease=0.3)
        ledger = Ledger.create(tmp_path / "l.json", wav_corpus, config=config)
        with LedgerService(ledger) as service:
            # A "worker" claims item 0 and dies silently: no heartbeat, no report.
            reply = _post(service.url, "/claim", {"worker": "zombie", "lease": 0.3})
            assert reply["item"]["index"] == 0
            time.sleep(0.4)
            # A live worker drains everything, including the lapsed row.
            worker = JobWorker(service.url, feature_builder, worker_id="live")
            worker.run()
            # The zombie's late report is rejected, not double-counted.
            status = urllib.request.urlopen(service.url + "/status").read()
            assert json.loads(status)["settled"]
            try:
                _post(service.url, "/done", {"worker": "zombie", "index": 0})
                rejected = False
            except urllib.error.HTTPError as exc:
                rejected = exc.code == 409
            assert rejected
        final = Ledger.open(tmp_path / "l.json")
        assert final.all_settled()
        assert final.row(0).attempts == 1  # the lapse was charged

    def test_malformed_requests_rejected(self, tmp_path):
        ledger = Ledger.create(tmp_path / "l.json", ["a"], config=FAST_RETRY)
        with LedgerService(ledger) as service:
            for path, body, code in (
                ("/claim", b"not json", 400),
                ("/claim", b"{}", 400),  # missing worker
                ("/nope", b"{}", 404),
                ("/done", b'{"worker": "w", "index": 0}', 409),  # not busy
            ):
                request = urllib.request.Request(
                    service.url + path, data=body, method="POST"
                )
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(request)
                assert err.value.code == code

    def test_cli_init_and_work(self, wav_corpus, tmp_path, capsys):
        wav_dir = Path(wav_corpus[0]).parent
        assert jobs_cli(["init", str(tmp_path / "cli.json"), str(wav_dir)]) == 0
        ledger = Ledger.open(tmp_path / "cli.json")
        assert [row.source for row in ledger.rows] == sorted(wav_corpus)
        with LedgerService(ledger) as service:
            code = jobs_cli(
                [
                    "work",
                    "--url",
                    service.url,
                    "--store",
                    str(tmp_path / "cli.store"),
                    "--features",
                ]
            )
        assert code == 0
        assert Ledger.open(tmp_path / "cli.json").all_settled()
        reader = StoreReader(tmp_path / "cli.store")
        assert len(reader.recordings()) == len(wav_corpus)
        assert jobs_cli(["status", str(tmp_path / "cli.json")]) == 0


def _post(url: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


# -- one item lifecycle --------------------------------------------------------


class FullDiskWriter(StoreWriter):
    """A writer on a full disk: every flush fails before writing a byte."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self.flushes = 0

    def flush(self) -> None:
        self.flushes += 1
        raise OSError(28, "No space left on device")


class TestOneItemLifecycle:
    """Every spent attempt, every outcome report and every failed persist
    follows one rule, whichever drain or path it comes through."""

    def test_worker_full_disk_stops_like_the_runner(self, wav_corpus, feature_builder, tmp_path):
        config = LedgerConfig(max_attempts=2, backoff_base=0.0, backoff_cap=0.0)
        ledger = Ledger.create(tmp_path / "l.json", wav_corpus, config=config)
        store = tmp_path / "full.store"
        writer = FullDiskWriter(store)
        with LedgerService(ledger) as service:
            worker = JobWorker(service.url, feature_builder, store=writer, worker_id="w")
            with pytest.raises(WorkerError, match="No space left on device"):
                worker.run()
        final = Ledger.open(tmp_path / "l.json")
        row = final.row(0)
        assert (row.state, row.attempts) == (FAILED, 1)
        assert row.error.startswith("persist failed: OSError")
        assert "No space left on device" in row.error
        assert [r.state for r in final.rows[1:]] == [OPEN] * (len(wav_corpus) - 1)
        # Nothing more was flushed from the writer after its failed persist.
        assert writer.flushes == 1
        assert not (store / "manifest.json").exists()
        assert not any((store / "shards").iterdir())

    def test_stale_fail_report_on_a_lapsed_row_is_refused(self, tmp_path):
        config = LedgerConfig(max_attempts=3, backoff_base=5.0, lease=10.0)
        ledger = Ledger.create(tmp_path / "l.json", ["a", "b"], config=config)
        ledger.claim("C", now=0.0)
        ledger.claim("A", now=0.0)
        assert ledger.claim("B", now=30.0).index == 0  # both leases lapsed
        before = dict(vars(ledger.row(1)))
        assert (before["state"], before["attempts"]) == (OPEN, 1)
        with pytest.raises(LedgerError, match="only a claimed"):
            ledger.mark_failed(1, "late", worker="A", now=31.0)
        assert vars(ledger.row(1)) == before
        assert vars(Ledger.open(ledger.path).row(1)) == before

    def test_stale_fail_over_http_is_409(self, tmp_path):
        config = LedgerConfig(max_attempts=3, backoff_base=0.0, lease=0.05)
        ledger = Ledger.create(tmp_path / "l.json", ["a", "b"], config=config)
        with LedgerService(ledger) as service:
            _post(service.url, "/claim", {"worker": "C"})
            assert _post(service.url, "/claim", {"worker": "A"})["item"]["index"] == 1
            time.sleep(0.1)
            assert _post(service.url, "/claim", {"worker": "B"})["item"]["index"] == 0
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(service.url, "/fail", {"worker": "A", "index": 1, "error": "late"})
            assert err.value.code == 409
        row = Ledger.open(tmp_path / "l.json").row(1)
        assert (row.state, row.attempts) == (OPEN, 1)

    def test_recover_busy_quarantine_records_its_own_reason(self, tmp_path):
        config = LedgerConfig(max_attempts=2, backoff_base=0.0, backoff_cap=0.0)
        ledger = Ledger.create(tmp_path / "l.json", ["a"], config=config)
        ledger.claim("w", now=0.0)
        ledger.mark_failed(0, "ValueError: boom", worker="w", now=0.0)
        ledger.claim("w", now=1.0)
        (row,) = ledger.recover_busy(now=2.0)
        assert row.state == QUARANTINED
        assert "interrupted" in row.error and "boom" not in row.error

    def test_lease_lapse_quarantine_records_its_own_reason(self, tmp_path):
        config = LedgerConfig(max_attempts=2, backoff_base=0.0, backoff_cap=0.0, lease=5.0)
        ledger = Ledger.create(tmp_path / "l.json", ["a"], config=config)
        ledger.claim("w1", now=0.0)
        ledger.mark_failed(0, "ValueError: boom", worker="w1", now=0.0)
        ledger.claim("w1", now=1.0)
        assert ledger.claim("w2", now=10.0) is None
        row = Ledger.open(ledger.path).row(0)
        assert row.state == QUARANTINED
        assert "lease lapsed" in row.error and "boom" not in row.error
