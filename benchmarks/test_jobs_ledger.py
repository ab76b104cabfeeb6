"""Job-ledger benchmarks: bookkeeping overhead and resume speed-up.

The ledger buys durability with per-item file I/O — every state
transition appends and fsyncs a journal line, and the store flushes once
per item.  Two promises are locked in here:

* **bounded overhead** — a ledgered corpus run costs at most 50 % wall
  clock over a plain run on *short* clips.  On clips this short the cost is
  real, not a rounding error: whole-file ledger rewrites once took 38 % of
  a traced 80-item ``durable_corpus`` pass, and per-item store flushes
  still take about a quarter of it.  The bound catches a return of
  quadratic bookkeeping; ``tests/test_jobs.py::TestLedgerGrowth`` counts
  the ledger's bytes directly;
* **resume beats re-extraction** — resuming a half-completed ledgered run
  costs visibly less than extracting the full corpus, because ``done``
  items come back from the store instead of the extraction chain.
"""

from __future__ import annotations

import time

import pytest

from repro import FAST_EXTRACTION
from repro.jobs import Ledger, run_corpus
from repro.pipeline import AcousticPipeline
from repro.pipeline.executor import describe_source
from repro.synth.dataset import CorpusSpec, build_corpus


@pytest.fixture(scope="module")
def jobs_corpus():
    """40 short clips — enough items for per-item overhead to show up."""
    return build_corpus(
        CorpusSpec(clips_per_species=4, songs_per_clip=1, clip_duration=2.0,
                   sample_rate=16000, seed=410)
    )


def _pipeline():
    return AcousticPipeline().extract(FAST_EXTRACTION, keep_traces=False).features(use_paa=True)


def test_ledger_overhead_bounded(jobs_corpus, tmp_path):
    pipe = _pipeline()

    start = time.perf_counter()
    plain = pipe.build().run_corpus(jobs_corpus.clips)
    plain_seconds = time.perf_counter() - start

    start = time.perf_counter()
    ledgered = pipe.run_corpus(
        jobs_corpus.clips,
        ledger=tmp_path / "bench.ledger",
        store=tmp_path / "bench.store",
    )
    ledgered_seconds = time.perf_counter() - start

    assert len(ledgered) == len(plain)
    assert all(result is not None for result in ledgered)
    # The ledgered run also persists to a store, so this bound covers
    # ledger bookkeeping AND persistence together.
    assert ledgered_seconds < plain_seconds * 1.5 + 1.0, (
        f"ledgered run took {ledgered_seconds:.2f}s vs plain "
        f"{plain_seconds:.2f}s — bookkeeping overhead out of bounds"
    )
    print(
        f"\nplain {plain_seconds:.2f}s, ledgered+store {ledgered_seconds:.2f}s "
        f"({(ledgered_seconds / plain_seconds - 1) * 100:+.0f}% on 2s clips)"
    )


def test_resume_beats_full_run(jobs_corpus, tmp_path):
    pipe = _pipeline()
    clips = jobs_corpus.clips
    ledger = Ledger.create(
        tmp_path / "resume.ledger", [describe_source(clip) for clip in clips]
    )

    # Run the first half under the ledger, then simulate a crash by just
    # stopping: mark_done is patched to interrupt at the midpoint.
    half = len(clips) // 2
    completions = 0
    original = ledger.mark_done

    def interrupt_at_half(index, **kwargs):
        nonlocal completions
        original(index, **kwargs)
        completions += 1
        if completions == half:
            raise KeyboardInterrupt

    ledger.mark_done = interrupt_at_half  # type: ignore[method-assign]
    with pytest.raises(KeyboardInterrupt):
        run_corpus(pipe, clips, ledger, store=tmp_path / "resume.store")
    ledger.mark_done = original  # type: ignore[method-assign]

    start = time.perf_counter()
    results = run_corpus(
        pipe, clips, tmp_path / "resume.ledger", store=tmp_path / "resume.store"
    )
    resume_seconds = time.perf_counter() - start

    start = time.perf_counter()
    pipe.build().run_corpus(clips)
    full_seconds = time.perf_counter() - start

    assert all(result is not None for result in results)
    assert resume_seconds < full_seconds, (
        f"resuming {len(clips) - half} open items took {resume_seconds:.2f}s, "
        f"not less than the {full_seconds:.2f}s full run — done items were "
        "re-extracted instead of recovered from the store"
    )
    print(
        f"\nresume of {len(clips) - half}/{len(clips)} items {resume_seconds:.2f}s "
        f"vs full run {full_seconds:.2f}s"
    )
