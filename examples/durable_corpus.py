#!/usr/bin/env python
"""Durable corpus runs: a ledgered extraction that survives being killed.

A season of field recordings takes hours to extract; the machine doing it
will eventually lose power, hit a full disk, or meet an unreadable WAV.
The job layer (``repro.jobs``) makes that survivable.  This walkthrough:

1. synthesises a small WAV corpus,
2. starts a ledgered extraction and KILLS it mid-run,
3. resumes from the ledger file alone — completed items come back from
   the store without re-extraction, and the merged output is
   bit-identical to a never-interrupted run,
4. poisons one corpus item and shows retry → quarantine (the run
   completes; the bad item is named, not fatal),
5. serves the ledger over HTTP and drains it with two pull-based
   workers, then checks health with the CLI.

Run with:  python examples/durable_corpus.py
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

import numpy as np

from repro import AcousticPipeline, FAST_EXTRACTION
from repro.dsp.wav import write_wav
from repro.jobs import JobWorker, Ledger, LedgerConfig, LedgerService
from repro.jobs.__main__ import main as jobs_cli
from repro.store import StoreReader
from repro.synth import ClipBuilder


def build_wav_corpus(workdir: Path) -> list[str]:
    """Six 4-second clips, two species each, written as WAV files."""
    wav_dir = workdir / "recordings"
    wav_dir.mkdir()
    rng = np.random.default_rng(11)
    builder = ClipBuilder(sample_rate=16000, duration=4.0)
    for i in range(6):
        clip = builder.build(["NOCA", "TUTI"], rng, songs_per_species=1)
        write_wav(wav_dir / f"clip-{i}.wav", clip.samples, clip.sample_rate)
    return sorted(str(p) for p in wav_dir.glob("*.wav"))


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-jobs-"))
    paths = build_wav_corpus(workdir)
    pipe = AcousticPipeline().extract(FAST_EXTRACTION, keep_traces=False).features(use_paa=True)
    print(f"corpus: {len(paths)} WAV files under {workdir}")

    # 1. The reference: one uninterrupted run (in real use you never need
    #    this — it exists here only to prove bit-identity at the end).
    reference = pipe.build().run_corpus(paths, store=workdir / "reference.store")

    # 2. A ledgered run that dies after two items.  The ledger is a JSON-lines
    #    journal, one line appended per state transition: one row per corpus
    #    item, open -> busy -> done/failed -> quarantined.
    ledger_path = workdir / "survey.ledger"
    ledger = Ledger.open_or_create(ledger_path, sources=paths)
    completions = 0
    original_mark_done = ledger.mark_done

    def die_after_two(index, **kwargs):
        nonlocal completions
        original_mark_done(index, **kwargs)
        completions += 1
        if completions == 2:
            raise KeyboardInterrupt("simulated power loss")

    ledger.mark_done = die_after_two  # type: ignore[method-assign]
    try:
        pipe.run_corpus(paths, ledger=ledger, store=workdir / "survey.store")
    except KeyboardInterrupt:
        print("\nrun killed mid-corpus; ledger state on disk:")
    jobs_cli(["status", str(ledger_path)])

    # 3. Resume from the file alone: `done` rows are recovered from the
    #    store (never re-extracted), the rest re-dispatched.
    results = pipe.run_corpus(paths, ledger=ledger_path, store=workdir / "survey.store")
    identical = all(
        len(a.ensembles) == len(b.ensembles)
        and all(
            np.array_equal(ea.samples, eb.samples)
            for ea, eb in zip(a.ensembles, b.ensembles)
        )
        for a, b in zip(reference, results)
    )
    print(f"\nresumed: {sum(len(r.ensembles) for r in results)} ensembles, "
          f"bit-identical to the uninterrupted run: {identical}")

    # 4. Poison one item: a source that cannot be read.  The ledger retries
    #    it (exponential backoff) and quarantines after max_attempts; the
    #    other items complete and the bad one is named, not fatal.
    poisoned = list(paths)
    poisoned[2] = str(workdir / "corrupt-station-dropout.wav")  # does not exist
    q_results = pipe.run_corpus(
        poisoned,
        ledger=workdir / "poisoned.ledger",
        store=workdir / "poisoned.store",
        ledger_config=LedgerConfig(max_attempts=2, backoff_base=0.0),
    )
    print(f"\npoisoned run: {sum(r is not None for r in q_results)}/{len(q_results)} "
          "items completed, quarantine report:")
    exit_code = jobs_cli(["status", str(workdir / "poisoned.ledger")])
    print(f"(status exit code {exit_code}: non-zero so cron jobs can alert)")

    # 5. Many machines, one corpus: serve the ledger over HTTP and point
    #    pull-based workers at it.  Workers claim -> run -> persist to
    #    their own store -> report; leases + heartbeats reap dead workers.
    #    (Here the "machines" are two threads; the protocol is the same as
    #    `python -m repro.jobs serve` / `python -m repro.jobs work`.)
    service_ledger = Ledger.create(workdir / "fleet.ledger", paths)
    with LedgerService(service_ledger) as service:
        workers = [
            JobWorker(service.url, pipe, store=workdir / f"worker-{i}.store",
                      worker_id=f"worker-{i}")
            for i in range(2)
        ]
        threads = [threading.Thread(target=w.run) for w in workers]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    for worker in workers:
        reader = StoreReader(workdir / f"{worker.worker_id}.store")
        print(f"{worker.worker_id}: completed {worker.completed} items "
              f"-> {len(reader.recordings())} recordings in its store")
    print("fleet ledger settled:", Ledger.open(workdir / "fleet.ledger").all_settled())


if __name__ == "__main__":
    main()
