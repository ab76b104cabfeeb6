"""Seeded load generation and the five end-to-end workloads.

Each workload drives one execution path of the clip -> ensembles -> patterns
-> MESO votes chain so that a different layer does most of the work (see
README.md for why each exists).  The shape is the same everywhere:

* ``setup()`` turns the seed into inputs (the seed is the only source of
  randomness; the program under test only ever sees the generated inputs),
  trains MESO from seeded reference songs and computes the in-process
  reference digest;
* ``run_pass(index)`` runs the fixed-size load once through the path under
  test — a closed loop: the generator hands over the next unit only when the
  previous one has been taken — timing exactly the call into the system, and
  checks the outputs bit for bit *outside* the timed region.

Sizes are constants (``FULL`` / ``QUICK``), never adapted to the box: a run
repeats whole passes until its time is up and reports medians over passes.

This module imports nothing from the tracer: the untraced run never loads it.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import FAST_EXTRACTION, AcousticPipeline, ClipBuilder, MesoClassifier
from repro.jobs import Ledger
from repro.pipeline.results import PipelineResult
from repro.pipeline.river_adapter import collect_result
from repro.river.operators.io_ops import ClipSource
from repro.river.pipeline import Pipeline as RiverPipeline, split_into_segments
from repro.river.records import end_of_stream
from repro.river.transport import ProcessDeployment
from repro.store import StoreReader, StoreWriter
from repro.synth import get_species
from repro.synth.clips import AcousticClip

RATE = FAST_EXTRACTION.sample_rate
#: Samples per streamed chunk: one 32 ms station uplink block at 16 kHz.
CHUNK = 512
#: MESO is trained on (and the clips are mixed from) these species' songs.
SPECIES = ("NOCA", "TUTI", "RWBL", "BCCH")
TRAINING_SONGS = 6


@dataclass(frozen=True)
class Scale:
    """The fixed sizes of one pass of every workload."""

    #: batch_clips / stream_chunks: whole clips per pass.
    clips: int
    clip_s: float
    #: river_ingest / store_sweep: set-up extracts ``base_clips`` clips of
    #: ``base_clip_s`` seconds and tiles their ensembles into a load of
    #: ``load_audio_s`` seconds.  Fixing the clip count keeps set-up time, and
    #: fixing the load's ensemble audio (not the tile count) keeps the load's
    #: size, independent of how many songs a seed's clips yield.
    base_clips: int
    base_clip_s: float
    load_audio_s: float
    #: durable_corpus: single-song items per pass, and how many of them are
    #: re-run through batch ``run()`` for the digest check.
    items: int
    item_s: float
    checked_items: int


#: Sized on a 2-core box so one pass takes 1-3 s at seed speed (several passes
#: fit one run and the medians are steady).
FULL = Scale(clips=4, clip_s=6.0, base_clips=6, base_clip_s=8.0, load_audio_s=300.0,
             items=80, item_s=0.8, checked_items=20)
#: The smoke test's scale: every path exercised, nothing worth timing.
QUICK = Scale(clips=1, clip_s=6.0, base_clips=1, base_clip_s=6.0, load_audio_s=3.0,
              items=5, item_s=0.8, checked_items=3)


# -- load generation -----------------------------------------------------------


def build_spec(meso, emit: str = "ensembles") -> AcousticPipeline:
    """The pipeline every workload runs: extract -> features -> classify."""
    return (
        AcousticPipeline()
        .extract(FAST_EXTRACTION, keep_traces=False, emit=emit)
        .features(use_paa=True)
        .classify(meso)
    )


def train_meso(rng: np.random.Generator) -> MesoClassifier:
    meso = MesoClassifier()
    pipe = build_spec(meso).build()
    for code in SPECIES:
        for _ in range(TRAINING_SONGS):
            for vector in pipe.patterns_for(get_species(code).render(RATE, rng)):
                meso.partial_fit(vector, code)
    return meso


def make_clip(rng: np.random.Generator, index: int, seconds: float) -> AcousticClip:
    """A clip with one song per ~3 s over the synthetic wind/hum/hiss floor."""
    songs = max(1, int(seconds // 3))
    return ClipBuilder(sample_rate=RATE, duration=seconds).build(
        [SPECIES[(index + k) % len(SPECIES)] for k in range(songs)],
        rng,
        station_id=f"station-{index % 4}",
    )


def make_items(rng: np.random.Generator, count: int, seconds: float) -> list[AcousticClip]:
    """Short single-song recordings: the many-small-items corpus shape.

    ``ClipBuilder`` places songs at random, which in a sub-second clip lands
    most of them inside the trigger's settle + warm-up period (0.36 s at
    FAST_EXTRACTION) where nothing can be detected; the song is mixed in
    here just past it so every item yields an ensemble to label and store.
    """
    builder = ClipBuilder(sample_rate=RATE, duration=seconds)
    start = int(0.4 * RATE)
    room = builder.clip_samples - start - 800  # leave the hangover room to close
    items = []
    for index in range(count):
        floor = builder.build([], rng, station_id=f"station-{index % 4}")
        song = get_species(SPECIES[index % len(SPECIES)]).render(RATE, rng)[:room]
        samples = floor.samples.copy()
        samples[start : start + song.size] += 0.9 * song
        items.append(
            AcousticClip(samples=samples, sample_rate=RATE, station_id=floor.station_id)
        )
    return items


# -- digests -------------------------------------------------------------------


def _update_rows(digest, rows) -> None:
    for ensemble, patterns, label in rows:
        digest.update(
            f"{ensemble.start}:{ensemble.end}:{ensemble.sample_rate}:"
            f"{label!r}:{len(patterns)};".encode()
        )
        digest.update(np.ascontiguousarray(ensemble.samples, dtype=np.float64))
        for pattern in patterns:
            digest.update(np.ascontiguousarray(pattern, dtype=np.float64))


def digest_results(results) -> str:
    """sha256 over ensemble bounds + sample bytes + pattern bytes + labels."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(f"|{result.total_samples}|{len(result.ensembles)}|".encode())
        _update_rows(digest, zip(result.ensembles, result.patterns, result.labels))
    return digest.hexdigest()


def digest_arrays(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64))
    return digest.hexdigest()


# -- the workloads -------------------------------------------------------------


@dataclass
class PassResult:
    """One pass through the path under test."""

    #: Wall seconds of the call into the system (nothing else is inside).
    wall_s: float
    #: Every output check passed (digest equality, store verify, ledger done).
    ok: bool
    #: Ensembles labelled (and, where the path persists, stored) by the pass.
    ensembles: int = 0
    #: Per-chunk service times in ms (stream_chunks only).
    chunk_ms: list[float] = field(default_factory=list)
    #: Numbers the pass reads off its own outputs for the per-layer table
    #: (shard counts, bytes, launch time).
    observed: dict[str, float] = field(default_factory=dict)


class Workload:
    """Common state; subclasses fill in ``setup``, ``call`` and ``check``."""

    name = ""
    #: What one operation is, for ``attempted`` / ``failed``.
    unit = ""
    #: The call runs the layers in forked host processes, where the traced
    #: run's wrappers cannot record.
    forks_hosts = False

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        self.scale = scale
        self.workdir = Path(workdir)
        self.rng = np.random.default_rng(seed)
        #: Filled in by ``setup``: operations and audio seconds per pass, the
        #: digest of the generated inputs and of the reference outputs.
        self.ops = 0
        self.audio_s = 0.0
        self.inputs_sha256 = ""
        self.reference = ""

    def setup(self) -> None:
        """Generate the inputs, train MESO, compute the reference digest."""
        raise NotImplementedError

    def call(self):
        """The timed region: one call into the path under test."""
        raise NotImplementedError

    def check(self, outputs) -> PassResult:
        """Verify ``outputs`` (``wall_s`` is filled in by :func:`run_pass`)."""
        raise NotImplementedError

    def _scratch(self, name: str) -> Path:
        """A fresh path under the workdir (whatever was there is removed)."""
        path = self.workdir / name
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
        return path


def run_pass(workload: Workload, around=nullcontext()) -> PassResult:
    """One timed call plus its checks; ``around`` (the traced run's wrapper
    installer) is entered before the clock starts and left before the checks
    run, so neither tracing set-up nor verification is ever timed or traced."""
    with around:
        start = time.perf_counter()
        outputs = workload.call()
        wall = time.perf_counter() - start
    result = workload.check(outputs)
    result.wall_s = wall
    return result


class BatchClips(Workload):
    name = "batch_clips"
    unit = "clips"

    def setup(self) -> None:
        self.meso = train_meso(self.rng)
        self.clips = [make_clip(self.rng, i, self.scale.clip_s) for i in range(self.scale.clips)]
        self.inputs_sha256 = digest_arrays(clip.samples for clip in self.clips)
        self.pipe = build_spec(self.meso).build()
        # The reference every audio-fed path must match: in-process batch
        # run() on a pipeline of its own.
        reference_pipe = build_spec(self.meso).build()
        self.reference = digest_results(reference_pipe.run(clip) for clip in self.clips)
        self.audio_s = sum(clip.samples.size for clip in self.clips) / RATE
        self.ops = len(self.clips)

    def call(self):
        return [self.pipe.run(clip) for clip in self.clips]

    def check(self, results) -> PassResult:
        return PassResult(
            0.0,
            digest_results(results) == self.reference,
            ensembles=sum(len(result.ensembles) for result in results),
        )


class StreamChunks(BatchClips):
    name = "stream_chunks"
    unit = "chunks"

    def setup(self) -> None:
        super().setup()
        self.pipe = build_spec(self.meso, emit="fragments").build()
        self.ops = sum(-(-clip.samples.size // CHUNK) for clip in self.clips)

    @staticmethod
    def _chunks(samples: np.ndarray, stamps: list[float]):
        # A stamp per pull: the gap between two successive pulls is the time
        # the system spent serving the chunk handed over at the first.
        for start in range(0, samples.size, CHUNK):
            stamps.append(time.perf_counter())
            yield samples[start : start + CHUNK]
        stamps.append(time.perf_counter())

    def call(self):
        self.stamps: list[list[float]] = [[] for _ in self.clips]
        results = []
        for clip, stamps in zip(self.clips, self.stamps):
            events = list(self.pipe.extract_stream(self._chunks(clip.samples, stamps), RATE))
            results.append(PipelineResult.from_events(events, RATE, clip.samples.size))
        return results

    def check(self, results) -> PassResult:
        result = super().check(results)
        gaps = np.concatenate([np.diff(stamps) for stamps in self.stamps])
        result.chunk_ms = (gaps * 1000.0).tolist()
        return result


class _EnsembleFed(Workload):
    """Shared set-up of the two workloads that bypass extraction: a base
    corpus is extracted once and its ensembles are tiled into the load."""

    def _train(self) -> None:
        self.meso = train_meso(self.rng)
        self.spec = build_spec(self.meso)

    def _base_corpus(self, extract) -> list:
        """Generate ``base_clips`` clips (more only while none has yielded an
        ensemble) and ``extract`` each (-> what the workload keeps of it, its
        ensembles); returns what was kept, per clip.  The audio a pass
        consumes is the ensembles' own: what a station would have shipped."""
        kept, samples = [], 0
        while len(kept) < self.scale.base_clips or not samples:
            keep, ensembles = extract(make_clip(self.rng, len(kept), self.scale.base_clip_s))
            samples += sum(ensemble.samples.size for ensemble in ensembles)
            kept.append(keep)
        self.tiles = max(1, round(self.scale.load_audio_s * RATE / samples))
        self.audio_s = self.tiles * samples / RATE
        return kept


class RiverIngest(_EnsembleFed):
    name = "river_ingest"
    unit = "ensembles"
    forks_hosts = True
    #: A wedged fabric must fail the run well inside the driver's time limit.
    STALL_TIMEOUT = 20.0

    def setup(self) -> None:
        self._train()

        # What a station ships: the extract operator's own record stream
        # (clip scopes holding pre-cut ensemble scopes), captured per clip ...
        def extract(clip):
            operator = self.spec.to_river().operators[0]
            records = RiverPipeline([operator]).run(ClipSource([clip]).generate())[:-1]
            return records, collect_result(records, RATE).ensembles

        body = [record for records in self._base_corpus(extract) for record in records]
        # ... labelled by the in-process river pipeline for the reference ...
        labelled = RiverPipeline(self.spec.to_river().operators[1:]).run(
            body + [end_of_stream(len(body))]
        )
        base = collect_result(labelled, RATE)
        tiles = self.tiles
        self.reference = digest_results(
            [
                PipelineResult(
                    sample_rate=RATE,
                    total_samples=base.total_samples * tiles,
                    ensembles=base.ensembles * tiles,
                    patterns=base.patterns * tiles,
                    labels=base.labels * tiles,
                )
            ]
        )
        # ... and tiled into the load (records are only ever read).
        self.records = body * tiles + [end_of_stream(len(body) * tiles)]
        self.ops = len(base.ensembles) * tiles
        self.inputs_sha256 = digest_arrays(
            record.payload for record in body if record.payload is not None
        )

    def call(self):
        first_output: list[float] = []

        def on_output(record) -> None:
            if not first_output:
                first_output.append(time.perf_counter())

        start = time.perf_counter()
        # features + classify: two segments of a linear graph, one host each.
        segments = split_into_segments(self.spec.to_river())[1:]
        deployment = ProcessDeployment(
            segments,
            {segment.name: f"host-{i}" for i, segment in enumerate(segments)},
            stall_timeout=self.STALL_TIMEOUT,
        )
        outputs = deployment.run(iter(self.records), on_output=on_output)
        collecting = time.perf_counter()
        result = collect_result(outputs, RATE)
        observed = {
            "river.transport.launch_s": first_output[0] - start,
            "river.adapter.collect_s": time.perf_counter() - collecting,
        }
        return result, observed

    def check(self, outputs) -> PassResult:
        result, observed = outputs
        return PassResult(
            0.0,
            digest_results([result]) == self.reference,
            ensembles=len(result.ensembles),
            observed=observed,
        )


class StoreSweep(_EnsembleFed):
    name = "store_sweep"
    unit = "ensembles"

    def setup(self) -> None:
        self._train()
        self.pipe = self.spec.build()

        def extract(clip):
            result = self.pipe.run(clip)
            return (clip, result), result.ensembles

        base = self._base_corpus(extract)
        # Store A holds the raw (pattern-less) ensembles a station shipped.
        self.source = self._scratch("store-a")
        self.names = []
        with StoreWriter(self.source) as writer:
            for tile in range(self.tiles):
                for index, (clip, result) in enumerate(base):
                    self.names.append(f"rec-{tile:04d}-{index:02d}")
                    writer.write_ensembles(
                        self.names[-1],
                        result.ensembles,
                        sample_rate=RATE,
                        total_samples=clip.samples.size,
                        station=clip.station_id,
                    )
        results = [result for _, result in base]
        self.reference = digest_results(results * self.tiles)
        self.ops = self.tiles * sum(len(result.ensembles) for result in results)
        self.inputs_sha256 = digest_arrays(
            ensemble.samples for result in results for ensemble in result.ensembles
        )

    def call(self):
        self.target = self._scratch("store-b")
        return self.pipe.run_corpus(from_store=self.source, store=self.target)

    def check(self, results) -> PassResult:
        reader = StoreReader(self.target)
        ok = (
            digest_results(results) == self.reference
            and reader.verify() == []
            and reader.recordings() == self.names
            and digest_results(reader.result(name) for name in self.names) == self.reference
        )
        observed = _store_footprint(self.target)
        shutil.rmtree(self.target)
        return PassResult(
            0.0, ok, ensembles=sum(len(r.ensembles) for r in results), observed=observed
        )


class DurableCorpus(Workload):
    name = "durable_corpus"
    unit = "items"

    def setup(self) -> None:
        self.meso = train_meso(self.rng)
        self.spec = build_spec(self.meso)
        self.items = make_items(self.rng, self.scale.items, self.scale.item_s)
        self.inputs_sha256 = digest_arrays(item.samples for item in self.items)
        step = max(1, len(self.items) // self.scale.checked_items)
        self.checked = list(range(0, len(self.items), step))[: self.scale.checked_items]
        pipe = self.spec.build()
        self.reference = digest_results(pipe.run(self.items[i]) for i in self.checked)
        self.audio_s = sum(item.samples.size for item in self.items) / RATE
        self.ops = len(self.items)

    def call(self):
        self.ledger = self._scratch("ledger.json")
        self.store = self._scratch("store-s")
        return self.spec.run_corpus(
            self.items, ledger=self.ledger, store=self.store, backend="serial"
        )

    def check(self, results) -> PassResult:
        reader = StoreReader(self.store)
        ok = (
            all(result is not None for result in results)
            and Ledger.open(self.ledger).counts()["done"] == len(self.items)
            and digest_results(results[i] for i in self.checked) == self.reference
            and reader.verify() == []
            and digest_results(reader.result(f"rec-{i:05d}") for i in range(len(results)))
            == digest_results(results)
        )
        observed = _store_footprint(self.store)
        shutil.rmtree(self.store)
        self.ledger.unlink()
        return PassResult(
            0.0,
            ok,
            ensembles=sum(len(r.ensembles) for r in results if r is not None),
            observed=observed,
        )


def _store_footprint(path: Path) -> dict[str, float]:
    shards = list((path / "shards").iterdir())
    return {
        "store.shards": float(len(shards)),
        "store.bytes": float(sum(shard.stat().st_size for shard in shards)),
    }


WORKLOADS = {
    cls.name: cls
    for cls in (BatchClips, StreamChunks, RiverIngest, StoreSweep, DurableCorpus)
}
