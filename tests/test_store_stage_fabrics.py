"""One store stage on every fabric.

A declared ``"store"`` stage persists what its position in the graph sees,
however the graph runs: in process, compiled into a river run in this
process (with fan-out), on the simulated fabric or on the process fabric.
Each fabric drives the same stage and its one naming and station rule —
the declared ``recording`` / ``station`` win, else the fabric's default — and
a store path takes one writer per run: a second one is refused with a
:class:`~repro.pipeline.PipelineBuildError` naming the path before anything
is written.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.config import FAST_EXTRACTION
from repro.meso import MesoClassifier
from repro.pipeline import AcousticPipeline, PipelineBuildError, run_clips_via_river
from repro.river.transport import transport_available
from repro.store import StoreReader
from repro.store.schema import MANIFEST_NAME, SHARD_DIR
from repro.synth import get_species
from repro.synth.dataset import CorpusSpec, build_corpus

POSITIONS = ("after-extract", "after-features", "tail")
FABRICS = ("river-fan-out", "simulated", "process")


@pytest.fixture(scope="module")
def clips():
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
def meso():
    rng = np.random.default_rng(3)
    classifier = MesoClassifier()
    pipe = AcousticPipeline().extract(FAST_EXTRACTION).features(use_paa=True).build()
    for code in ("NOCA", "BLJA"):
        for _ in range(3):
            for vector in pipe.patterns_for(get_species(code).render(16000, rng)):
                classifier.partial_fit(vector, code)
    return classifier


def chain(meso, emit: str, position: str, **store) -> AcousticPipeline:
    """extract → features → classify with a store stage at ``position``
    (one of :data:`POSITIONS`; anything else declares none)."""
    spec = AcousticPipeline().extract(FAST_EXTRACTION, emit=emit)
    if position == "after-extract":
        spec = spec.stage("store", **store)
    spec = spec.features(use_paa=True)
    if position == "after-features":
        spec = spec.stage("store", **store)
    spec = spec.classify(meso)
    return spec.stage("store", **store) if position == "tail" else spec


def run_on(fabric: str, spec: AcousticPipeline, clips) -> None:
    if fabric == "river-fan-out":
        run_clips_via_river(spec, clips, fan_out=2)
    elif fabric == "process" and not transport_available():
        pytest.skip("process transport unavailable here")
    else:
        spec.deploy(clips, backend=fabric)


def rows(path) -> list[tuple]:
    """Every stored ensemble, column for column."""
    return [
        (
            row.recording, row.station, row.ordinal,
            row.ensemble.start, row.ensemble.end, row.ensemble.sample_rate, row.ensemble.label,
            row.ensemble.samples.tobytes(), row.n_patterns, row.label,
            [pattern.tobytes() for pattern in row.patterns],
        )
        for row in StoreReader(path).iter_ensembles()
    ]


def footprint(path) -> tuple:
    """What a refused write must leave untouched: the manifest and shards."""
    shards = sorted(p.name for p in (path / SHARD_DIR).iterdir())
    return (path / MANIFEST_NAME).read_bytes(), shards


@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("emit", ["ensembles", "fragments"])
@pytest.mark.parametrize("position", POSITIONS)
def test_river_stores_what_the_stage_stores_in_process(
    tmp_path, clips, meso, position, emit, fabric
):
    chain(meso, emit, position, path=str(tmp_path / "serial")).run_corpus(clips)
    run_on(fabric, chain(meso, emit, position, path=str(tmp_path / "river")), clips)
    reference = rows(tmp_path / "serial")
    assert reference and rows(tmp_path / "river") == reference
    n_patterns = {row[8] for row in reference}
    labels = {row[9] for row in reference}
    # The position decides what is stored: no patterns before the features
    # stage, no verdicts before the classify stage.
    assert (n_patterns == {-1}) == (position == "after-extract")
    assert (labels == {None}) == (position != "tail")


@pytest.mark.parametrize("fabric", FABRICS)
def test_declared_recording_and_station_are_honoured_on_the_river(tmp_path, clips, meso, fabric):
    spec = chain(
        meso, "ensembles", "after-features",
        path=str(tmp_path / "s"), recording="survey", station="pole-7",
    )
    run_on(fabric, spec, clips[:1])
    reader = StoreReader(tmp_path / "s")
    assert reader.recordings() == ["survey"]
    assert reader.recording_info("survey").station == "pole-7"
    assert {row.station for row in reader.iter_ensembles()} == {"pole-7"}


def test_in_process_store_stage_records_the_source_station(tmp_path, clips, meso):
    clip = clips[2]
    chain(meso, "ensembles", "tail", path=str(tmp_path / "stage")).build().run(clip)
    chain(meso, "ensembles", "none").build().run(clip, store=tmp_path / "run")
    stage, run = StoreReader(tmp_path / "stage"), StoreReader(tmp_path / "run")
    assert stage.recording_info("rec-00000").station == clip.station_id
    found = list(stage.iter_ensembles(station=clip.station_id))
    assert found and len(found) == len(list(run.iter_ensembles(station=clip.station_id)))
    assert rows(tmp_path / "stage") == rows(tmp_path / "run")


def second_writer(case: str, spec: AcousticPipeline, store, clips) -> None:
    if case == "two-stages":
        spec.stage("store", path=store).build()
    elif case == "run":
        spec.build().run(clips[0], store=store)
    elif case == "run_corpus":
        spec.run_corpus(clips, store=store)
    elif case == "to_river":
        spec.to_river(store=store)
    else:
        spec.deploy(clips, store=store)


@pytest.mark.parametrize("case", ["two-stages", "run", "run_corpus", "to_river", "deploy"])
def test_a_store_path_takes_one_writer_per_run(tmp_path, clips, case):
    store = tmp_path / "s"
    AcousticPipeline().extract(FAST_EXTRACTION).run_corpus(clips[:1], store=store)
    before = footprint(store)
    spec = AcousticPipeline().extract(FAST_EXTRACTION).stage("store", path=str(store))
    with pytest.raises(PipelineBuildError, match=re.escape(str(store))):
        second_writer(case, spec, store, clips)
    assert footprint(store) == before
    assert StoreReader(store).recordings() == ["rec-00000"]
