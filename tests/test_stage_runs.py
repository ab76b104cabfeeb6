"""One stage run per clip on every fabric.

In process, one ``run()`` is one run of every stage: reset and start before
the first chunk, flush once at the end.  On the river a clip scope is that
run: its OpenScope begins it, its CloseScope ends it with the flushed events
encoded inside the clip, and a BadCloseScope (scope repair after an upstream
truncation) abandons it — no flush, so no cut-short ensemble and no store
recording sealed complete.  Stages that hold an ensemble across events and
stages that observe fragments without consuming them must therefore give
the in-process rows on every fabric.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FAST_EXTRACTION
from repro.pipeline import AcousticPipeline, StageRegistry, run_clips_via_river
from repro.pipeline.results import EnsembleEvent
from repro.pipeline.river_adapter import ExtractStageOperator, collect_result, event_to_records
from repro.pipeline.stages import ExtractStage, Stage
from repro.river import Deployment, Host, Pipeline, PipelineSegment, QueueChannel, validate_stream
from repro.river.operators import ClipSource
from repro.river.serialization import pack_record
from repro.river.records import ScopeType, Subtype, bad_close_scope, data_record, end_of_stream, open_scope
from repro.river.transport import transport_available
from repro.store import StoreReader, StoreSinkOperator
from repro.synth.dataset import CorpusSpec, build_corpus

FABRICS = ("river", "simulated", "process")


class DelayByOne(Stage):
    """Hold each ensemble until the next one arrives or the run ends — the
    shape of any stage that merges adjacent ensembles."""

    name = "delay"

    def __init__(self) -> None:
        self._held: EnsembleEvent | None = None

    def reset(self) -> None:
        self._held = None

    def process(self, event):
        if not isinstance(event, EnsembleEvent):
            return [event]
        held, self._held = self._held, event
        return [] if held is None else [held]

    def flush(self):
        held, self._held = self._held, None
        return [] if held is None else [held]


class FragmentObserver(Stage):
    """Watch a fragment stream and forward every event: no pattern is made,
    so no ensemble it sees is short."""

    name = "observer"
    consumes_fragments = True

    def process(self, event):
        return [event]


_REGISTRY = StageRegistry()
_REGISTRY.register("extract", ExtractStage)
_REGISTRY.register("delay", DelayByOne)
_REGISTRY.register("observer", FragmentObserver)

SPECS = {
    "delay": lambda: AcousticPipeline(registry=_REGISTRY).extract(FAST_EXTRACTION).stage("delay"),
    "observer": lambda: AcousticPipeline(registry=_REGISTRY)
    .extract(FAST_EXTRACTION, emit="fragments")
    .stage("observer"),
}


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


def rows(results):
    """Every ensemble row of ``results`` in order, and the short count."""
    table = [
        (ensemble.start, ensemble.end, ensemble.samples, patterns, label)
        for result in results
        for ensemble, patterns, label in zip(result.ensembles, result.patterns, result.labels)
    ]
    return table, sum(result.short_ensembles for result in results)


def assert_same_rows(actual, expected):
    (got, got_short), (want, want_short) = rows(actual), rows(expected)
    assert [row[:2] for row in got] == [row[:2] for row in want]
    for (*_, samples, patterns, label), (*_, ref_samples, ref_patterns, ref_label) in zip(got, want):
        np.testing.assert_array_equal(samples, ref_samples)
        assert len(patterns) == len(ref_patterns)
        for pattern, ref in zip(patterns, ref_patterns):
            np.testing.assert_array_equal(pattern, ref)
        assert label == ref_label
    assert got_short == want_short


@pytest.mark.parametrize("fabric", FABRICS)
@pytest.mark.parametrize("plugin", sorted(SPECS))
def test_plugin_rows_match_in_process(plugin, fabric, clips):
    spec = SPECS[plugin]()
    expected = spec.run_corpus(clips)
    if fabric == "river":
        actual = run_clips_via_river(spec, clips)
    elif fabric == "process" and not transport_available():
        pytest.skip("process transport unavailable here")
    else:
        actual = spec.deploy(clips, backend=fabric)
    assert_same_rows([actual], expected)


def test_bad_closed_clip_leaves_the_sink_recording_incomplete(tmp_path, clips):
    clip = clips[0]
    ensemble = AcousticPipeline().extract(FAST_EXTRACTION).build().run(clip).ensembles[0]
    clip_scope = ScopeType.CLIP.value
    stream = [
        open_scope(0, clip_scope, context={"sample_rate": 16000, "clip_index": 0, "station_id": "pole-1"}),
        *event_to_records(EnsembleEvent(ensemble), 1, 0),
        bad_close_scope(0, clip_scope, reason="relay failed"),
        end_of_stream(),
    ]
    sink = StoreSinkOperator(tmp_path / "store")
    forwarded = [out for record in stream for out in sink.process(record)]
    assert list(map(pack_record, forwarded)) == list(map(pack_record, stream))
    reader = StoreReader(tmp_path / "store")
    assert reader.recordings() == ["rec-00000"]
    assert not reader.recording_info("rec-00000").complete
    assert reader.incomplete()["recordings"] == ["rec-00000"]


def test_bare_stream_leaves_the_sink_recording_incomplete(tmp_path, clips):
    """No clip scope, so no length: the run ends at END_OF_STREAM with what
    it stored, and the recording is never sealed complete."""
    ensemble = AcousticPipeline().extract(FAST_EXTRACTION).build().run(clips[0]).ensembles[0]
    stream = [*event_to_records(EnsembleEvent(ensemble), 0, 0), end_of_stream()]
    sink = StoreSinkOperator(tmp_path / "store")
    forwarded = [out for record in stream for out in sink.process(record)]
    assert list(map(pack_record, forwarded)) == list(map(pack_record, stream))
    reader = StoreReader(tmp_path / "store")
    assert reader.incomplete()["recordings"] == reader.recordings() == ["rec-00000"]


def test_host_failure_mid_clip_leaves_the_tail_store_incomplete(tmp_path, clips):
    """extract / features / tail store on three hosts; the features host
    dies mid-clip and scope repair bad-closes the clip at the store."""
    operators = (
        AcousticPipeline()
        .extract(FAST_EXTRACTION)
        .features(use_paa=True)
        .to_river(store=tmp_path / "store")
        .operators
    )
    deployment = Deployment(batch_size=8)
    segments = []
    channel = QueueChannel()
    for name, operator, host in zip(
        ("extract", "features", "store"), operators, ("field", "relay", "observatory")
    ):
        deployment.add_host(Host(host, speed=1000.0))
        segment = PipelineSegment(name=name, pipeline=Pipeline([operator], name=name), input_channel=channel)
        channel = segment.output_channel
        deployment.place(segment, host)
        segments.append(segment)
    for record in ClipSource(clips, record_size=4096).generate():
        segments[0].input_channel.put(record)
    rounds = 0
    while not deployment.finished and rounds < 10_000:
        deployment.step_all()
        rounds += 1
        if rounds == 2:
            deployment.fail_host("relay")
    reader = StoreReader(tmp_path / "store")
    assert reader.recordings(), "the first clip must have reached the store before the failure"
    assert [name for name in reader.recordings() if reader.recording_info(name).complete] == []
    assert reader.incomplete()["recordings"] == reader.recordings()


@pytest.mark.parametrize("emit", ["ensembles", "fragments"])
def test_extract_operator_abandons_a_clip_cut_mid_ensemble(emit, clips):
    """No ensemble ends at the cut; a fragmented scope the cut left open is
    bad-closed, so the stream stays balanced."""
    clip = clips[0]
    whole = AcousticPipeline().extract(FAST_EXTRACTION).build().run(clip)
    bounds = [(e.start, e.end) for e in whole.ensembles]
    start, end = bounds[-1]
    cut = (start + end) // 2
    records = [open_scope(0, ScopeType.CLIP.value, context={"sample_rate": 16000, "clip_index": 0})]
    records += [
        data_record(clip.samples[lo : min(lo + 4096, cut)], Subtype.AUDIO.value, 1, ScopeType.CLIP.value)
        for lo in range(0, cut, 4096)
    ]
    records.append(bad_close_scope(0, ScopeType.CLIP.value, reason="uplink lost"))
    operator = ExtractStageOperator(ExtractStage(FAST_EXTRACTION, keep_traces=False, emit=emit))
    outputs = [out for record in records for out in operator.process(record)]
    outputs += operator.process(end_of_stream())
    emitted = [(e.start, e.end) for e in collect_result(outputs, 16000).ensembles]
    assert emitted == [b for b in bounds if b[1] <= cut]
    assert all(stop != cut for _, stop in emitted)
    assert outputs[-2].is_bad_close and outputs[-2].context["total_samples"] == cut
    assert validate_stream(outputs) == []
