"""A segment step pushes its input as one batch, and batching changes nothing.

``PipelineSegment.step`` draws its records lazily and pushes them through
``Pipeline.process_records``; an :class:`EnsembleStageOperator` defers the
terminal event of every buffered scope in the batch and hands the deferred
run to its stage in one ``Stage.process_each`` call.  Whatever the step
allowance, the output stream must equal per-record stepping record for
record: whole and fragmented scopes, bad-closed ones, clip opens, closes and
bad closes, sibling-replica scopes, foreign records, END inside a batch and
a closed upstream — for the built-in feature and classify stages and for
the plugin shapes of ``tests/test_stage_runs.py`` (a delay-by-one, a
drop-every-n-th, a fragment observer, a per-run counter and the store).
A segment of per-record operators must still emit each record's outputs
before it pulls the next.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cutter import Ensemble
from repro.meso import MesoClassifier
from repro.pipeline.results import (
    EnsembleEvent,
    EnsembleFragmentEvent,
    FeaturesEvent,
)
from repro.pipeline.river_adapter import (
    ROUTING_ORDINAL,
    ROUTING_REPLICA,
    EnsembleStageOperator,
    event_to_records,
)
from repro.pipeline.stages import ClassifyStage, FeatureStage, Stage
from repro.river import Pipeline, PipelineSegment, QueueChannel, validate_stream
from repro.river.operator_base import PassThrough
from repro.river.records import (
    Record,
    RecordType,
    ScopeType,
    Subtype,
    bad_close_scope,
    data_record,
    end_of_stream,
    open_scope,
)
from repro.river.serialization import pack_record
from repro.store import StoreError, StoreReader, StoreSinkOperator, StoreWriterStage

RATE = 16000
CLIP = ScopeType.CLIP.value
ENSEMBLE = ScopeType.ENSEMBLE.value
#: Dimension of the hand-made patterns the classify stage votes on.
DIM = 6


# -- plugin shapes --------------------------------------------------------------


class DelayByOne(Stage):
    """Hold each ensemble until the next arrives or the run ends."""

    name = "delay"

    def __init__(self) -> None:
        self._held = None

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


class DropEveryThird(Stage):
    """Drop every third ensemble of a run."""

    name = "drop"

    def __init__(self) -> None:
        self._seen = 0

    def reset(self) -> None:
        self._seen = 0

    def process(self, event):
        if not isinstance(event, EnsembleEvent):
            return [event]
        self._seen += 1
        return [] if self._seen % 3 == 0 else [event]


class FragmentObserver(Stage):
    """Watch a fragment stream and forward every event."""

    name = "observer"
    consumes_fragments = True

    def process(self, event):
        return [event]


class RunCounter(Stage):
    """Label each ensemble with its position in the run, so a run that
    begins or ends at the wrong record shows in the labels."""

    name = "counter"

    def __init__(self) -> None:
        self._count = 0

    def start(self, sample_rate: int) -> None:
        self._count = 0

    def process(self, event):
        if not isinstance(event, EnsembleEvent):
            return [event]
        self._count += 1
        return [EnsembleEvent(dataclasses.replace(event.ensemble, label=f"n{self._count}"))]


class Spy(FeatureStage):
    """A feature stage that records the size of every batch it is handed."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.batches: list[int] = []

    def process_each(self, events):
        self.batches.append(len(events))
        return super().process_each(events)


@pytest.fixture(scope="module")
def meso():
    rng = np.random.default_rng(5)
    memory = MesoClassifier()
    for index in range(40):
        memory.partial_fit(rng.normal(size=DIM) + index % 4, f"sp{index % 4}")
    return memory


def make_stage(kind: str, meso, tmp_dir):
    if kind == "features":
        return FeatureStage(use_paa=True, emit="patterns")
    if kind == "classify":
        return ClassifyStage(meso)
    if kind == "store":
        return StoreWriterStage(tmp_dir)
    plugins = {
        "delay": DelayByOne, "drop": DropEveryThird, "observer": FragmentObserver, "counter": RunCounter
    }
    return plugins[kind]()


STAGES = ("features", "classify", "delay", "drop", "observer", "counter", "store")


# -- random record streams ----------------------------------------------------

ITEMS = st.sampled_from(
    ["clip_open", "clip_close", "clip_bad", "ens", "ens", "ens", "frag", "bad_ens", "bad_frag",
     "foreign", "end"]
)


@st.composite
def streams(draw):
    """(item kinds, seed, replica tags, allowances, close the upstream)."""
    kinds = draw(st.lists(ITEMS, min_size=1, max_size=24))
    return (
        kinds,
        draw(st.integers(0, 2**32 - 1)),
        draw(st.lists(st.integers(1, 128), min_size=1, max_size=6)),
        draw(st.booleans()),
    )


def build_stream(kinds, seed, patterns: bool, replicas: int | None) -> list[Record]:
    """The records the item ``kinds`` stand for, scopes nested in clips or
    bare.  Buffered scopes carry patterns when ``patterns`` is set (the
    classify stage's input); with ``replicas`` every ensemble opener is
    tagged for a random replica, one past the last meaning nobody's."""
    rng = np.random.default_rng(seed)
    records: list[Record] = []
    depth, clip_index, index, start, ordinal = 0, 100, 0, 0, 0

    def tag(scope: list[Record]) -> list[Record]:
        nonlocal ordinal
        if replicas is not None:
            opener = scope[0]
            opener.context = {
                **opener.context,
                ROUTING_REPLICA: int(rng.integers(0, replicas + 1)),
                ROUTING_ORDINAL: ordinal,
            }
            ordinal += 1
        return scope

    def ensemble() -> Ensemble:
        nonlocal start
        size = int(rng.integers(1, 4000))
        made = Ensemble(rng.normal(size=size), start, start + size, RATE)
        start += size
        return made

    for kind in kinds:
        if kind == "clip_open":
            if depth == 0:
                station = f"pole-{clip_index % 3}"
                context = {"sample_rate": RATE, "clip_index": clip_index, "station_id": station}
                records.append(open_scope(0, CLIP, clip_index, context))
                clip_index += 1
                depth = 1
        elif kind in ("clip_close", "clip_bad"):
            if depth == 1:
                if kind == "clip_bad":
                    records.append(bad_close_scope(0, CLIP, clip_index - 1, reason="uplink lost"))
                else:
                    records.append(
                        Record(RecordType.CLOSE_SCOPE, scope=0, scope_type=CLIP,
                               sequence=clip_index - 1, context={"total_samples": start})
                    )
                depth = 0
        elif kind in ("ens", "bad_ens"):
            whole = ensemble()
            if patterns:
                count = int(rng.integers(0, 5))
                made = tuple(rng.normal(size=DIM) + rng.integers(0, 4) for _ in range(count))
                event = FeaturesEvent(whole, made)
            else:
                event = EnsembleEvent(whole)
            scope = event_to_records(event, depth, index)
            if kind == "bad_ens":
                scope = scope[:2] + [bad_close_scope(depth, ENSEMBLE, index, reason="cut")]
            records.extend(tag(scope))
            index += 1
        elif kind in ("frag", "bad_frag"):
            whole = ensemble()
            scope = event_to_records(EnsembleFragmentEvent("open", whole.start, RATE), depth, index)
            cuts = sorted(rng.integers(0, whole.samples.size, size=int(rng.integers(0, 4))))
            offset = whole.start
            for sequence, part in enumerate(np.split(whole.samples, cuts)):
                if part.size:
                    piece = EnsembleFragmentEvent("data", whole.start, RATE, samples=part, offset=offset)
                    scope += event_to_records(piece, depth, sequence)
                    offset += part.size
            if kind == "bad_frag":
                scope.append(bad_close_scope(depth, ENSEMBLE, index, reason="cut"))
            else:
                scope += event_to_records(
                    EnsembleFragmentEvent("close", whole.start, RATE, end=whole.end), depth, index
                )
            records.extend(tag(scope))
            index += 1
        elif kind == "foreign":
            scope_type = CLIP if depth else ScopeType.GENERIC.value
            records.append(data_record(rng.normal(size=3), Subtype.GENERIC.value, depth, scope_type))
        else:
            records.append(end_of_stream(len(records)))
    return records


def stepped(operators, records, allowances, close) -> list[bytes]:
    """Feed ``records`` to a segment over ``operators`` and step it with
    ``allowances`` in turn until nothing moves; the packed output stream."""
    segment = PipelineSegment("under-test", Pipeline(operators), input_channel=QueueChannel())
    for record in records:
        segment.input_channel.put(record.copy())
    if close:
        segment.input_channel.close()
    for allowance in itertools.cycle(allowances):
        if segment.finished or not segment.step(allowance):
            break
    return [pack_record(record) for record in segment.drain_output()]


def operators_for(kind, replicas, meso, tmp_dir):
    if replicas is None:
        stage = make_stage(kind, meso, tmp_dir)
        return [StoreSinkOperator(stage) if kind == "store" else EnsembleStageOperator(stage)]
    return [
        EnsembleStageOperator(make_stage(kind, meso, tmp_dir), name=f"{kind}-r{i}", replica=i, group=kind)
        for i in range(replicas)
    ]


def store_rows(path):
    """What the store at ``path`` holds, row for row (None: no manifest)."""
    try:
        reader = StoreReader(path)
    except StoreError:
        return None
    rows = []
    for name in reader.recordings():
        result = reader.result(name)
        rows.append((
            name,
            reader.recording_info(name).complete,
            [(e.start, e.end, e.samples.tobytes()) for e in result.ensembles],
            [[p.tobytes() for p in patterns] for patterns in result.patterns],
        ))
    return rows


@pytest.mark.parametrize("kind", STAGES)
@settings(max_examples=30, deadline=None)
@given(case=streams(), fan_out=st.sampled_from([None, 2]))
def test_batched_steps_equal_per_record_steps(kind, meso, tmp_path_factory, case, fan_out):
    kinds, seed, allowances, close = case
    if kind == "store":
        fan_out = None  # one writer per store: never fanned out
    records = build_stream(kinds, seed, patterns=kind == "classify", replicas=fan_out)
    base = tmp_path_factory.mktemp(kind)
    outputs, stores = [], []
    for name, steps in (("per-record", [1]), ("batched", allowances)):
        path = base / name
        outputs.append(stepped(operators_for(kind, fan_out, meso, path), records, steps, close))
        stores.append(store_rows(path))
    assert outputs[1] == outputs[0]
    assert stores[1] == stores[0]


def test_a_step_hands_the_stage_every_buffered_scope_at_once():
    """One 64-record step over 20 buffered scopes: one stage call."""
    rng = np.random.default_rng(0)
    records = [open_scope(0, CLIP, 0, {"sample_rate": RATE, "clip_index": 0})]
    for index in range(20):
        ensemble = Ensemble(rng.normal(size=3000), 3000 * index, 3000 * (index + 1), RATE)
        records += event_to_records(EnsembleEvent(ensemble), 1, index)
    spy = Spy(use_paa=True)
    segment = PipelineSegment(
        "features", Pipeline([EnsembleStageOperator(spy)]), input_channel=QueueChannel()
    )
    for record in records:
        segment.input_channel.put(record)
    assert segment.step(64) == len(records)
    assert spy.batches == [20]
    assert sum(record.subtype == Subtype.FEATURES.value for record in segment.drain_output()) > 20


class LoggingChannel(QueueChannel):
    """A queue channel that logs every record taken from or put on it."""

    def __init__(self, log: list, label: str, capacity: int | None = None) -> None:
        super().__init__(capacity=capacity)
        self.log = log
        self.label = label

    def get(self):
        record = super().get()
        if record is not None:
            self.log.append((self.label, record.sequence))
        return record

    def put(self, record) -> None:
        super().put(record)
        self.log.append((self.label, record.sequence))


def test_a_per_record_segment_emits_before_it_pulls_the_next_record():
    log: list = []
    inbox = LoggingChannel(log, "get")
    segment = PipelineSegment(
        "pass", Pipeline([PassThrough(), PassThrough()]), input_channel=inbox,
        output_channel=LoggingChannel(log, "put"),
    )
    for sequence in range(5):
        inbox.put(data_record(np.zeros(2), sequence=sequence))
    log.clear()
    assert segment.step(64) == 5
    assert log == [(label, sequence) for sequence in range(5) for label in ("get", "put")]


def test_a_backed_up_outbox_stops_the_batch_from_pulling():
    """Capacity 2: the third record's output is held back, so the step
    pulls no fourth record, and the next step pulls nothing until it fits."""
    segment = PipelineSegment(
        "pass", Pipeline([PassThrough()]), input_channel=QueueChannel(),
        output_channel=QueueChannel(capacity=2),
    )
    for sequence in range(10):
        segment.input_channel.put(data_record(np.zeros(2), sequence=sequence))
    assert segment.step(64) == 3
    assert segment.pending_output == 1
    assert segment.step(64) == 0
    assert [segment.output_channel.get().sequence for _ in range(2)] == [0, 1]
    # The held record goes out, one more fits and the next is held again.
    assert segment.step(64) == 2
    assert segment.pending_output == 1
    assert len(segment.input_channel) == 5


def test_end_inside_a_batch_finishes_after_the_deferred_scopes():
    rng = np.random.default_rng(1)
    scopes = []
    for index in range(3):
        ensemble = Ensemble(rng.normal(size=2000), 2000 * index, 2000 * (index + 1), RATE)
        scopes += event_to_records(EnsembleEvent(ensemble), 0, index)
    operator = EnsembleStageOperator(FeatureStage(use_paa=True))
    segment = PipelineSegment("features", Pipeline([operator]), input_channel=QueueChannel())
    for record in scopes + [end_of_stream(), data_record(np.zeros(1))]:
        segment.input_channel.put(record)
    assert segment.step(64) == len(scopes) + 1
    outputs = list(segment.drain_output())
    assert segment.finished and outputs[-1].is_end
    assert validate_stream(outputs) == []
    assert sum(record.is_open for record in outputs) == 3
    assert len(segment.input_channel) == 1  # nothing is pulled past END


def test_store_skips_a_cut_fragmented_scope_before_buffered_ones(tmp_path):
    """A bad-closed fragmented scope never reaches the store stage as a
    close; the buffered ensembles after it are stored whole, each at its own
    ordinal (the store used to seal them into the cut row and then refuse
    the second with a StoreError)."""
    kinds = ["clip_open", "bad_frag", "ens", "ens", "clip_close", "end"]
    records = build_stream(kinds, 3, patterns=False, replicas=None)
    sink = StoreSinkOperator(tmp_path / "store")
    forwarded = [out for record in records for out in sink.process(record)]
    assert validate_stream(forwarded) == []
    reader = StoreReader(tmp_path / "store")
    buffered = [record for record in records if record.subtype == Subtype.AUDIO.value]
    stored = reader.result(reader.recordings()[0]).ensembles
    assert [(e.start, e.end) for e in stored] == [
        (r.context["start"], r.context["end"]) for r in buffered
    ]
    for ensemble, record in zip(stored, buffered):
        np.testing.assert_array_equal(ensemble.samples, record.payload)


def test_a_clip_open_ends_the_bare_run_before_it():
    """A bare ensemble scope, then a clip holding one: the stage's bare run
    ends (flushed) at the clip open, so the ensemble it held comes out first
    instead of being dropped by the clip's new run — per record and batched."""
    records = build_stream(["ens", "clip_open", "ens", "clip_close", "end"], 3, False, None)
    starts = [r.context["start"] for r in records if r.is_open and r.scope_type == ENSEMBLE]
    per_record = EnsembleStageOperator(DelayByOne())
    batched = EnsembleStageOperator(DelayByOne())
    outputs = [
        [out for record in records for out in per_record.process(record.copy())],
        list(batched.process_many(record.copy() for record in records)),
    ]
    for output in outputs:
        assert validate_stream(output) == []
        opened = [record for record in output if record.is_open]
        assert [record.scope_type for record in opened] == [ENSEMBLE, CLIP, ENSEMBLE]
        assert [r.context["start"] for r in opened if r.scope_type == ENSEMBLE] == starts
    assert [pack_record(r) for r in outputs[1]] == [pack_record(r) for r in outputs[0]]


def test_a_clip_named_like_the_bare_run_before_it_is_refused(tmp_path):
    """The bare run took the first free name, rec-00000, so a clip with
    ``clip_index`` 0 after it names a recording the store already holds."""
    records = build_stream(["ens", "clip_open", "ens", "clip_close", "end"], 3, False, None)
    for record in records:
        if record.is_open and record.scope_type == CLIP:
            record.context = {**record.context, "clip_index": 0}
    sink = StoreSinkOperator(tmp_path / "store")
    with pytest.raises(StoreError, match="rec-00000"):
        for record in records:
            sink.process(record)
