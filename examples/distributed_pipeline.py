#!/usr/bin/env python
"""Distributed Dynamic River pipeline compiled from one AcousticPipeline.

The same stage graph used for batch clips and chunked streams is compiled
with ``to_river()`` into record operators — one per stage — which are placed
on different (simulated) hosts.  The example demonstrates the two behaviours
the paper highlights as Dynamic River's advantages:

* **dynamic recomposition** — an overloaded segment is relocated to a faster
  host mid-run, guided by the QoS monitor, without corrupting the stream;
* **fault resilience** — a host failure mid-clip is repaired downstream with
  BadCloseScope records so every scope stays balanced, and the tail store
  keeps the cut clip's recording incomplete instead of sealing it;
* **per-stage fan-out** — ``to_river(fan_out=2)`` compiles two feature
  replicas behind a deterministic partition/merge pair, the
  ``StationScheduler`` spreads them over distinct hosts, and the merged
  output is bit-identical to the linear graph;
* **real OS-process hosts** — the same scheduler-placed fan-out graph
  deployed with ``deploy(backend="process")``: one worker process per host,
  TCP socket channels between hosts, and output still bit-identical to the
  simulated fabric and to batch ``run()``.

Run with:  python examples/distributed_pipeline.py
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np

from repro import AcousticPipeline, FAST_EXTRACTION, MesoClassifier
from repro.pipeline import collect_result, run_clips_via_river
from repro.river import (
    Deployment,
    Host,
    Pipeline,
    PipelineSegment,
    QoSMonitor,
    QueueChannel,
    StationScheduler,
    scope_repair_summary,
    split_into_segments,
    validate_stream,
)
from repro.river.operators import ClipSource
from repro.store import StoreReader
from repro.synth import ClipBuilder, get_species

SAMPLE_RATE = 16000


def build_clips(count: int, rng: np.random.Generator):
    builder = ClipBuilder(sample_rate=SAMPLE_RATE, duration=10.0)
    species = ["NOCA", "RWBL", "TUTI", "BCCH"]
    return [builder.build(species[i % len(species)], rng, songs_per_species=2) for i in range(count)]


def build_pipeline(rng: np.random.Generator):
    """Declare the stage graph once; train MESO on reference songs."""
    meso = MesoClassifier()
    pipeline = (
        AcousticPipeline()
        .extract(FAST_EXTRACTION)
        .features(use_paa=True)
        .classify(meso)
    )
    trainer = pipeline.build()
    for code in ("NOCA", "RWBL", "TUTI", "BCCH"):
        for _ in range(4):
            song = get_species(code).render(SAMPLE_RATE, rng)
            for vector in trainer.patterns_for(song):
                meso.partial_fit(vector, code)
    return pipeline


def run_scenario(fail_relay: bool) -> None:
    rng = np.random.default_rng(11)
    clips = build_clips(4, rng)
    store = tempfile.mkdtemp(prefix="distributed-store-")
    # to_river() compiles the stage graph into one operator per stage:
    # extract-stage -> features-stage -> classify-stage -> store-sink.
    operators = build_pipeline(rng).to_river(store=store).operators

    deployment = Deployment(batch_size=8)
    deployment.add_host(Host("field-node", speed=300.0))    # slow embedded box
    deployment.add_host(Host("relay", speed=800.0))
    deployment.add_host(Host("observatory", speed=4000.0))  # plenty of headroom

    source_channel = QueueChannel()
    seg_extract = PipelineSegment(
        name="extract", pipeline=Pipeline([operators[0]], name="extract"),
        input_channel=source_channel,
    )
    seg_features = PipelineSegment(
        name="features", pipeline=Pipeline([operators[1]], name="features"),
        input_channel=seg_extract.output_channel,
    )
    seg_classify = PipelineSegment(
        name="classify", pipeline=Pipeline([operators[2]], name="classify"),
        input_channel=seg_features.output_channel,
    )
    seg_store = PipelineSegment(
        name="store", pipeline=Pipeline([operators[3]], name="store"),
        input_channel=seg_classify.output_channel,
    )
    deployment.place(seg_extract, "field-node")
    deployment.place(seg_features, "relay")
    deployment.place(seg_classify, "observatory")
    deployment.place(seg_store, "observatory")

    for record in ClipSource(clips, record_size=4096).generate():
        source_channel.put(record)

    monitor = QoSMonitor(backlog_threshold=32)
    rounds = 0
    while not deployment.finished and rounds < 100_000:
        deployment.step_all()
        rounds += 1
        if not fail_relay:
            # QoS-driven recomposition: move overloaded segments to faster hosts.
            for segment_name, host_name in monitor.recommend(deployment).items():
                print(f"  [round {rounds}] QoS monitor relocates {segment_name!r} -> {host_name!r}")
                deployment.relocate(segment_name, host_name)
        elif rounds == 6:
            print("  [round 6] simulated failure of host 'relay' (mid-clip)")
            victims = deployment.fail_host("relay")
            print(f"            aborted segments: {victims}")

    outputs = list(seg_store.drain_output())
    summary = scope_repair_summary(outputs)
    result = collect_result(outputs, sample_rate=SAMPLE_RATE)
    labelled = [label for label in result.labels if label is not None]
    print(f"  finished in {rounds} scheduling rounds")
    print(f"  ensembles delivered: {len(result.ensembles)}, classified: {len(labelled)}")
    if labelled:
        print(f"  species seen: {sorted(set(labelled))}")
    print(f"  scopes: {summary.open_scopes} opened, {summary.close_scopes} closed cleanly, "
          f"{summary.bad_close_scopes} closed by repair -> balanced={summary.balanced}")
    print(f"  stream validates: {validate_stream(outputs, strict=False) == []}")
    # A clip cut short by the failure is stored, but never sealed complete.
    reader = StoreReader(store)
    complete = [name for name in reader.recordings() if reader.recording_info(name).complete]
    print(f"  store: complete={complete} incomplete={reader.incomplete()['recordings']}")
    shutil.rmtree(store)
    for event, detail in deployment.events:
        print(f"    event: {event:<12} {detail}")
    print()


def run_fanout_scenario() -> None:
    rng = np.random.default_rng(11)
    clips = build_clips(4, rng)
    for index, clip in enumerate(clips):
        clip.station_id = f"pole-{index % 2}"  # two stations feed the graph
    pipeline = build_pipeline(rng)

    deployment = Deployment(batch_size=8)
    deployment.add_host(Host("field-node", speed=300.0))
    deployment.add_host(Host("relay", speed=800.0))
    deployment.add_host(Host("observatory", speed=4000.0))

    # One segment per operator: extract, partition, two feature replicas,
    # merge, classify — replicas get their own hosts.
    segments = split_into_segments(pipeline.to_river(fan_out={"features": 2}))
    scheduler = StationScheduler.for_deployment(deployment)
    replicas = [s for s in segments if "-stage-r" in s.name]
    scheduler.spread_replicas(deployment, replicas, group="features")
    for segment in segments:
        if segment not in replicas:
            deployment.place(segment, scheduler.host_for(segment.name))
    for name, host in sorted(deployment.placement.items()):
        print(f"  placed {name:<22} on {host}")

    for record in ClipSource(clips, record_size=4096).generate():
        segments[0].input_channel.put(record)
    deployment.run(monitor=QoSMonitor(backlog_threshold=64), rebalance=True)

    outputs = list(segments[-1].drain_output())
    fanned = collect_result(outputs, sample_rate=SAMPLE_RATE)
    linear = run_clips_via_river(pipeline, clips, record_size=4096)
    identical = len(fanned.ensembles) == len(linear.ensembles) and all(
        a.start == b.start
        and a.end == b.end
        and np.array_equal(a.samples, b.samples)
        for a, b in zip(fanned.ensembles, linear.ensembles)
    )
    print(f"  ensembles delivered: {len(fanned.ensembles)} "
          f"(labels: {sorted(set(l for l in fanned.labels if l)) or '-'})")
    print(f"  stream validates: {validate_stream(outputs, strict=False) == []}")
    print(f"  fan-out output bit-identical to the linear graph: {identical}")
    print()


def run_process_scenario() -> None:
    """Scenario 4: the fan-out graph on real OS processes.

    ``deploy(backend="process")`` compiles the same graph, plans the same
    scheduler placement, then launches one worker process per host wired
    with socket channels.  Pick this backend when segment work should
    actually run in parallel on separate cores (or, with the same wiring,
    separate machines); pick ``backend="simulated"`` for deterministic
    experiments, QoS studies and tests — the output is identical either way.
    """
    from repro.river.transport import transport_available

    if not transport_available():
        print("  (skipped: no bindable loopback interface for the process fabric)")
        print()
        return
    rng = np.random.default_rng(11)
    clips = build_clips(4, rng)
    for index, clip in enumerate(clips):
        clip.station_id = f"pole-{index % 2}"
    pipeline = build_pipeline(rng)
    hosts = {"field-node": 300.0, "relay": 800.0, "observatory": 4000.0}
    simulated = pipeline.deploy(
        clips, backend="simulated", fan_out={"features": 2}, hosts=hosts
    )
    processes = pipeline.deploy(
        clips, backend="process", fan_out={"features": 2}, hosts=hosts
    )
    identical = len(processes.ensembles) == len(simulated.ensembles) and all(
        a.start == b.start and a.end == b.end and np.array_equal(a.samples, b.samples)
        for a, b in zip(processes.ensembles, simulated.ensembles)
    )
    labelled = sorted(set(label for label in processes.labels if label))
    print(f"  ensembles from the process fabric: {len(processes.ensembles)} "
          f"(labels: {labelled or '-'})")
    print(f"  process output bit-identical to the simulated fabric: {identical}")
    print(f"  labels agree: {processes.labels == simulated.labels}")
    print()


def main() -> None:
    print("=== scenario 1: QoS-driven recomposition (no failures) ===")
    run_scenario(fail_relay=False)
    print("=== scenario 2: host failure mid-stream, scope repair downstream ===")
    run_scenario(fail_relay=True)
    print("=== scenario 3: per-stage fan-out placed by the StationScheduler ===")
    run_fanout_scenario()
    print("=== scenario 4: the same graph on real OS processes (sockets) ===")
    run_process_scenario()


if __name__ == "__main__":
    main()
