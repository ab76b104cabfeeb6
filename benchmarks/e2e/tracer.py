"""Per-layer tracing from the outside: spans around each layer's public calls.

Nothing under ``src/`` knows about this file.  For a traced pass the
benchmark wraps the functions listed in :func:`install_layers` *at class (or
module) level*, runs the pass, and puts the originals back; every wrapped
call becomes a span ``(name, start, end, parent, run)`` kept in memory until
the run ends.  A layer's **busy** time is the summed duration of its
outermost spans; its **self** time is duration minus the part its child
spans cover, so on the in-process workloads the self times of all layers
plus the harness's own (the root ``bench.pass`` span's self time) add up to
the traced wall exactly.

The process-river hosts are forked children: spans recorded there would die
with them, so ``river_ingest`` keeps the wrappers *out* of the deployment
pass and instead replays the workload's own record stream through each river
layer in isolation (:func:`replay_river_layers`).  Those numbers overlap in
time in the real fabric; they are reported side by side, never summed.

Only the traced run imports this module.
"""

from __future__ import annotations

import json
import socket
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT_SPAN = "bench.pass"


class Tracer:
    """Span storage plus install/remove of the class-level wrappers."""

    def __init__(self) -> None:
        #: [name, start, end, parent index (-1 for a root), run id]
        self.spans: list[list] = []
        #: (run id, counter name) -> value
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(
            [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id]
        )
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, value: float) -> None:
        self.counts[(self.run_id, name)] += value

    # -- wrappers --------------------------------------------------------------

    def wrap(self, owner, attr: str, name, count=None, generator: bool = False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper until
        :meth:`uninstall`.

        ``name`` is the span name or a callable computing it from the call's
        positional arguments; ``count(args, result)`` returns ``{counter:
        increment}`` and runs after the span closed.  With ``generator`` the
        wrapped callable returns an iterator and each ``next()`` on it becomes
        one span, so work the consumer does between items is not charged to
        the producer.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        function = original.__func__ if isinstance(original, staticmethod) else original

        def traced(*args, **kwargs):
            index = self._open(name(args) if callable(name) else name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                for counter, value in count(args, result).items():
                    self.count(counter, value)
            return result

        def traced_iterator(*args, **kwargs):
            iterator = iter(function(*args, **kwargs))
            while True:
                index = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item

        wrapper = traced_iterator if generator else traced
        self._patched.append((owner, attr, original))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(original, staticmethod) else wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def traced_pass(self, run_id: int):
        """Wrappers on and a root span open for exactly one timed call."""
        self.run_id = run_id
        install_layers(self)
        try:
            with self.span(ROOT_SPAN):
                yield
        finally:
            self.uninstall()

    # -- aggregation -----------------------------------------------------------

    def layer_times(self) -> dict[int, dict[str, dict[str, float]]]:
        """run id -> layer -> {busy_s, self_s, calls}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        runs: dict[int, dict[str, dict[str, float]]] = {}
        for index, (name, start, end, parent, run) in enumerate(self.spans):
            layer = runs.setdefault(run, {}).setdefault(
                name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0.0}
            )
            layer["self_s"] += (end - start) - child_time[index]
            layer["calls"] += 1
            # Busy counts outermost spans only (push_block calls
            # push_fragments, predict_batch calls query_batch).
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                layer["busy_s"] += end - start
        return runs

    def write_chrome_trace(self, path) -> None:
        """The spans as Chrome-trace "complete" events (load in
        chrome://tracing or Perfetto); one track per pass."""
        origin = min((span[1] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": run,
                "args": {"parent": self.spans[parent][0] if parent >= 0 else None},
            }
            for name, start, end, parent, run in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# -- which calls belong to which layer ----------------------------------------


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the interaction table in README.md names."""
    import repro.classify.features as features_module
    import repro.jobs as jobs_package
    import repro.pipeline.streaming as streaming_module
    from repro.classify.features import IncrementalPatternBuilder
    from repro.core.trigger import AdaptiveTrigger
    from repro.jobs import Ledger
    from repro.meso import MesoClassifier
    from repro.pipeline.builder import AcousticPipeline, BuiltPipeline
    from repro.pipeline.results import SignalChunk
    from repro.pipeline.river_adapter import EnsembleStageOperator
    from repro.pipeline.stages import ClassifyStage, ExtractStage, FeatureStage
    from repro.pipeline.streaming import ChunkedAnomalyScorer, ChunkedCutter
    from repro.store import StoreReader, StoreWriter

    wrap = tracer.wrap
    size = lambda counter: lambda args, out: {counter: len(out)}  # noqa: E731

    wrap(AdaptiveTrigger, "apply", "core.trigger",
         count=lambda args, out: {"core.trigger.samples": out.size})
    wrap(ChunkedAnomalyScorer, "process", "pipeline.scorer")
    wrap(streaming_module, "windowed_code_counts", "timeseries.code_counts")
    wrap(ChunkedCutter, "push_block", "pipeline.cutter")
    wrap(ChunkedCutter, "flush", "pipeline.cutter")
    wrap(ChunkedCutter, "push_fragments", "pipeline.cutter", count=size("pipeline.cutter.fragments"))
    wrap(ChunkedCutter, "flush_fragments", "pipeline.cutter", count=size("pipeline.cutter.fragments"))

    wrap(ExtractStage, "process", "pipeline.extract",
         count=lambda args, out: {
             "pipeline.chunks_in": float(isinstance(args[1], SignalChunk)),
             "pipeline.events_out": len(out),
         })
    wrap(ExtractStage, "flush", "pipeline.extract", count=size("pipeline.events_out"))
    wrap(BuiltPipeline, "run", "pipeline.engine")
    wrap(BuiltPipeline, "run_from_store", "pipeline.engine")
    wrap(BuiltPipeline, "extract_stream", "pipeline.engine", generator=True)
    wrap(BuiltPipeline, "run_corpus", "pipeline.executor")
    wrap(AcousticPipeline, "run_corpus", "pipeline.executor")

    wrap(FeatureStage, "process", "pipeline.features")
    wrap(IncrementalPatternBuilder, "push", "classify.patterns", count=size("classify.patterns.count"))
    wrap(features_module, "dft_records", "dsp.spectra")
    wrap(features_module, "paa_records", "timeseries.paa")

    wrap(ClassifyStage, "process", "pipeline.classify")
    wrap(MesoClassifier, "predict_batch", "meso.query")
    wrap(MesoClassifier, "query_batch", "meso.query",
         count=lambda args, out: {"meso.query.patterns": len(args[1])})

    wrap(EnsembleStageOperator, "process",
         lambda args: f"river.operators.{args[0].name}")

    wrap(StoreReader, "iter_ensembles", "store.read", generator=True)
    wrap(StoreReader, "result", "store.read")
    wrap(StoreWriter, "write_result", "store.write")
    wrap(StoreWriter, "write_ensembles", "store.write")
    wrap(StoreWriter, "flush", "store.flush")

    transition = lambda args, out: {"jobs.ledger.transitions": 1}  # noqa: E731
    wrap(Ledger, "claim_batch", "jobs.ledger.transition", count=transition)
    wrap(Ledger, "mark_done", "jobs.ledger.transition", count=transition)
    wrap(Ledger, "mark_failed", "jobs.ledger.transition", count=transition)
    wrap(Ledger, "save", "jobs.ledger.save",
         count=lambda args, out: {"jobs.ledger.bytes_rewritten": args[0].path.stat().st_size})
    # builder.run_corpus resolves `from ..jobs import run_corpus` per call.
    wrap(jobs_package, "run_corpus", "jobs.executor")


# -- river layers, one at a time ----------------------------------------------


def replay_river_layers(tracer: Tracer, workload) -> None:
    """Push ``workload.records`` through each river layer on its own."""
    from repro.river.errors import ChannelFull, ChannelSendError
    from repro.river.pipeline import Pipeline as RiverPipeline
    from repro.river.serialization import RecordFrameDecoder, frame_record_views
    from repro.river.transport import LOOPBACK, SocketChannel

    records = workload.records

    # serialization: frame every record, then decode the byte stream in the
    # 64 KiB reads a SocketChannel would see.
    with tracer.span("river.serialization.frame"):
        frames = [frame_record_views(record) for record in records]
    blob = b"".join(bytes(view) for views in frames for view in views)
    decoder = RecordFrameDecoder()
    decoded = 0
    with tracer.span("river.serialization.decode"):
        view = memoryview(blob)
        for start in range(0, len(blob), 1 << 16):
            decoded += len(decoder.feed(view[start : start + (1 << 16)]))
    tracer.count("river.serialization.bytes", len(blob))
    tracer.count("river.serialization.records", decoded)

    # transport: the same stream over one TCP loopback SocketChannel pair,
    # no operators; one thread alternates sending and draining.
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind((LOOPBACK, 0))
    listener.listen(1)
    sender = SocketChannel(socket.create_connection(listener.getsockname()), capacity=256)
    accepted, _ = listener.accept()
    listener.close()
    receiver = SocketChannel(accepted, capacity=None)
    received = 0

    def drain() -> int:
        taken = 0
        while receiver.get() is not None:
            taken += 1
        return taken

    with tracer.span("river.transport.loopback"):
        for record in records:
            while True:
                try:
                    sender.put(record)
                    break
                except ChannelFull:
                    received += drain()
        while received < len(records):
            try:
                sender.flush(timeout=0.001)
            except ChannelSendError:
                pass  # kernel buffer full: the drain below makes room
            received += drain()
    tracer.count("river.transport.send_syscalls", sender.send_syscalls)
    tracer.count("river.transport.recv_syscalls", receiver.recv_syscalls)
    sender.close()
    receiver.close()

    # operators: the in-process river pipeline, EnsembleStageOperator.process
    # wrapped per operator name (and the stage layers under it).
    operators = workload.spec.to_river().operators[1:]
    with tracer.span("river.operators.replay"):
        RiverPipeline(operators).run(records)


# -- span tables -> metrics ----------------------------------------------------

#: per-layer metric -> where its per-pass value is read: the busy or self
#: time of a span name, a counter, or a number the pass observed of its own
#: outputs.  (chunk_p50_ms / chunk_p99_ms, meso.spheres and the two trace.*
#: ratios are derived in run.py.)
LAYER_METRICS = {
    "core.trigger.busy_s": ("busy_s", "core.trigger"),
    "core.trigger.samples": ("count", "core.trigger.samples"),
    "pipeline.scorer.busy_s": ("busy_s", "pipeline.scorer"),
    "timeseries.code_counts.busy_s": ("busy_s", "timeseries.code_counts"),
    "pipeline.cutter.busy_s": ("busy_s", "pipeline.cutter"),
    "pipeline.cutter.fragments": ("count", "pipeline.cutter.fragments"),
    "pipeline.extract.self_s": ("self_s", "pipeline.extract"),
    "pipeline.engine.self_s": ("self_s", "pipeline.engine"),
    "pipeline.chunks_in": ("count", "pipeline.chunks_in"),
    "pipeline.events_out": ("count", "pipeline.events_out"),
    "pipeline.features.busy_s": ("busy_s", "pipeline.features"),
    "classify.patterns.busy_s": ("busy_s", "classify.patterns"),
    "classify.patterns.count": ("count", "classify.patterns.count"),
    "dsp.spectra.busy_s": ("busy_s", "dsp.spectra"),
    "timeseries.paa.busy_s": ("busy_s", "timeseries.paa"),
    "pipeline.classify.busy_s": ("busy_s", "pipeline.classify"),
    "meso.query.busy_s": ("busy_s", "meso.query"),
    "meso.query.patterns": ("count", "meso.query.patterns"),
    "river.serialization.frame_s": ("busy_s", "river.serialization.frame"),
    "river.serialization.decode_s": ("busy_s", "river.serialization.decode"),
    "river.serialization.bytes": ("count", "river.serialization.bytes"),
    "river.serialization.records": ("count", "river.serialization.records"),
    "river.transport.loopback_s": ("busy_s", "river.transport.loopback"),
    "river.transport.send_syscalls": ("count", "river.transport.send_syscalls"),
    "river.transport.recv_syscalls": ("count", "river.transport.recv_syscalls"),
    "river.transport.launch_s": ("observed", "river.transport.launch_s"),
    "river.operators.features.busy_s": ("busy_s", "river.operators.features-stage"),
    "river.operators.classify.busy_s": ("busy_s", "river.operators.classify-stage"),
    "river.adapter.collect_s": ("observed", "river.adapter.collect_s"),
    "store.read.busy_s": ("busy_s", "store.read"),
    "store.write.busy_s": ("busy_s", "store.write"),
    "store.flush.busy_s": ("busy_s", "store.flush"),
    "store.shards": ("observed", "store.shards"),
    "store.bytes": ("observed", "store.bytes"),
    "jobs.ledger.transition_s": ("busy_s", "jobs.ledger.transition"),
    "jobs.ledger.transitions": ("count", "jobs.ledger.transitions"),
    "jobs.ledger.save_s": ("busy_s", "jobs.ledger.save"),
    "jobs.ledger.bytes_rewritten": ("count", "jobs.ledger.bytes_rewritten"),
    "jobs.executor.self_s": ("self_s", "jobs.executor"),
    "pipeline.executor.self_s": ("self_s", "pipeline.executor"),
}


def per_layer_metrics(tracer: Tracer, runs, passes) -> dict[str, float]:
    """Median over the traced passes of every metric in ``LAYER_METRICS``
    (``runs`` is ``tracer.layer_times()``); a layer the workload never
    touched reads 0."""
    metrics = {}
    for name, (kind, key) in LAYER_METRICS.items():
        if kind == "observed":
            values = [result.observed.get(key, 0.0) for result in passes]
        elif kind == "count":
            values = [tracer.counts.get((run, key), 0.0) for run in runs]
        else:
            values = [layers.get(key, {}).get(kind, 0.0) for layers in runs.values()]
        metrics[name] = float(statistics.median(values))
    return metrics


def unattributed_share(runs) -> float:
    """The harness's own share of the traced wall: the root span's self time
    (what no layer span covers) over its duration, median over passes."""
    return statistics.median(
        layers[ROOT_SPAN]["self_s"] / layers[ROOT_SPAN]["busy_s"] for layers in runs.values()
    )


def format_layer_table(runs) -> str:
    """Busy, self, calls and share of the traced wall per layer (medians over
    the traced passes), largest self time first."""
    runs = list(runs.values())

    def column(layer: str, kind: str) -> float:
        return statistics.median(layers.get(layer, {}).get(kind, 0.0) for layers in runs)

    wall = column(ROOT_SPAN, "busy_s")
    rows = sorted(
        ((column(layer, "self_s"), layer) for layer in {name for layers in runs for name in layers}),
        reverse=True,
    )
    lines = [f"{'layer':<36}{'busy_s':>10}{'self_s':>10}{'calls':>9}{'self/wall':>11}"]
    for self_s, layer in rows:
        lines.append(
            f"{layer:<36}{column(layer, 'busy_s'):>10.4f}{self_s:>10.4f}"
            f"{column(layer, 'calls'):>9.0f}{self_s / wall:>11.1%}"
        )
    return "\n".join(lines)
