"""Tests for pipelines, segments, hosts, QoS-driven relocation and fault recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.river import (
    Deployment,
    FaultInjector,
    Host,
    PassThrough,
    Pipeline,
    PipelineSegment,
    PlacementError,
    QoSMonitor,
    QueueChannel,
    ScopeType,
    SegmentCrash,
    SegmentState,
    Subtype,
    close_scope,
    count_bad_closes,
    data_record,
    end_of_stream,
    open_scope,
    scope_repair_summary,
    validate_stream,
)
from repro.river.operator_base import FunctionOperator, SinkOperator


def clip_like_stream(rng, clips=2, records_per_clip=5, record_size=64):
    """A synthetic clip-scoped stream (no audio semantics needed)."""
    records = []
    for c in range(clips):
        records.append(open_scope(0, ScopeType.CLIP.value, context={"clip_index": c}))
        for i in range(records_per_clip):
            records.append(
                data_record(rng.normal(size=record_size), subtype=Subtype.AUDIO.value,
                            scope=1, scope_type=ScopeType.CLIP.value, sequence=i)
            )
        records.append(close_scope(0, ScopeType.CLIP.value))
    records.append(end_of_stream())
    return records


def doubling_operator():
    return FunctionOperator(lambda r: [r.copy(payload=r.payload * 2)] if r.is_data else [r], name="double")


class TestPipeline:
    def test_run_processes_and_flushes(self, rng):
        stream = clip_like_stream(rng)
        pipeline = Pipeline([doubling_operator(), PassThrough()])
        outputs = pipeline.run(stream)
        assert validate_stream(outputs) == []
        data_in = [r for r in stream if r.is_data]
        data_out = [r for r in outputs if r.is_data]
        assert len(data_in) == len(data_out)
        np.testing.assert_allclose(data_out[0].payload, data_in[0].payload * 2)

    def test_run_appends_end_of_stream_if_missing(self, rng):
        pipeline = Pipeline([PassThrough()])
        outputs = pipeline.run([data_record(rng.normal(size=4))])
        assert outputs[-1].is_end

    def test_pipeline_requires_operators(self):
        with pytest.raises(ValueError):
            Pipeline([])

    def test_sink_operator_collects(self, rng):
        sink = SinkOperator()
        pipeline = Pipeline([doubling_operator(), sink])
        pipeline.run(clip_like_stream(rng, clips=1))
        assert len(sink.collected) > 0
        # Sinks swallow records, so nothing except flush output leaves the pipeline.


class TestSegments:
    def _segment(self, name="seg", operators=None):
        return PipelineSegment(
            name=name,
            pipeline=Pipeline(operators or [PassThrough()]),
            input_channel=QueueChannel(),
            output_channel=QueueChannel(),
        )

    def test_segment_processes_stream_and_finishes(self, rng):
        segment = self._segment()
        for record in clip_like_stream(rng, clips=1):
            segment.input_channel.put(record)
        while segment.state == SegmentState.RUNNING:
            if segment.step(8) == 0:
                break
        assert segment.state == SegmentState.FINISHED
        outputs = list(segment.drain_output())
        assert validate_stream(outputs) == []
        assert outputs[-1].is_end

    def test_segment_abort_closes_open_scopes(self, rng):
        segment = self._segment()
        segment.input_channel.put(open_scope(0, ScopeType.CLIP.value))
        segment.input_channel.put(data_record(rng.normal(size=8), scope=1, scope_type=ScopeType.CLIP.value))
        segment.step(2)
        segment.abort("host failed")
        outputs = list(segment.drain_output())
        assert segment.state == SegmentState.FAILED
        assert validate_stream(outputs) == []
        assert count_bad_closes(outputs) == 1

    def test_segment_stop_and_resume(self, rng):
        segment = self._segment()
        segment.input_channel.put(data_record(rng.normal(size=4)))
        segment.stop()
        assert segment.step(4) == 0
        segment.resume()
        assert segment.step(4) == 1

    def test_segment_handles_closed_input_channel(self, rng):
        segment = self._segment()
        segment.input_channel.put(open_scope(0, ScopeType.CLIP.value))
        segment.step(1)
        segment.input_channel.close()
        segment.step(4)
        outputs = list(segment.drain_output())
        assert segment.state == SegmentState.FAILED
        assert validate_stream(outputs) == []


class TestDeployment:
    def _three_segment_deployment(self, rng, records=None):
        """source-fed segment -> middle segment -> sink segment."""
        deployment = Deployment(batch_size=4)
        deployment.add_host(Host("field", speed=500.0))
        deployment.add_host(Host("relay", speed=1000.0))
        deployment.add_host(Host("observatory", speed=4000.0))

        first = PipelineSegment(
            name="acquire", pipeline=Pipeline([PassThrough()]),
            input_channel=QueueChannel(), output_channel=QueueChannel(),
        )
        second = PipelineSegment(
            name="analyse", pipeline=Pipeline([doubling_operator()]),
            input_channel=first.output_channel, output_channel=QueueChannel(),
        )
        third = PipelineSegment(
            name="store", pipeline=Pipeline([PassThrough()]),
            input_channel=second.output_channel, output_channel=QueueChannel(),
        )
        deployment.place(first, "field")
        deployment.place(second, "relay")
        deployment.place(third, "observatory")
        for record in records if records is not None else clip_like_stream(rng, clips=3):
            first.input_channel.put(record)
        return deployment, first, second, third

    def test_run_to_completion(self, rng):
        deployment, first, second, third = self._three_segment_deployment(rng)
        deployment.run()
        assert deployment.finished
        outputs = list(third.drain_output())
        assert validate_stream(outputs) == []
        assert all(host.busy_seconds > 0 for host in deployment.hosts.values())

    def test_relocation_mid_run_preserves_stream(self, rng):
        deployment, first, second, third = self._three_segment_deployment(rng)
        deployment.step_all()
        deployment.relocate("analyse", "observatory")
        deployment.run()
        outputs = list(third.drain_output())
        assert validate_stream(outputs) == []
        assert deployment.placement["analyse"] == "observatory"
        assert ("relocate", "analyse: relay -> observatory") in deployment.events

    def test_relocation_validation(self, rng):
        deployment, *_ = self._three_segment_deployment(rng)
        with pytest.raises(PlacementError):
            deployment.relocate("analyse", "nonexistent-host")
        with pytest.raises(PlacementError):
            deployment.relocate("nonexistent-segment", "relay")

    def test_duplicate_placement_rejected(self, rng):
        deployment, first, *_ = self._three_segment_deployment(rng)
        with pytest.raises(PlacementError):
            deployment.place(first, "relay")

    def test_host_failure_aborts_segments_and_downstream_recovers(self, rng):
        deployment, first, second, third = self._three_segment_deployment(rng)
        deployment.step_all()  # let some records through
        victims = deployment.fail_host("relay")
        assert victims == ["analyse"]
        deployment.run()
        outputs = list(third.drain_output())
        # The stream reaching the store segment stays well-formed even though
        # the middle segment died mid-clip.
        assert validate_stream(outputs) == []
        summary = scope_repair_summary(outputs)
        assert summary.balanced

    def test_run_raises_when_every_host_is_unavailable(self, rng):
        """Regression: with all hosts marked unavailable, ``run`` used to
        return quietly as if the pipeline had drained, leaving running
        segments stuck forever; it must raise PlacementError instead."""
        deployment, first, second, third = self._three_segment_deployment(rng)
        deployment.step_all()  # some progress, streams still mid-clip
        for host in deployment.hosts.values():
            host.available = False
        with pytest.raises(PlacementError, match="stalled"):
            deployment.run()

    def test_run_finishes_when_a_host_recovers(self, rng):
        deployment, first, second, third = self._three_segment_deployment(rng)
        for host in deployment.hosts.values():
            host.available = False
        with pytest.raises(PlacementError):
            deployment.run()
        for host in deployment.hosts.values():
            host.available = True
        deployment.run()
        assert deployment.finished

    def test_qos_monitor_reports_backlog(self, rng):
        deployment, first, second, third = self._three_segment_deployment(
            rng, records=clip_like_stream(rng, clips=10, records_per_clip=40)
        )
        monitor = QoSMonitor(backlog_threshold=10)
        deployment.step_all()
        reports = monitor.observe(deployment)
        assert {r.segment for r in reports} == {"acquire", "analyse", "store"}
        assert any(r.backlog > 0 for r in reports)

    def test_qos_rebalancing_moves_overloaded_segment(self, rng):
        deployment = Deployment(batch_size=2)
        deployment.add_host(Host("slow", speed=10.0))
        deployment.add_host(Host("fast", speed=10_000.0))
        upstream = PipelineSegment(
            name="up", pipeline=Pipeline([PassThrough()]),
            input_channel=QueueChannel(), output_channel=QueueChannel(),
        )
        downstream = PipelineSegment(
            name="down", pipeline=Pipeline([PassThrough()]),
            input_channel=upstream.output_channel, output_channel=QueueChannel(),
        )
        deployment.place(upstream, "fast")
        deployment.place(downstream, "slow")
        for record in clip_like_stream(rng, clips=5, records_per_clip=50):
            upstream.input_channel.put(record)
        monitor = QoSMonitor(backlog_threshold=20)
        deployment.run(monitor=monitor, rebalance=True)
        assert deployment.placement["down"] == "fast"
        assert any(event == "relocate" for event, _ in deployment.events)


class TestDoneAndStalled:
    """One notion of done (finished *and* delivered) and one stall report."""

    def test_finished_waits_for_a_held_back_end_of_stream(self, rng):
        """Regression: a segment that read END_OF_STREAM while its bounded
        output channel was full is FINISHED with the marker still in its
        outbox; ``Deployment.finished`` said True and a caller following
        ``run``'s docstring stopped with the stream's end undelivered."""
        deployment = Deployment(hosts={"only": Host("only")})
        segment = PipelineSegment(
            name="tail", pipeline=Pipeline([PassThrough()]),
            input_channel=QueueChannel(), output_channel=QueueChannel(capacity=1),
        )
        deployment.place(segment, "only")
        segment.input_channel.put(data_record(np.zeros(4)))
        segment.input_channel.put(end_of_stream())
        deployment.run()
        assert segment.finished and not segment.done
        assert segment.pending_output == 1
        assert not deployment.finished
        assert deployment.unfinished() == ["tail"]
        assert "tail (on only)" in str(deployment.stall_error())
        outputs = list(segment.drain_output())
        deployment.run()
        outputs.extend(segment.drain_output())
        assert deployment.finished
        assert [r.is_end for r in outputs] == [False, True]

    def test_stopped_segment_strands_itself_and_everything_downstream(self, rng):
        """A ``stop()``ped segment never resumed, stream fed to its end:
        ``run`` returns (a resume could still move it), but it and every
        segment downstream are unfinished and the stall report names each
        with its host."""
        deployment = Deployment(hosts={"a": Host("a"), "b": Host("b")})
        chain = []
        upstream = QueueChannel()
        for name in ("head", "paused", "after", "last"):
            segment = PipelineSegment(
                name=name, pipeline=Pipeline([PassThrough()]),
                input_channel=upstream, output_channel=QueueChannel(),
            )
            deployment.place(segment, "a" if name in ("head", "after") else "b")
            chain.append(segment)
            upstream = segment.output_channel
        for record in clip_like_stream(rng, clips=1):
            chain[0].input_channel.put(record)
        chain[1].stop()
        deployment.run()
        assert chain[0].done
        assert deployment.unfinished() == ["paused", "after", "last"]
        assert not deployment.finished
        message = str(deployment.stall_error())
        assert "stalled" in message
        for where in ("paused (on b)", "after (on a)", "last (on b)"):
            assert where in message
        assert "head" not in message
        chain[1].resume()
        deployment.run()
        assert deployment.finished
        assert validate_stream(list(chain[-1].drain_output())) == []

    def test_run_names_every_unfinished_segment_when_a_host_is_down(self, rng):
        deployment = Deployment(hosts={"up": Host("up"), "down": Host("down")})
        first = PipelineSegment(
            name="first", pipeline=Pipeline([PassThrough()]),
            input_channel=QueueChannel(), output_channel=QueueChannel(),
        )
        second = PipelineSegment(
            name="second", pipeline=Pipeline([PassThrough()]),
            input_channel=first.output_channel, output_channel=QueueChannel(),
        )
        deployment.place(first, "down")
        deployment.place(second, "up")
        for record in clip_like_stream(rng, clips=1):
            first.input_channel.put(record)
        deployment.hosts["down"].available = False
        with pytest.raises(PlacementError) as error:
            deployment.run()
        message = str(error.value)
        assert "first (on down, unavailable)" in message
        assert "second (on up)" in message

    def test_removed_fabric_options_are_type_errors(self):
        with pytest.raises(TypeError):
            Deployment(reference_speed=500.0)
        with pytest.raises(TypeError):
            Deployment().run(max_rounds=10)
        with pytest.raises(TypeError):
            QoSMonitor().recommend(Deployment(), spread_groups=False)


class TestFaultInjection:
    def test_fault_injector_crashes_after_limit(self, rng):
        injector = FaultInjector(crash_after=3)
        pipeline = Pipeline([injector, PassThrough()])
        stream = clip_like_stream(rng, clips=1, records_per_clip=10)
        with pytest.raises(SegmentCrash):
            pipeline.run(stream)

    def test_crash_recovery_produces_balanced_stream(self, rng):
        """A segment that dies mid-scope is aborted; downstream sees BadCloseScope."""
        upstream = PipelineSegment(
            name="flaky",
            pipeline=Pipeline([FaultInjector(crash_after=4), PassThrough()]),
            input_channel=QueueChannel(),
            output_channel=QueueChannel(),
        )
        for record in clip_like_stream(rng, clips=2, records_per_clip=10):
            upstream.input_channel.put(record)
        crashed = False
        while upstream.state == SegmentState.RUNNING:
            try:
                if upstream.step(1) == 0:
                    break
            except SegmentCrash:
                crashed = True
                upstream.abort("segment crashed")
        assert crashed
        # abort() already repaired the stream; downstream just reads it.
        records = list(upstream.drain_output())
        assert records[-1].is_end
        assert validate_stream(records) == []
        summary = scope_repair_summary(records)
        assert summary.bad_close_scopes >= 1
        assert summary.balanced
        assert "segment crashed" in " ".join(summary.reasons)

    def test_scope_repair_summary_counts(self, rng):
        records = clip_like_stream(rng, clips=2)
        summary = scope_repair_summary(records)
        assert summary.open_scopes == 2
        assert summary.close_scopes == 2
        assert summary.bad_close_scopes == 0
        assert summary.end_of_stream == 1
        assert summary.balanced

    def test_fault_injector_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(crash_after=-1)
