"""Known issue, recorded rather than hidden: a ``fan_out=2`` process deployment
stalls when pre-cut ensembles are fed at full speed.

Found while sizing ``river_ingest``.  The same downstream segments (features,
classify) compiled with ``fan_out=2`` and placed on two hosts by the
``StationScheduler`` label ~150 pre-cut ensembles bit-identically; at ~670 the
deployment intermittently, and at ``river_ingest``'s own ~1 400 every time,
raises ``PlacementError: host 'host-0' stalled: segments classify-partition,
classify-stage-r0 made no progress`` (or ``no records moved``).  The clip-fed
``deploy(fan_out=2)`` path (extraction in front, so records arrive slowly) is
fine.  Fan-out therefore stays out of the timed workload; fixing it is a later
PR under ``src/``, at which point the xfail below starts passing.  Where the
race starts depends on the box, so no smaller load is asserted to pass here
(``fan_out_ingest(tmp_path, 30.0)`` is the ~150-ensemble case); the path without
fan-out is checked by every ``river_ingest`` run.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from repro.pipeline.river_adapter import collect_result, replica_groups  # noqa: E402
from repro.river.errors import PlacementError  # noqa: E402
from repro.river.pipeline import split_into_segments  # noqa: E402
from repro.river.placement import Host, StationScheduler  # noqa: E402
from repro.river.transport import ProcessDeployment  # noqa: E402


def fan_out_ingest(tmp_path, load_audio_s: float) -> bool:
    """``river_ingest``'s load at ``load_audio_s`` seconds of ensemble audio
    through the fan_out=2 graph on two process hosts; digest matches?"""
    workload = wl.RiverIngest(1, dataclasses.replace(wl.FULL, load_audio_s=load_audio_s), tmp_path)
    workload.setup()
    segments = split_into_segments(workload.spec.to_river(fan_out=2))[1:]
    hosts = {name: Host(name) for name in ("host-0", "host-1")}
    plan = StationScheduler(hosts=hosts).plan(segments, replica_groups(segments))
    outputs = ProcessDeployment(segments, plan, stall_timeout=5.0).run(iter(workload.records))
    return wl.digest_results([collect_result(outputs, wl.RATE)]) == workload.reference


@pytest.mark.xfail(
    strict=False,
    raises=PlacementError,
    reason="fan_out=2 ProcessDeployment stalls (classify-partition, classify-stage-r0 "
    "make no progress) when ~1400 pre-cut ensembles are fed at full speed",
)
def test_fan_out_ingest_full_speed_load_matches_reference(tmp_path):
    assert fan_out_ingest(tmp_path, load_audio_s=wl.FULL.load_audio_s)  # ~1400 ensembles
