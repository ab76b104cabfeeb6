"""Hosts, deployments, QoS monitoring and dynamic segment relocation.

Dynamic River's distinguishing feature is that pipeline segments can be
*dynamically relocated* to more suitable hosts to improve quality of
service.  This module provides:

* :class:`Host` — a simulated processing host with a relative speed factor;
  stepping a segment on a host accrues simulated processing time.
* :class:`Deployment` — a set of hosts, the segments placed on them and the
  channels wiring segments together; :meth:`Deployment.run` steps every
  running segment round-robin until the whole pipeline drains (a process
  worker, :class:`~repro.river.transport.ProcessHost`, is a one-host
  deployment whose edge channels are sockets).
* :class:`QoSMonitor` — tracks per-segment backlog and processing time and
  recommends relocations when a host is overloaded.  Segments placed with a
  ``group`` (fan-out replicas of the same stage) are kept spread across
  distinct hosts when relocation candidates are chosen.
* :class:`StationScheduler` — a deterministic partition-by-station placement
  policy: work keyed by sensor station is split across hosts so that one
  station's segments always land on the same host while the per-host load,
  normalised by host speed, stays within a provable bound of every other
  host's.
* :meth:`Deployment.relocate` — move a segment to another host mid-run
  (recomposition); scope integrity is preserved by the segments' own
  scope-repair machinery.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

from .errors import PlacementError
from .pipeline import PipelineSegment, SegmentState

__all__ = ["Host", "QoSMonitor", "QoSReport", "Deployment", "StationScheduler"]


def station_hash(key: Hashable) -> int:
    """A stable non-negative hash of a station key.

    ``hash()`` on strings is salted per process, so it cannot be used for
    placement decisions that must agree across hosts and runs; CRC-32 over
    the key's text form is stable everywhere.
    """
    return zlib.crc32(str(key).encode("utf-8"))


#: Host speed at which a segment's scheduling turn is exactly
#: ``Deployment.batch_size`` records (also the default :attr:`Host.speed`).
REFERENCE_SPEED = 1000.0


@dataclass
class Host:
    """A simulated host: a name, a relative speed and an availability flag."""

    name: str
    #: Records processed per simulated second (relative capacity).
    speed: float = REFERENCE_SPEED
    available: bool = True
    #: Total simulated processing seconds accrued on this host.
    busy_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError(f"host speed must be positive, got {self.speed}")

    def account(self, records: int) -> float:
        """Accrue processing time for ``records`` records; returns the cost."""
        cost = records / self.speed
        self.busy_seconds += cost
        return cost


@dataclass(frozen=True)
class QoSReport:
    """A snapshot of one segment's quality-of-service state."""

    segment: str
    host: str
    backlog: int
    processing_seconds: float
    state: str


@dataclass
class QoSMonitor:
    """Collects :class:`QoSReport` snapshots and flags overloaded segments."""

    #: Backlog (queued input records) above which a segment is considered
    #: overloaded and a relocation is recommended.
    backlog_threshold: int = 256

    def observe(self, deployment: "Deployment") -> list[QoSReport]:
        """Snapshot every segment in the deployment.

        A segment's backlog counts its input channel *plus* records its
        producers hold back in their outboxes because that channel is a
        full bounded channel — otherwise backpressure would cap the visible
        backlog at the channel capacity and overload could never cross
        ``backlog_threshold``.
        """
        snapshot = []
        for name, segment in deployment.segments.items():
            backlog = len(segment.input_channel) if segment.input_channel is not None else 0
            if segment.input_channel is not None:
                backlog += sum(
                    producer.pending_output
                    for producer in deployment.segments.values()
                    if producer.output_channel is segment.input_channel
                )
            snapshot.append(
                QoSReport(
                    segment=name,
                    host=deployment.placement[name],
                    backlog=backlog,
                    processing_seconds=segment.processing_seconds,
                    state=segment.state,
                )
            )
        return snapshot

    def overloaded(self, deployment: "Deployment") -> list[str]:
        """Names of segments whose current backlog exceeds the threshold."""
        return [
            report.segment
            for report in self.observe(deployment)
            if report.backlog > self.backlog_threshold and report.state == SegmentState.RUNNING
        ]

    def recommend(self, deployment: "Deployment") -> dict[str, str]:
        """Recommend a new host for each overloaded segment (fastest idle host).

        Segments that were placed with a ``group`` — fan-out replicas of one
        pipeline stage — are never recommended onto a host that already
        runs a sibling of the same group, unless no other host is
        available: co-locating two replicas would serialise exactly the
        work the fan-out exists to parallelise.
        """
        recommendations: dict[str, str] = {}
        for segment_name in self.overloaded(deployment):
            current = deployment.placement[segment_name]
            occupied = deployment.group_hosts(segment_name)
            usable = [
                host
                for host in deployment.hosts.values()
                if host.available and host.name != current
            ]
            # Prefer hosts without a sibling replica; fall back to
            # co-location rather than leaving the segment stuck.
            candidates = [h for h in usable if h.name not in occupied] or usable
            if not candidates:
                continue
            best = max(candidates, key=lambda host: host.speed - host.busy_seconds)
            if best.speed > deployment.hosts[current].speed:
                recommendations[segment_name] = best.name
        return recommendations


@dataclass
class Deployment:
    """Segments placed on hosts, stepped round-robin until completion."""

    hosts: dict[str, Host] = field(default_factory=dict)
    segments: dict[str, PipelineSegment] = field(default_factory=dict)
    #: segment name -> host name
    placement: dict[str, str] = field(default_factory=dict)
    #: segment name -> replica-group label (fan-out replicas of one stage
    #: share a label so schedulers and the QoS monitor can spread them).
    groups: dict[str, str] = field(default_factory=dict)
    #: Number of records a segment may process per scheduling turn when its
    #: host runs at :data:`REFERENCE_SPEED`; faster hosts get proportionally
    #: more, slower hosts proportionally fewer (never less than one).
    batch_size: int = 64
    #: Log of (event, detail) tuples describing placements and relocations.
    events: list[tuple[str, str]] = field(default_factory=list)
    #: Name of the segment :meth:`step_all` is stepping right now (``None``
    #: between turns) — whoever catches an operator's exception blames it.
    stepping: str | None = field(default=None, init=False)

    # -- construction ----------------------------------------------------------

    def add_host(self, host: Host) -> Host:
        if host.name in self.hosts:
            raise PlacementError(f"host {host.name!r} already exists")
        self.hosts[host.name] = host
        return host

    def place(
        self, segment: PipelineSegment, host_name: str, group: str | None = None
    ) -> None:
        """Place a segment on a host.

        ``group`` labels fan-out replicas of the same stage; the QoS monitor
        and :class:`StationScheduler` use it to keep siblings on distinct
        hosts.
        """
        if host_name not in self.hosts:
            raise PlacementError(f"unknown host {host_name!r}")
        if not self.hosts[host_name].available:
            raise PlacementError(f"host {host_name!r} is not available")
        if segment.name in self.segments:
            raise PlacementError(f"segment {segment.name!r} is already placed")
        self.segments[segment.name] = segment
        self.placement[segment.name] = host_name
        if group is not None:
            self.groups[segment.name] = group
        self.events.append(("place", f"{segment.name} -> {host_name}"))

    def group_hosts(self, segment_name: str) -> set[str]:
        """Hosts currently running siblings of ``segment_name``'s group."""
        group = self.groups.get(segment_name)
        if group is None:
            return set()
        return {
            self.placement[name]
            for name, label in self.groups.items()
            if label == group
            and name != segment_name
            and self.segments[name].state == SegmentState.RUNNING
        }

    # -- recomposition ---------------------------------------------------------

    def relocate(self, segment_name: str, host_name: str) -> None:
        """Move a segment to another host (dynamic recomposition).

        The segment is paused, its placement updated and then resumed; its
        channels are untouched, so records buffered in its input channel are
        processed on the new host and no data is lost.
        """
        if segment_name not in self.segments:
            raise PlacementError(f"unknown segment {segment_name!r}")
        if host_name not in self.hosts:
            raise PlacementError(f"unknown host {host_name!r}")
        if not self.hosts[host_name].available:
            raise PlacementError(f"host {host_name!r} is not available")
        segment = self.segments[segment_name]
        segment.stop()
        previous = self.placement[segment_name]
        self.placement[segment_name] = host_name
        segment.resume()
        self.events.append(("relocate", f"{segment_name}: {previous} -> {host_name}"))

    def fail_host(self, host_name: str) -> list[str]:
        """Mark a host as failed; abort its segments and return their names.

        Aborted segments close their open scopes with BadCloseScope records,
        so downstream segments keep seeing well-formed streams.
        """
        if host_name not in self.hosts:
            raise PlacementError(f"unknown host {host_name!r}")
        self.hosts[host_name].available = False
        victims = [name for name, placed in self.placement.items() if placed == host_name]
        for name in victims:
            segment = self.segments[name]
            if not segment.finished:
                segment.abort(f"host {host_name} failed")
        self.events.append(("host_failure", host_name))
        return victims

    # -- execution --------------------------------------------------------------

    def step_all(self) -> int:
        """Give every segment one scheduling turn; returns how much moved.

        The only place a deployed segment is stepped, on either fabric.
        What moved is records handled plus held-back records a bounded
        output channel finally accepted — a finished segment keeps getting
        turns until its outbox is empty (see :attr:`PipelineSegment.done`).
        """
        moved = 0
        for name, segment in self.segments.items():
            backlogged = segment.pending_output
            if segment.state != SegmentState.RUNNING and not backlogged:
                continue
            host = self.hosts[self.placement[name]]
            if not host.available:
                continue
            allowance = max(1, int(round(self.batch_size * host.speed / REFERENCE_SPEED)))
            self.stepping = name
            processed = segment.step(allowance)
            if processed:
                segment.processing_seconds += host.account(processed)
            moved += processed + max(0, backlogged - segment.pending_output)
        self.stepping = None
        return moved

    def run(self, monitor: QoSMonitor | None = None, rebalance: bool = False) -> int:
        """Step all segments until a round moves nothing; returns the rounds run.

        With ``rebalance=True`` and a monitor, relocation recommendations are
        applied after every round (QoS-driven recomposition).  Every round
        that moves consumes queued records and nothing inside ``run`` adds
        any, so it terminates on any finite input.

        Nothing outside ``run`` can change the deployment while it runs, so
        a round that moves nothing is final.  If a not-done segment then
        sits on an unavailable host it can never run again and
        :meth:`stall_error` is raised.  Otherwise ``run`` returns and
        :attr:`finished` tells whether the stream ended: it stays False
        while input is still to come, a segment is stopped, or a bounded
        **final** output channel is full (``run`` has no consumer for it) —
        feed, resume or drain, then call ``run`` again.
        """
        for rounds in itertools.count(1):
            moved = self.step_all()
            if monitor is not None:
                if rebalance:
                    for segment_name, host_name in monitor.recommend(self).items():
                        self.relocate(segment_name, host_name)
                else:
                    monitor.observe(self)
            if not moved:
                hosts = (self.hosts[self.placement[name]] for name in self.unfinished())
                if not all(host.available for host in hosts):
                    raise self.stall_error()
                return rounds

    def unfinished(self) -> list[str]:
        """Names of the segments that are not :attr:`~PipelineSegment.done`."""
        return [name for name, segment in self.segments.items() if not segment.done]

    @property
    def finished(self) -> bool:
        """True when every segment is done: ended *and* its output delivered."""
        return not self.unfinished()

    def stall_error(self) -> PlacementError:
        """The stall report: every not-done segment with the host it sits on.

        For the caller that knows nothing will move again — ``run`` when a
        host is down, or whoever fed the stream to its end and still finds
        segments :meth:`unfinished` after ``run`` returned.
        """

        def where(name: str) -> str:
            host = self.hosts[self.placement[name]]
            return f"{name} (on {host.name}{'' if host.available else ', unavailable'})"

        stuck = ", ".join(where(name) for name in self.unfinished())
        return PlacementError(
            f"deployment stalled: nothing moved and segments {stuck} are not "
            "done; relocate segments off unavailable hosts (or fail those "
            "hosts to abort them cleanly), resume stopped segments and drain "
            "a full final output channel"
        )


@dataclass
class StationScheduler:
    """Deterministic partition-by-station placement across hosts.

    The scheduler solves the placement problem the paper's multi-station
    observatory poses: segments of work are keyed by the sensor station that
    produced them, stations must stay **sticky** (one station's work always
    lands on the same host, so per-station operator state never migrates
    implicitly) and hosts of different speeds must end up with comparable
    *normalised* load.

    :meth:`partition` implements greedy longest-processing-time assignment
    over station groups on related machines, which yields the documented
    per-host backlog bound:

    **Backlog bound.**  After ``partition(stations)`` over available hosts,
    for every pair of available hosts ``a`` and ``b``::

        load[a] / speed[a]  <=  load[b] / speed[b]  +  max_group / speed[b]

    where ``load`` is the sum of station weights assigned to a host and
    ``max_group`` is the largest per-station weight.  (Proof sketch: when
    the last group was assigned to ``a``, ``a`` minimised the normalised
    load among all hosts including that group's weight, and ``b``'s load
    only grew afterwards.)  The property suite in
    ``tests/test_placement_scheduler.py`` checks exactly this inequality.

    :meth:`place_segments` applies a partition to a :class:`Deployment`, and
    :meth:`spread_replicas` places fan-out replicas of one stage on distinct
    hosts (fastest first).  :meth:`rebalance` applies the group-aware
    :meth:`QoSMonitor.recommend` relocations mid-run.
    """

    hosts: dict[str, Host] = field(default_factory=dict)
    #: Station key -> host name decided so far (stickiness across calls).
    assignments: dict[Hashable, str] = field(default_factory=dict)
    #: Host name -> total station weight assigned so far.
    loads: dict[str, float] = field(default_factory=dict)

    @classmethod
    def for_deployment(cls, deployment: Deployment) -> "StationScheduler":
        """A scheduler over a deployment's hosts (shared Host objects)."""
        return cls(hosts=dict(deployment.hosts))

    def add_host(self, host: Host) -> Host:
        if host.name in self.hosts:
            raise PlacementError(f"host {host.name!r} already exists")
        self.hosts[host.name] = host
        return host

    # -- the partition policy --------------------------------------------------

    def _available(self) -> list[Host]:
        hosts = [host for host in self.hosts.values() if host.available]
        if not hosts:
            raise PlacementError(
                "no available host to schedule on: every host is unavailable"
            )
        return hosts

    def partition(
        self, stations: Iterable[Hashable] | Mapping[Hashable, float]
    ) -> dict[Hashable, str]:
        """Assign every station key to an available host.

        ``stations`` is an iterable of keys (weight 1 each; duplicates
        aggregate) or a mapping ``key -> weight``.  Keys already assigned in
        an earlier call keep their host (stickiness); new keys are assigned
        greedily, heaviest first, to the available host with the smallest
        normalised load ``(load + weight) / speed``.  Ties break by host
        speed (faster first) and then name, so the partition is fully
        deterministic.  Returns the mapping for the requested keys.
        """
        if isinstance(stations, Mapping):
            weights = {key: float(weight) for key, weight in stations.items()}
        else:
            weights = {}
            for key in stations:
                weights[key] = weights.get(key, 0.0) + 1.0
        for key, weight in weights.items():
            if weight < 0:
                raise PlacementError(
                    f"station {key!r} has negative weight {weight}"
                )
        available = self._available()
        result: dict[Hashable, str] = {}
        fresh = []
        for key in weights:
            host = self.assignments.get(key)
            if host is not None and host in self.hosts and self.hosts[host].available:
                # Sticky hit: the station's weight was accrued when it was
                # first assigned; counting it again on every lookup would
                # inflate the host's load and skew later assignments.
                result[key] = host
            else:
                fresh.append(key)
        # Heaviest group first (LPT); deterministic tie-break via the stable
        # station hash so iteration order of the input cannot matter.
        fresh.sort(key=lambda key: (-weights[key], station_hash(key), str(key)))
        for key in fresh:
            weight = weights[key]
            best = min(
                available,
                key=lambda host: (
                    (self.loads.get(host.name, 0.0) + weight) / host.speed,
                    -host.speed,
                    host.name,
                ),
            )
            self.loads[best.name] = self.loads.get(best.name, 0.0) + weight
            self.assignments[key] = best.name
            result[key] = best.name
        return result

    def host_for(self, station: Hashable, weight: float = 1.0) -> str:
        """The sticky host for one station (assigning it now if new)."""
        return self.partition({station: weight})[station]

    # -- applying a partition to a deployment ----------------------------------

    def place_segments(
        self,
        deployment: Deployment,
        segments: Mapping[Hashable, PipelineSegment]
        | Iterable[tuple[Hashable, PipelineSegment]],
        group: str | None = None,
    ) -> dict[str, str]:
        """Place station-keyed segments onto the deployment's hosts.

        ``segments`` maps a station key to the segment handling that
        station's records.  Returns ``segment name -> host name``.
        """
        items = (
            list(segments.items()) if isinstance(segments, Mapping) else list(segments)
        )
        mapping = self.partition([key for key, _ in items])
        placed: dict[str, str] = {}
        for key, segment in items:
            host_name = mapping[key]
            deployment.place(segment, host_name, group=group)
            placed[segment.name] = host_name
        return placed

    def spread_replicas(
        self,
        deployment: Deployment,
        segments: Iterable[PipelineSegment],
        group: str,
    ) -> dict[str, str]:
        """Place fan-out replicas of one stage on distinct hosts.

        Replicas go to the fastest available hosts first; when there are
        more replicas than hosts, assignment wraps around (co-location is
        then unavoidable).  Every replica is placed with the ``group``
        label, so :meth:`QoSMonitor.recommend` keeps them spread during
        later relocations.
        """
        segments = list(segments)
        mapping = self.plan(segments, groups={s.name: group for s in segments})
        placed: dict[str, str] = {}
        for segment in segments:
            deployment.place(segment, mapping[segment.name], group=group)
            placed[segment.name] = mapping[segment.name]
        return placed

    def plan(
        self,
        segments: Iterable[PipelineSegment],
        groups: Mapping[str, str] | None = None,
    ) -> dict[str, str]:
        """Plan a placement (segment name → host name) without a deployment.

        This is the fabric-independent core of replica spreading
        (:meth:`spread_replicas` delegates here): the simulated
        :class:`Deployment` and the real
        :class:`~repro.river.transport.ProcessDeployment` both consume the
        returned mapping, so the *same* compiled graph lands on the same
        hosts regardless of which fabric executes it.  ``groups`` maps
        replica segment names to their fan-out group label; each group's
        replicas are spread across distinct hosts (fastest first, wrapping
        only when replicas outnumber hosts), and every remaining segment is
        assigned sticky-deterministically by :meth:`partition` keyed on its
        name.
        """
        segments = list(segments)
        groups = dict(groups or {})
        plan: dict[str, str] = {}
        by_group: dict[str, list[PipelineSegment]] = {}
        for segment in segments:
            label = groups.get(segment.name)
            if label is not None:
                by_group.setdefault(label, []).append(segment)
        ranked = sorted(self._available(), key=lambda h: (-h.speed, h.name))
        for label in sorted(by_group):
            for index, segment in enumerate(by_group[label]):
                host = ranked[index % len(ranked)]
                plan[segment.name] = host.name
                self.loads[host.name] = self.loads.get(host.name, 0.0) + 1.0
        for segment in segments:
            if segment.name not in plan:
                plan[segment.name] = self.host_for(segment.name)
        return plan

    def rebalance(
        self, deployment: Deployment, monitor: QoSMonitor
    ) -> dict[str, str]:
        """Apply the monitor's group-aware relocation recommendations."""
        moves = monitor.recommend(deployment)
        for segment_name, host_name in moves.items():
            deployment.relocate(segment_name, host_name)
        return moves
