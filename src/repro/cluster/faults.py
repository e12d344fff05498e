"""Dynamic cluster events: failures, churn, preemption, stragglers.

The paper evaluates its scheduler on a *static* 40-node platform; real
clusters lose nodes mid-run, grow under autoscaling, have executors
preempted, and develop stragglers.  This module turns those dynamics into
a declarative, seeded, engine-independent subsystem:

* :class:`FaultSpec` — the declarative description a scenario carries:
  an explicit timeline of :class:`FaultEvent` actions plus parameters of
  seeded stochastic models (node failure/recovery, executor preemption,
  straggler onset).  JSON round-trippable, like everything declarative in
  :mod:`repro.scenarios`.
* :meth:`FaultSpec.realize` — samples the stochastic models **once, up
  front** with the simulator's generator, merging them with the explicit
  timeline into a single sorted list of concrete fault events.  Because
  the realization never draws during stepping, the fixed-step and
  event-driven engines consume an *identical* timeline and stay
  bit-for-bit equivalent under faults.
* :class:`FaultController` — owns the realized timeline at run time,
  applies due events to the cluster at scheduling epochs (both engines
  call it at the same grid-aligned times), publishes the corresponding
  typed events on the bus, notifies the scheduler through
  ``on_cluster_change``, and schedules follow-up events (node recovery,
  straggler healing) deterministically.
* :class:`FaultStats` / :class:`FaultSummary` — O(1) streaming telemetry
  accumulated from the bus: failures, recoveries, preemptions, jobs
  disrupted, work lost, estimated re-run time, and time-integrated
  cluster availability.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro._checks import require_finite, require_integer
from repro.cluster.events import (
    EventKind,
    ExecutorKilled,
    ExecutorPreempted,
    NodeDown,
    NodeJoined,
    NodeUp,
    StragglerOnset,
    StragglerRecovered,
)

__all__ = [
    "FAULT_ACTIONS",
    "FAULT_PROFILES",
    "FaultEvent",
    "FaultSpec",
    "FaultStats",
    "FaultSummary",
    "FaultController",
    "load_fault_spec",
]

#: Actions a concrete fault event may carry.
FAULT_ACTIONS: tuple[str, ...] = (
    "node_down", "node_up", "node_join", "preempt",
    "straggler_on", "straggler_off",
)


@dataclass(frozen=True)
class FaultEvent:
    """One concrete dynamic-cluster action at a point in simulated time.

    Parameters
    ----------
    time_min:
        When the action fires.  Engines observe it at the first
        scheduling epoch at or after this time (grid-aligned), exactly
        like job arrivals.
    action:
        One of :data:`FAULT_ACTIONS`.
    node_id:
        Explicit target node; ``None`` lets the controller draw one from
        the eligible nodes using ``draw``.
    draw:
        Pre-sampled uniform in ``[0, 1)`` used for victim selection when
        ``node_id`` is ``None`` (stochastic models pre-sample it, so the
        choice is deterministic given the cluster state at apply time).
    duration_min:
        For ``node_down``: downtime before the automatic ``node_up``
        (``None`` = no automatic recovery).  For ``straggler_on``: time
        until the automatic ``straggler_off``.
    speed_factor:
        Progress multiplier of a ``straggler_on`` action.
    ram_gb, swap_gb, cores:
        Shape of the machine added by ``node_join``.
    """

    time_min: float
    action: str
    node_id: int | None = None
    draw: float = 0.0
    duration_min: float | None = None
    speed_factor: float = 0.35
    ram_gb: float = 64.0
    swap_gb: float = 16.0
    cores: int = 16

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; "
                             f"expected one of {FAULT_ACTIONS}")
        for name in ("time_min", "draw", "speed_factor", "ram_gb", "swap_gb"):
            require_finite(name, getattr(self, name))
        if self.duration_min is not None:
            require_finite("duration_min", self.duration_min)
        if self.node_id is not None:
            require_integer("node_id", self.node_id)
        require_integer("cores", self.cores)
        if self.time_min < 0:
            raise ValueError("time_min cannot be negative")
        if not 0.0 <= self.draw < 1.0:
            raise ValueError("draw must lie in [0, 1)")
        if self.duration_min is not None and self.duration_min <= 0:
            raise ValueError("duration_min must be positive when given")
        if not 0.0 < self.speed_factor <= 1.0:
            raise ValueError("speed_factor must be in (0, 1]")
        if self.ram_gb <= 0 or self.swap_gb < 0 or self.cores < 1:
            raise ValueError("node_join shape parameters are out of range")

    # -- declarative (JSON) form ---------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict, omitting fields at their defaults."""
        payload: dict = {"time_min": self.time_min, "action": self.action}
        if self.node_id is not None:
            payload["node_id"] = self.node_id
        if self.draw:
            payload["draw"] = self.draw
        if self.duration_min is not None:
            payload["duration_min"] = self.duration_min
        if self.action == "straggler_on":
            payload["speed_factor"] = self.speed_factor
        if self.action == "node_join":
            payload["ram_gb"] = self.ram_gb
            payload["swap_gb"] = self.swap_gb
            payload["cores"] = self.cores
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultEvent":
        """Build an event from its dict form (unknown keys rejected)."""
        known = {"time_min", "action", "node_id", "draw", "duration_min",
                 "speed_factor", "ram_gb", "swap_gb", "cores"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown fault event fields: {sorted(unknown)}")
        return cls(**payload)


#: The numeric parameters of a :class:`FaultSpec`.
_SPEC_NUMBERS: tuple[str, ...] = (
    "node_failure_rate_per_hour", "node_recovery_min",
    "preemption_rate_per_hour", "straggler_rate_per_hour",
    "straggler_slowdown", "straggler_duration_min", "horizon_min",
)


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of a scenario's dynamic-cluster behaviour.

    An explicit ``timeline`` covers scripted dynamics ("two nodes go
    down at t=60, an autoscaler adds four at t=90"); the rate parameters
    describe seeded stochastic models sampled over ``horizon_min``:

    * ``node_failure_rate_per_hour`` — cluster-wide Poisson process of
      node failures; each failed node recovers after an exponential
      downtime with mean ``node_recovery_min`` (0 = never recovers).
    * ``preemption_rate_per_hour`` — cluster-wide Poisson process of
      executor preemptions (the victim is drawn among the executors
      active at fire time).
    * ``straggler_rate_per_hour`` — Poisson onsets of node slowdowns to
      ``straggler_slowdown`` speed for ``straggler_duration_min``.
    """

    timeline: tuple[FaultEvent, ...] = ()
    node_failure_rate_per_hour: float = 0.0
    node_recovery_min: float = 0.0
    preemption_rate_per_hour: float = 0.0
    straggler_rate_per_hour: float = 0.0
    straggler_slowdown: float = 0.35
    straggler_duration_min: float = 60.0
    horizon_min: float = 1440.0

    def __post_init__(self) -> None:
        if not isinstance(self.timeline, tuple):
            object.__setattr__(self, "timeline", tuple(self.timeline))
        for name in _SPEC_NUMBERS:
            require_finite(name, getattr(self, name))
        for rate in (self.node_failure_rate_per_hour,
                     self.preemption_rate_per_hour,
                     self.straggler_rate_per_hour):
            if rate < 0:
                raise ValueError("fault rates cannot be negative")
        if self.node_recovery_min < 0:
            raise ValueError("node_recovery_min cannot be negative")
        if not 0.0 < self.straggler_slowdown <= 1.0:
            raise ValueError("straggler_slowdown must be in (0, 1]")
        if self.straggler_duration_min <= 0:
            raise ValueError("straggler_duration_min must be positive")
        if self.horizon_min <= 0:
            raise ValueError("horizon_min must be positive")

    def is_empty(self) -> bool:
        """Whether the spec describes no dynamics at all."""
        return (not self.timeline
                and self.node_failure_rate_per_hour == 0
                and self.preemption_rate_per_hour == 0
                and self.straggler_rate_per_hour == 0)

    # ------------------------------------------------------------------
    # Realization
    # ------------------------------------------------------------------
    def realize(self, rng: np.random.Generator) -> list[FaultEvent]:
        """Sample the stochastic models and merge them with the timeline.

        All randomness happens here, before the first simulation epoch,
        so the realized timeline — times, victims' draws, downtimes —
        is a pure function of the seed and both engines replay it
        identically.
        """
        events: list[FaultEvent] = list(self.timeline)
        events.extend(self._poisson_events(
            rng, self.node_failure_rate_per_hour, "node_down",
            duration_min=(self.node_recovery_min or None), sample_duration=True))
        events.extend(self._poisson_events(
            rng, self.preemption_rate_per_hour, "preempt"))
        events.extend(self._poisson_events(
            rng, self.straggler_rate_per_hour, "straggler_on",
            duration_min=self.straggler_duration_min))
        # Explicit timeline entries keep their declared parameters; only
        # the ordering is normalised (stable, so simultaneous events fire
        # in declaration order).
        events.sort(key=lambda e: e.time_min)
        return events

    def _poisson_events(self, rng: np.random.Generator, rate_per_hour: float,
                        action: str, duration_min: float | None = None,
                        sample_duration: bool = False) -> list[FaultEvent]:
        """Homogeneous Poisson arrivals of one fault action over the horizon."""
        if rate_per_hour <= 0:
            return []
        rate_per_min = rate_per_hour / 60.0
        events: list[FaultEvent] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / rate_per_min))
            if t >= self.horizon_min:
                break
            duration = duration_min
            if sample_duration and duration_min is not None:
                duration = max(float(rng.exponential(duration_min)), 1.0)
            kwargs = {}
            if action == "straggler_on":
                kwargs["speed_factor"] = self.straggler_slowdown
            events.append(FaultEvent(time_min=t, action=action,
                                     draw=float(rng.uniform()),
                                     duration_min=duration, **kwargs))
        return events

    # ------------------------------------------------------------------
    # Declarative (JSON) form
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict form, omitting parameters at their defaults."""
        payload: dict = {}
        if self.timeline:
            payload["timeline"] = [event.to_dict() for event in self.timeline]
        defaults = FaultSpec()
        for name in _SPEC_NUMBERS:
            value = getattr(self, name)
            if value != getattr(defaults, name):
                payload[name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        """Build a spec from its dict form (unknown keys rejected)."""
        known = {"timeline", "node_failure_rate_per_hour", "node_recovery_min",
                 "preemption_rate_per_hour", "straggler_rate_per_hour",
                 "straggler_slowdown", "straggler_duration_min", "horizon_min"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown fault spec fields: {sorted(unknown)}")
        kwargs = dict(payload)
        if "timeline" in kwargs:
            kwargs["timeline"] = tuple(FaultEvent.from_dict(entry)
                                       for entry in kwargs["timeline"])
        return cls(**kwargs)


#: Reusable fault profiles, applicable to any scenario via the CLI's
#: ``--faults <name>`` or :func:`load_fault_spec`.
FAULT_PROFILES: dict[str, FaultSpec] = {
    "churn": FaultSpec(node_failure_rate_per_hour=2.0, node_recovery_min=45.0,
                       horizon_min=720.0),
    "flaky": FaultSpec(node_failure_rate_per_hour=6.0, node_recovery_min=10.0,
                       horizon_min=720.0),
    "preemptible": FaultSpec(preemption_rate_per_hour=12.0, horizon_min=720.0),
    "stragglers": FaultSpec(straggler_rate_per_hour=4.0,
                            straggler_slowdown=0.35,
                            straggler_duration_min=45.0, horizon_min=720.0),
}


def load_fault_spec(name_or_path: "str | FaultSpec | None") -> FaultSpec | None:
    """Resolve a fault argument: a spec, a profile name, a JSON path, or off.

    ``None`` and ``"none"`` resolve to ``None`` (no dynamics); anything
    ending in ``.json`` (or naming an existing file) is loaded as a
    :class:`FaultSpec` document; everything else is looked up in
    :data:`FAULT_PROFILES`.
    """
    import json
    from pathlib import Path

    if name_or_path is None or isinstance(name_or_path, FaultSpec):
        return name_or_path
    name = str(name_or_path)
    if name == "none":
        return None
    path = Path(name)
    if name.endswith(".json") or path.is_file():
        return FaultSpec.from_dict(json.loads(path.read_text()))
    try:
        return FAULT_PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown fault profile {name!r}; available: "
                       f"{', '.join(FAULT_PROFILES)}") from None


# ----------------------------------------------------------------------
# Runtime: telemetry and the controller
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultSummary:
    """Fault/recovery telemetry of one simulated schedule (JSON-ready)."""

    node_failures: int = 0
    node_recoveries: int = 0
    nodes_joined: int = 0
    preemptions: int = 0
    executors_lost: int = 0
    straggler_onsets: int = 0
    jobs_disrupted: int = 0
    disrupted_jobs: tuple[str, ...] = ()
    work_lost_gb: float = 0.0
    rerun_time_min: float = 0.0
    availability_percent: float = 100.0
    #: Events that fired but could not apply to the cluster state they
    #: found (``node_down`` on an already-down node, ``preempt`` with no
    #: active executor, ...).  Unknown *node ids* are a spec error and
    #: raise at :class:`FaultController` construction instead.
    inapplicable_events: int = 0

    def to_dict(self) -> dict:
        """JSON-ready dict form (``inapplicable_events`` only when any)."""
        payload = {
            "node_failures": self.node_failures,
            "node_recoveries": self.node_recoveries,
            "nodes_joined": self.nodes_joined,
            "preemptions": self.preemptions,
            "executors_lost": self.executors_lost,
            "straggler_onsets": self.straggler_onsets,
            "jobs_disrupted": self.jobs_disrupted,
            "disrupted_jobs": list(self.disrupted_jobs),
            "work_lost_gb": self.work_lost_gb,
            "rerun_time_min": self.rerun_time_min,
            "availability_percent": self.availability_percent,
        }
        if self.inapplicable_events:
            payload["inapplicable_events"] = self.inapplicable_events
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSummary":
        """Inverse of :meth:`to_dict`."""
        kwargs = dict(payload)
        kwargs["disrupted_jobs"] = tuple(kwargs.get("disrupted_jobs", ()))
        return cls(**kwargs)


class FaultStats:
    """Streaming fault telemetry: an O(1) subscriber on the event bus.

    Counters update as fault events are published; cluster availability
    is integrated in node-minutes between membership changes, so no
    per-step bookkeeping (let alone a trace matrix) is ever kept.
    """

    _KINDS = (EventKind.NODE_DOWN, EventKind.NODE_UP, EventKind.NODE_JOINED,
              EventKind.EXECUTOR_KILLED, EventKind.EXECUTOR_PREEMPTED,
              EventKind.STRAGGLER_ONSET)

    def __init__(self, cluster) -> None:
        self._cluster = cluster
        self.node_failures = 0
        self.node_recoveries = 0
        self.nodes_joined = 0
        self.preemptions = 0
        self.executors_lost = 0
        self.straggler_onsets = 0
        self.disrupted_jobs: set[str] = set()
        self.work_lost_gb = 0.0
        self.rerun_time_min = 0.0
        # Fired events the cluster state made no-ops (counted by the
        # controller, not the bus — an inapplicable event publishes
        # nothing).
        self.inapplicable_events = 0
        # Availability integration state.
        self._last_time = 0.0
        self._up_node_min = 0.0
        self._total_node_min = 0.0

    def attach(self, bus) -> "FaultStats":
        """Subscribe to the fault-event kinds on the bus."""
        bus.subscribe(self.on_event, kinds=self._KINDS)
        return self

    def before_membership_change(self, now: float) -> None:
        """Close the availability integral up to ``now``, pre-transition.

        The controller calls this *before* mutating node membership, so
        the interval since the last change is charged at the up-node
        count that actually held during it (integrating after the
        mutation would count healthy pre-failure time as down, and
        downtime as up).
        """
        self._integrate(now)

    def on_event(self, event) -> None:
        """Update counters from one published fault event."""
        kind = event.kind
        if kind is EventKind.NODE_DOWN:
            self.node_failures += 1
        elif kind is EventKind.NODE_UP:
            self.node_recoveries += 1
        elif kind is EventKind.NODE_JOINED:
            self.nodes_joined += 1
        elif kind is EventKind.STRAGGLER_ONSET:
            self.straggler_onsets += 1
        elif kind in (EventKind.EXECUTOR_KILLED, EventKind.EXECUTOR_PREEMPTED):
            if kind is EventKind.EXECUTOR_PREEMPTED:
                self.preemptions += 1
            self.executors_lost += 1
            if event.app is not None:
                self.disrupted_jobs.add(event.app)
            self.work_lost_gb += event.lost_gb

    def book_rerun_time(self, minutes: float) -> None:
        """Account estimated single-executor time to redo lost work."""
        self.rerun_time_min += minutes

    def _integrate(self, now: float) -> None:
        """Integrate node-minutes up to ``now`` (membership is changing)."""
        dt = max(now - self._last_time, 0.0)
        self._up_node_min += self._cluster.up_count() * dt
        self._total_node_min += len(self._cluster.nodes) * dt
        self._last_time = now

    def finalize(self, makespan_min: float) -> FaultSummary:
        """Close the availability integral and freeze the summary."""
        self._integrate(max(makespan_min, self._last_time))
        if self._total_node_min > 0:
            availability = 100.0 * self._up_node_min / self._total_node_min
        else:
            availability = 100.0
        return FaultSummary(
            node_failures=self.node_failures,
            node_recoveries=self.node_recoveries,
            nodes_joined=self.nodes_joined,
            preemptions=self.preemptions,
            executors_lost=self.executors_lost,
            straggler_onsets=self.straggler_onsets,
            jobs_disrupted=len(self.disrupted_jobs),
            disrupted_jobs=tuple(sorted(self.disrupted_jobs)),
            work_lost_gb=self.work_lost_gb,
            rerun_time_min=self.rerun_time_min,
            availability_percent=availability,
            inapplicable_events=self.inapplicable_events,
        )


class FaultController:
    """Applies a realized fault timeline to the live simulation.

    Both engines call :meth:`apply_due` at the top of every scheduling
    epoch (right after job arrivals), and the event-driven engine treats
    :meth:`next_time` as an analytic event so it never sleeps through a
    cluster change.  Follow-up events — a failed node's recovery, a
    straggler healing — are scheduled here at apply time, from durations
    pre-sampled into the triggering event, so the two engines derive the
    same follow-up times.
    """

    def __init__(self, sim, timeline: list[FaultEvent]) -> None:
        self.sim = sim
        self._validate_node_ids(sim.cluster, timeline)
        self._queue: list[tuple[float, int, FaultEvent]] = [
            (event.time_min, i, event) for i, event in enumerate(timeline)
        ]
        heapq.heapify(self._queue)
        self._seq = len(timeline)
        self.stats = FaultStats(sim.cluster).attach(sim.events)

    @staticmethod
    def _validate_node_ids(cluster, timeline: list[FaultEvent]) -> None:
        """Reject explicit node ids that can never name a cluster node.

        A typo'd ``node_id`` in a fault-spec document used to drop its
        event silently (``_pick_node`` found no candidate); here it fails
        fast, before the first epoch.  Ids the timeline's own
        ``node_join`` events will mint (consecutive, starting at the
        built size) count as known, so a scripted join-then-fail
        sequence still validates.
        """
        known = {node.node_id for node in cluster.nodes}
        n_joins = sum(1 for event in timeline if event.action == "node_join")
        known.update(range(len(cluster.nodes), len(cluster.nodes) + n_joins))
        unknown = sorted({event.node_id for event in timeline
                          if event.node_id is not None
                          and event.node_id not in known})
        if unknown:
            raise ValueError(
                f"fault timeline names unknown node id(s) {unknown}; the "
                f"built cluster has ids 0..{len(cluster.nodes) - 1}"
                + (f" plus {n_joins} scheduled join(s)" if n_joins else ""))

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    def next_time(self) -> float:
        """Fire time of the earliest pending fault event (inf when none)."""
        return self._queue[0][0] if self._queue else math.inf

    def apply_due(self, context, now: float) -> bool:
        """Apply every pending event whose fire time has been reached."""
        applied = False
        while self._queue and self._queue[0][0] <= now + 1e-9:
            _, _, event = heapq.heappop(self._queue)
            self._apply(context, event, now)
            applied = True
        return applied

    def _push(self, event: FaultEvent) -> None:
        heapq.heappush(self._queue, (event.time_min, self._seq, event))
        self._seq += 1

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def _apply(self, context, event: FaultEvent, now: float) -> None:
        handler = getattr(self, f"_apply_{event.action}")
        handler(context, event, now)

    def _pick_node(self, event: FaultEvent, candidates) -> object | None:
        """Resolve the event's target among ``candidates`` (id order)."""
        if event.node_id is not None:
            for node in candidates:
                if node.node_id == event.node_id:
                    return node
            return None
        if not candidates:
            return None
        index = min(int(event.draw * len(candidates)), len(candidates) - 1)
        return candidates[index]

    def _kill_one(self, executor, node, now: float, event_cls) -> None:
        """Kill one executor involuntarily, returning its data to the app.

        Shared by node failures (``ExecutorKilled``) and preemption
        (``ExecutorPreempted``): the lost-work accounting must stay
        identical between the two causes.
        """
        sim = self.sim
        lost = executor.interrupt()
        sim.apps[executor.app_name].return_unassigned(lost)
        node.remove_executor(executor)
        spec = sim.specs[executor.app_name]
        self.stats.book_rerun_time(lost / spec.rate_gb_per_min)
        # The published event carries the executor_id; the event engine
        # subscribes and drops its footprint memo for it — no direct
        # controller → engine coupling.
        sim.events.publish(event_cls(
            time=now, app=executor.app_name, node_id=node.node_id,
            lost_gb=lost, executor_id=executor.executor_id))

    def _kill_executors(self, node, now: float) -> None:
        """Kill a node's active executors (it failed under them)."""
        for executor in node.active_executors():
            self._kill_one(executor, node, now, ExecutorKilled)

    def _notify(self, context, event) -> None:
        scheduler = self.sim.scheduler
        hook = getattr(scheduler, "on_cluster_change", None)
        if hook is not None:
            hook(context, event)

    def _apply_node_down(self, context, event: FaultEvent, now: float) -> None:
        node = self._pick_node(event, self.sim.cluster.up_nodes())
        if node is None:
            self.stats.inapplicable_events += 1
            return
        self.stats.before_membership_change(now)
        self._kill_executors(node, now)
        node.mark_down()
        published = self.sim.events.publish(NodeDown(
            time=now, node_id=node.node_id))
        if event.duration_min:
            self._push(FaultEvent(time_min=now + event.duration_min,
                                  action="node_up", node_id=node.node_id))
        self._notify(context, published)

    def _apply_node_up(self, context, event: FaultEvent, now: float) -> None:
        cluster = self.sim.cluster
        up = cluster.state.nodes_view()["up"]
        candidates = [cluster.nodes[i]
                      for i in np.flatnonzero(~up).tolist()]
        node = self._pick_node(event, candidates)
        if node is None:
            self.stats.inapplicable_events += 1
            return
        self.stats.before_membership_change(now)
        node.mark_up()
        published = self.sim.events.publish(NodeUp(time=now,
                                                   node_id=node.node_id))
        self._notify(context, published)

    def _apply_node_join(self, context, event: FaultEvent, now: float) -> None:
        self.stats.before_membership_change(now)
        node = self.sim.cluster.add_node(ram_gb=event.ram_gb,
                                         swap_gb=event.swap_gb,
                                         cores=event.cores)
        published = self.sim.events.publish(NodeJoined(
            time=now, node_id=node.node_id, ram_gb=node.ram_gb))
        self._notify(context, published)

    def _apply_preempt(self, context, event: FaultEvent, now: float) -> None:
        sim = self.sim
        state = sim.cluster.state
        exec_objs = state.exec_objs
        # Active slots are already in spawn order; the sort (adaptive,
        # O(n) on sorted input) pins the historical executor-id order.
        victims = [exec_objs[slot] for slot in state.active_slots().tolist()]
        victims.sort(key=lambda e: e.executor_id)
        if not victims:
            self.stats.inapplicable_events += 1
            return
        index = min(int(event.draw * len(victims)), len(victims) - 1)
        executor = victims[index]
        node = sim.cluster.node(executor.node_id)
        self._kill_one(executor, node, now, ExecutorPreempted)

    def _apply_straggler_on(self, context, event: FaultEvent, now: float) -> None:
        cluster = self.sim.cluster
        rows = cluster.state.nodes_view()
        mask = rows["up"] & (rows["speed"] >= 1.0)
        candidates = [cluster.nodes[i]
                      for i in np.flatnonzero(mask).tolist()]
        node = self._pick_node(event, candidates)
        if node is None:
            self.stats.inapplicable_events += 1
            return
        node.set_speed(event.speed_factor)
        published = self.sim.events.publish(StragglerOnset(
            time=now, node_id=node.node_id, speed_factor=event.speed_factor))
        if event.duration_min:
            self._push(FaultEvent(time_min=now + event.duration_min,
                                  action="straggler_off",
                                  node_id=node.node_id))
        self._notify(context, published)

    def _apply_straggler_off(self, context, event: FaultEvent, now: float) -> None:
        cluster = self.sim.cluster
        rows = cluster.state.nodes_view()
        node = self._pick_node(
            event, [cluster.nodes[i]
                    for i in np.flatnonzero(rows["speed"] < 1.0).tolist()])
        if node is None or not node.is_up:
            self.stats.inapplicable_events += 1
            return
        node.set_speed(1.0)
        published = self.sim.events.publish(StragglerRecovered(
            time=now, node_id=node.node_id))
        self._notify(context, published)

    def finalize(self, makespan_min: float) -> FaultSummary:
        """Freeze the telemetry at the end of the run."""
        return self.stats.finalize(makespan_min)
