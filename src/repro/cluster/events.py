"""The typed cluster-event bus: the simulation kernel's single spine.

Everything notable that happens during a simulation — job arrivals,
executor spawns/finishes/failures, node outages and recoveries, straggler
onsets, scheduler wake-ups, per-node usage samples — flows through one
:class:`EventBus` as a typed :class:`ClusterEvent`.  Both simulation
engines emit the same events at the same (grid-aligned) times, so anything
built on the bus — the resource monitor, streaming metrics, fault
telemetry, tests — behaves identically under either engine.

Two consumption styles coexist:

* **Subscription** (streaming): :meth:`EventBus.subscribe` registers a
  callback for a set of event kinds; subscribers see events as they are
  published and can maintain O(1) running aggregates instead of post-hoc
  trace matrices.  High-frequency telemetry kinds (:data:`TRANSIENT_KINDS`,
  e.g. the per-epoch :class:`ClusterSample`) are dispatched to subscribers
  but *not* retained.
* **The log** (post-hoc): :class:`EventBus` extends :class:`EventLog`, so
  retained events remain queryable after the run (``of_kind``,
  ``for_app``, ``count``) exactly as before the bus existed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable

__all__ = [
    "EventKind",
    "Event",
    "ClusterEvent",
    "JobArrival",
    "ExecutorSpawned",
    "ExecutorFinished",
    "ExecutorOOM",
    "ExecutorKilled",
    "ExecutorPreempted",
    "NodeDown",
    "NodeUp",
    "NodeJoined",
    "StragglerOnset",
    "StragglerRecovered",
    "SchemeSwitched",
    "SchemeSwitch",
    "SchedulerWake",
    "ClusterSample",
    "EventLog",
    "EventBus",
    "TRANSIENT_KINDS",
]


class EventKind(str, Enum):
    """Types of events flowing through the bus."""

    APP_SUBMITTED = "app_submitted"
    PROFILING_STARTED = "profiling_started"
    PROFILING_FINISHED = "profiling_finished"
    EXECUTOR_SPAWNED = "executor_spawned"
    EXECUTOR_FINISHED = "executor_finished"
    EXECUTOR_OOM = "executor_oom"
    NODE_PAGING = "node_paging"
    APP_STARTED = "app_started"
    APP_FINISHED = "app_finished"
    # Dynamic-cluster events (failures, churn, preemption, stragglers).
    NODE_DOWN = "node_down"
    NODE_UP = "node_up"
    NODE_JOINED = "node_joined"
    EXECUTOR_KILLED = "executor_killed"
    EXECUTOR_PREEMPTED = "executor_preempted"
    STRAGGLER_ONSET = "straggler_onset"
    STRAGGLER_RECOVERED = "straggler_recovered"
    # Meta-scheduling: the active inner scheme changed mid-run.
    SCHEME_SWITCH = "scheme_switch"
    # Transient telemetry (dispatched to subscribers, never retained).
    SCHEDULER_WAKE = "scheduler_wake"
    CLUSTER_SAMPLE = "cluster_sample"


@dataclass(frozen=True)
class Event:
    """A single timestamped simulation event (the hierarchy's base).

    The flat ``(time, kind, app, node_id)`` shape is the log's wire
    format; typed subclasses below fix ``kind`` and carry their numbers
    as typed payload fields (``budget_gb``, ``lost_gb``, ...).
    """

    time: float
    kind: EventKind
    app: str | None = None
    node_id: int | None = None


#: Alias making the hierarchy's intent explicit at use sites.
ClusterEvent = Event


@dataclass(frozen=True)
class JobArrival(Event):
    """A job entered the scheduling queue."""

    kind: EventKind = EventKind.APP_SUBMITTED
    input_gb: float = 0.0


@dataclass(frozen=True)
class ExecutorSpawned(Event):
    """The scheduler placed a new executor on a node."""

    kind: EventKind = EventKind.EXECUTOR_SPAWNED
    budget_gb: float = 0.0
    data_gb: float = 0.0


@dataclass(frozen=True)
class ExecutorFinished(Event):
    """An executor processed its last gigabyte and exited."""

    kind: EventKind = EventKind.EXECUTOR_FINISHED


@dataclass(frozen=True)
class ExecutorOOM(Event):
    """An executor was killed by memory exhaustion (RAM + swap)."""

    kind: EventKind = EventKind.EXECUTOR_OOM
    lost_gb: float = 0.0


@dataclass(frozen=True)
class ExecutorKilled(Event):
    """An executor died with its node (involuntary, not memory-related).

    Carries the victim's ``executor_id`` so engine-side caches keyed by
    it (e.g. the event engine's footprint memo) can invalidate through
    the bus instead of being poked directly by the fault controller.
    """

    kind: EventKind = EventKind.EXECUTOR_KILLED
    lost_gb: float = 0.0
    executor_id: int | None = None


@dataclass(frozen=True)
class ExecutorPreempted(Event):
    """An executor was preempted (e.g. spot/priority reclamation)."""

    kind: EventKind = EventKind.EXECUTOR_PREEMPTED
    lost_gb: float = 0.0
    executor_id: int | None = None


@dataclass(frozen=True)
class NodeDown(Event):
    """A node failed or was decommissioned; its executors are lost."""

    kind: EventKind = EventKind.NODE_DOWN


@dataclass(frozen=True)
class NodeUp(Event):
    """A previously failed node recovered and rejoined the cluster."""

    kind: EventKind = EventKind.NODE_UP


@dataclass(frozen=True)
class NodeJoined(Event):
    """A brand-new node joined the cluster (autoscale-style growth)."""

    kind: EventKind = EventKind.NODE_JOINED
    ram_gb: float = 0.0


@dataclass(frozen=True)
class StragglerOnset(Event):
    """A node started running slow (thermal throttling, noisy neighbour)."""

    kind: EventKind = EventKind.STRAGGLER_ONSET
    speed_factor: float = 1.0


@dataclass(frozen=True)
class StragglerRecovered(Event):
    """A straggling node returned to full speed."""

    kind: EventKind = EventKind.STRAGGLER_RECOVERED


@dataclass(frozen=True)
class SchemeSwitched(Event):
    """The meta-scheduler hot-swapped its active inner scheme.

    Published at the epoch boundary where the switch takes effect, right
    before the incoming scheme receives its synthetic
    ``on_cluster_change`` replay — so bus subscribers observe the switch
    strictly before any decision the new scheme makes.
    """

    kind: EventKind = EventKind.SCHEME_SWITCH
    from_scheme: str = ""
    to_scheme: str = ""
    reason: str = ""


@dataclass(frozen=True)
class SchemeSwitch:
    """JSON-ready record of one mid-run scheme switch (results telemetry).

    The frozen, hashable mirror of :class:`SchemeSwitched` that results
    objects carry (``SimulationResult → CellResult → ScenarioResult``),
    analogous to how :class:`~repro.cluster.faults.FaultSummary` mirrors
    the fault event stream.
    """

    time_min: float
    from_scheme: str
    to_scheme: str
    reason: str = ""

    def to_dict(self) -> dict:
        payload: dict = {"time_min": self.time_min,
                         "from_scheme": self.from_scheme,
                         "to_scheme": self.to_scheme}
        if self.reason:
            payload["reason"] = self.reason
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SchemeSwitch":
        return cls(**payload)


@dataclass(frozen=True)
class SchedulerWake(Event):
    """The scheduler is about to be consulted (transient, one per epoch).

    The *number* of scheduling epochs is exactly what the event-driven
    engine optimises away, so this kind is transient telemetry: it is
    not retained in the log and not part of the engines'
    identical-event-stream guarantee.
    """

    kind: EventKind = EventKind.SCHEDULER_WAKE


class SampleBatch:
    """Column-oriented per-node usage samples: one entry per cluster node.

    Subscribers read the ``node_ids`` / ``memory`` / ``cpu`` / ``util``
    columns directly; nothing builds per-node rows.  The arrays are
    shared by every subscriber of the event, so they are read, never
    written in place.
    """

    __slots__ = ("node_ids", "memory", "cpu", "util")

    def __init__(self, node_ids, memory, cpu, util) -> None:
        self.node_ids = node_ids  # list[int], one per cluster node
        self.memory = memory      # float64 ndarray, resident GB
        self.cpu = cpu            # float64 ndarray, CPU load in [0, 1]
        self.util = util          # float64 ndarray, utilisation percent

    def __len__(self) -> int:
        return len(self.node_ids)


@dataclass(frozen=True)
class ClusterSample(Event):
    """Per-node usage samples over a constant-state interval (transient).

    ``times`` holds the uniform-grid sample timestamps the interval
    covers (a single step for the fixed-step engine, a whole jump for
    the event engine); ``samples`` holds each cluster node's memory, CPU
    load and utilisation, constant across the interval.  Subscribers —
    the resource monitor and the streaming utilisation statistics — read
    the batch's columns.
    """

    kind: EventKind = EventKind.CLUSTER_SAMPLE
    times: tuple[float, ...] = ()
    samples: SampleBatch | None = None


#: High-frequency telemetry kinds dispatched to subscribers but never
#: appended to the retained log (they would dominate its memory).
TRANSIENT_KINDS: frozenset[EventKind] = frozenset({
    EventKind.SCHEDULER_WAKE,
    EventKind.CLUSTER_SAMPLE,
})


@dataclass
class EventLog:
    """Append-only log of simulation events."""

    events: list[Event] = field(default_factory=list)

    def record(self, time: float, kind: EventKind, app: str | None = None,
               node_id: int | None = None) -> None:
        """Append an event to the log."""
        self.events.append(Event(time=time, kind=kind, app=app,
                                 node_id=node_id))

    def of_kind(self, kind: EventKind) -> list[Event]:
        """All events of the given kind, in chronological order."""
        return [event for event in self.events if event.kind is kind]

    def for_app(self, app: str) -> list[Event]:
        """All events concerning the given application."""
        return [event for event in self.events if event.app == app]

    def count(self, kind: EventKind) -> int:
        """Number of recorded events of the given kind."""
        return sum(1 for event in self.events if event.kind is kind)

    def __len__(self) -> int:
        return len(self.events)


class EventBus(EventLog):
    """Typed publish/subscribe on top of the retained event log.

    Subscribers are callables taking one :class:`Event`.  They are
    invoked synchronously, in registration order, *before* the event is
    appended to the log — a subscriber therefore observes a log state
    consistent with "everything strictly before this event".
    """

    def __init__(self) -> None:
        super().__init__()
        self._subscribers: dict[EventKind | None, list[Callable[[Event], None]]] = {}

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[Event], None],
                  kinds: Iterable[EventKind] | None = None
                  ) -> Callable[[Event], None]:
        """Register ``callback`` for the given kinds (``None`` = all).

        Returns the callback, so ``bus.subscribe(handler)`` can be used
        inline and the return value handed to :meth:`unsubscribe`.
        """
        if kinds is None:
            self._subscribers.setdefault(None, []).append(callback)
        else:
            for kind in kinds:
                self._subscribers.setdefault(EventKind(kind), []).append(callback)
        return callback

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        """Remove a callback from every kind it was registered for."""
        for listeners in self._subscribers.values():
            while callback in listeners:
                listeners.remove(callback)

    # ------------------------------------------------------------------
    # Publication
    # ------------------------------------------------------------------
    def publish(self, event: Event) -> Event:
        """Dispatch an event to its subscribers and retain it in the log.

        Transient kinds (:data:`TRANSIENT_KINDS`) are dispatched but not
        retained.
        """
        for callback in self._subscribers.get(event.kind, ()):
            callback(event)
        for callback in self._subscribers.get(None, ()):
            callback(event)
        if event.kind not in TRANSIENT_KINDS:
            self.events.append(event)
        return event

    def record(self, time: float, kind: EventKind, app: str | None = None,
               node_id: int | None = None) -> None:
        """Build a plain :class:`Event` and publish it (log compatibility)."""
        self.publish(Event(time=time, kind=kind, app=app, node_id=node_id))
