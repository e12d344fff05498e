"""The co-location simulator.

This is the execution substrate standing in for the paper's 40-node
Spark/YARN cluster.  Simulated time is advanced by the event-driven engine
(:mod:`repro.cluster.engine`), which jumps directly between
state-changing events on the ``time_step_min`` grid.  The active scheduler
is consulted between advances (it may spawn new executors on nodes with
spare resources), and every executor makes progress at a rate degraded by
three interference effects:

* **CPU contention** — when the aggregate CPU demand of the executors on a
  node exceeds 100 %, every executor's progress is scaled down
  proportionally (the paper's admission rule tries to avoid this);
* **memory-bandwidth interference** — co-running executors slow each other
  down slightly even without paging (this produces the sub-25 % slowdowns
  of Figures 14 and 15);
* **paging** — when the *actual* resident memory on a node exceeds its RAM,
  the overflow spills to swap and every executor on the node runs at a
  severe penalty; if even the swap is exhausted, the most recently placed
  executor is killed with an out-of-memory error and its unprocessed data
  is returned to the application (the paper re-runs such executors,
  Section 2.3).

The gap between the memory a scheduler *reserves* (its belief, derived from
its predictor) and the memory an executor *actually* uses (ground truth
from the benchmark specification) is what makes memory-prediction accuracy
matter: under-prediction causes paging and OOM kills, over-prediction
wastes co-location opportunities.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro._checks import require_finite
from repro.cluster.cluster import Cluster
from repro.cluster.engine import EventDrivenEngine
from repro.cluster.events import (
    EventBus,
    EventKind,
    EventLog,
    ExecutorSpawned,
    JobArrival,
    SchemeSwitch,
)
from repro.cluster.faults import FaultController, FaultSpec, FaultSummary
from repro.cluster.resource_monitor import ResourceMonitor, StreamingUtilization
from repro.spark.application import ApplicationState, SparkApplication
from repro.spark.executor import Executor
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.mixes import Job
from repro.workloads.suites import benchmark_by_name

__all__ = [
    "InterferenceModel",
    "NodeFeatures",
    "SchedulingContext",
    "SimulationResult",
    "ClusterSimulator",
]

@dataclass(frozen=True)
class InterferenceModel:
    """Co-location interference parameters.

    Parameters
    ----------
    bandwidth_alpha:
        Fractional slowdown added per additional co-running executor on a
        node (memory-bandwidth and last-level-cache contention).
    bandwidth_floor:
        Lower bound on the bandwidth interference factor.
    paging_slowdown:
        Progress multiplier applied to every executor on a node whose
        resident memory exceeds RAM (but still fits RAM + swap).
    """

    bandwidth_alpha: float = 0.035
    bandwidth_floor: float = 0.75
    paging_slowdown: float = 0.12

    def bandwidth_factor(self, n_colocated: int) -> float:
        """Progress factor due to co-runner memory-bandwidth pressure."""
        if n_colocated <= 1:
            return 1.0
        return max(self.bandwidth_floor,
                   1.0 - self.bandwidth_alpha * (n_colocated - 1))


@dataclass
class SimulationResult:
    """Outcome of one simulated schedule.

    Parameters
    ----------
    apps:
        Submitted applications by instance name.
    events:
        Chronological log of everything notable that happened.
    makespan_min:
        Completion time of the last application, in minutes.
    unsubmitted_jobs:
        Jobs whose arrival time lay beyond the simulation horizon, so they
        never entered the queue (open-arrival scenarios only).
    """

    apps: dict[str, SparkApplication]
    events: EventLog
    makespan_min: float
    unsubmitted_jobs: list[Job] = field(default_factory=list)
    #: Mean CPU utilisation (%) across nodes and time, kept by the
    #: streaming subscriber in O(nodes) memory.
    streaming_utilization_percent: float = 0.0
    #: Fault/recovery telemetry; ``None`` for runs without a fault spec.
    fault_summary: FaultSummary | None = None
    #: Mid-run scheme hot-swaps, in chronological order (meta-scheduler
    #: runs only; empty for fixed-scheme runs).
    scheme_switches: tuple[SchemeSwitch, ...] = ()

    def all_finished(self) -> bool:
        """Whether every job completed (and none is still awaiting arrival)."""
        if self.unsubmitted_jobs:
            return False
        return all(app.state is ApplicationState.FINISHED
                   for app in self.apps.values())

    def turnaround_min(self, name: str) -> float:
        """Turnaround time of one application."""
        return self.apps[name].turnaround_min()

    def mean_node_utilization(self) -> float:
        """Average CPU utilisation (%) across nodes and time.

        A node that joined mid-run counts as idle before its join.
        """
        return self.streaming_utilization_percent


class NodeFeatures:
    """Column snapshot of candidate-node features for batched scoring.

    One row per node slot (node-id order), gathered straight from the
    cluster's structured arrays (:class:`~repro.cluster.state.ClusterState`).
    ``free_gb`` is computed exactly like
    :meth:`~repro.cluster.cluster.Cluster.nodes_by_free_memory`
    (``max(ram - reserved, 0)`` on the same float64 columns), so ranking
    by it reproduces the historical placement-scan order bit for bit.

    A snapshot is valid only for the state :attr:`version` it was built
    at — any spawn, eviction, fault, or reservation change moves the
    version — and never changes after it is returned.  Schedulers obtain
    snapshots through :meth:`SchedulingContext.node_features`, which
    builds a new one lazily on version changes, and rank candidates with
    :meth:`ranked`.
    """

    __slots__ = ("version", "node_ids", "ram_gb", "free_gb", "reserved_cpu",
                 "up", "n_active", "speed", "n_apps", "_node_of", "_app_of",
                 "_sim")

    def __init__(self, sim: "ClusterSimulator") -> None:
        state = sim.cluster.state
        state.refresh_dirty()
        self._sim = sim
        self.version = state.version
        rows = state.nodes_view()
        n = len(rows)
        #: Node ids, slot order (``node_ids[slot]`` names the node).
        self.node_ids = np.asarray(state.node_ids, dtype=np.int64)
        self.ram_gb = rows["ram_gb"].copy()
        free = rows["ram_gb"] - rows["reserved_mem_gb"]
        np.maximum(free, 0.0, out=free)
        #: Unreserved memory, the placement-scan sort key.
        self.free_gb = free
        self.reserved_cpu = rows["reserved_cpu"].copy()
        self.up = rows["up"].copy()
        self.n_active = rows["n_active"].copy()
        self.speed = rows["speed"].copy()
        execs = state.execs_view()
        act = state.active_slots()
        self._node_of = execs["node_slot"][act]
        self._app_of = execs["app_index"][act]
        if self._node_of.size:
            # Distinct co-located applications per node: unique
            # (node, app) pairs via a composite key, then counts per
            # node.
            base = len(sim.submission_order) + 2
            key = self._node_of * base + (self._app_of + 1)
            uniq = np.unique(key)
            self.n_apps = np.bincount(uniq // base, minlength=n)
        else:
            self.n_apps = np.zeros(n, dtype=np.int64)

    def with_spawns(self, spawned: list[tuple[int, int]]) -> "NodeFeatures":
        """A new snapshot: this one plus the executors spawned since.

        ``spawned`` lists ``(node slot, app index)`` per spawn, in spawn
        order, and those spawns must be the state's only version moves
        since this snapshot (:meth:`SchedulingContext.node_features`
        checks).  Every node was clean when this chain of snapshots began
        (a full build refreshes dirty nodes, and marking one dirty moves
        the version), and a spawn onto a clean node updates its
        reservation row in place, bit for bit what a full refresh
        computes (``Node.add_executor``).  So only the touched rows are
        re-read.  The newcomers are last in spawn order, so appending them
        to the (node, app) index gives the index a full build would.
        ``self`` is left unchanged.
        """
        # The rows are read without a refresh: each spawned-onto node was
        # clean and stayed clean through its in-place spawn update.
        rows = self._sim.cluster.state.nodes_view()
        fresh = object.__new__(NodeFeatures)
        fresh._sim = self._sim
        fresh.version = self._sim.cluster.state.version
        fresh.node_ids = self.node_ids
        fresh.ram_gb = self.ram_gb
        fresh.up = self.up
        fresh.speed = self.speed
        fresh.free_gb = self.free_gb.copy()
        fresh.reserved_cpu = self.reserved_cpu.copy()
        fresh.n_active = self.n_active.copy()
        fresh.n_apps = self.n_apps.copy()
        new = np.asarray(spawned, dtype=np.int64)
        nodes, apps = new[:, 0], new[:, 1]
        ram, reserved = rows["ram_gb"], rows["reserved_mem_gb"]
        reserved_cpu, n_active = rows["reserved_cpu"], rows["n_active"]
        for slot in set(nodes.tolist()):
            fresh.free_gb[slot] = max(ram[slot] - reserved[slot], 0.0)
            fresh.reserved_cpu[slot] = reserved_cpu[slot]
            fresh.n_active[slot] = n_active[slot]
        # Each new (node, app) pair adds one co-located app to its node.
        for node, app in dict.fromkeys(spawned):
            if app not in self._app_of[self._node_of == node].tolist():
                fresh.n_apps[node] += 1
        fresh._node_of = np.concatenate((self._node_of, nodes))
        fresh._app_of = np.concatenate((self._app_of, apps))
        return fresh

    def hosts_app(self, app: SparkApplication) -> np.ndarray:
        """Boolean column: nodes where ``app`` has an active executor."""
        mask = np.zeros(self.up.shape[0], dtype=bool)
        if self._node_of.size:
            index = self._sim.submission_index.get(app.name, -2)
            mask[self._node_of[self._app_of == index]] = True
        return mask

    def ranked(self, scores: np.ndarray) -> np.ndarray:
        """Node slots in stable descending-score order, NaN dropped.

        This is the ``score_batch`` visiting contract: ties keep slot
        (= node id) order, and the relative order of the eligible subset
        of a stable sort equals the stable sort of the eligible subset —
        which is why masking ineligible nodes with NaN visits exactly the
        eligible nodes in score order.
        """
        order = np.argsort(-scores, kind="stable")
        return order[~np.isnan(scores[order])]


class SchedulingContext:
    """The interface through which schedulers observe and act on the cluster.

    Schedulers never touch ground-truth footprints through this object —
    they see only their own reservations, the resource monitor's (windowed,
    hence slightly stale) usage reports, and whatever their predictor tells
    them.
    """

    def __init__(self, simulator: "ClusterSimulator") -> None:
        self._sim = simulator
        self.now: float = 0.0
        self._features: NodeFeatures | None = None
        # Spawns made through this context since ``_features`` was built,
        # as (node slot, app index), and the state version the last of
        # them left behind.  While that version is current, the spawns
        # were the only mutations and the snapshot can be refreshed from
        # them alone (NodeFeatures.with_spawns).
        self._spawned: list[tuple[int, int]] = []
        self._spawned_version = -1

    # -- observation ---------------------------------------------------
    @property
    def cluster(self) -> Cluster:
        """The simulated cluster."""
        return self._sim.cluster

    @property
    def monitor(self) -> ResourceMonitor:
        """The resource monitor fed by the per-node daemons."""
        return self._sim.monitor

    @property
    def events(self) -> EventBus:
        """The simulation's event bus (subscribe/publish access).

        Exposed so context-aware schedulers (the meta-scheduler's
        :class:`~repro.scheduling.meta.ContextMonitor`) can attach
        streaming subscribers and publish their own typed events without
        reaching into the simulator.
        """
        return self._sim.events

    def apps(self) -> dict[str, SparkApplication]:
        """All submitted applications by name."""
        return self._sim.apps

    def spec_of(self, app: SparkApplication) -> BenchmarkSpec:
        """Benchmark specification for an application."""
        return self._sim.specs[app.name]

    def waiting_apps(self) -> list[SparkApplication]:
        """Applications that are ready to be scheduled and not yet complete.

        Applications still inside their profiling window (feature
        extraction / calibration) are not returned, mirroring the paper's
        flow where profiling happens while the task waits to be scheduled.
        """
        # Column-mask scan over the submit-order app queue
        # (ClusterState.APP_DTYPE); ascending slot order is submission
        # order (compaction preserves it).
        state = self._sim.cluster.state
        app_objs = state.app_objs
        return [app_objs[slot]
                for slot in state.waiting_app_slots(self.now).tolist()]

    def node_features(self) -> NodeFeatures:
        """Candidate-node feature columns for batched scheme scoring.

        The snapshot is cached against the cluster state's mutation
        version: repeated calls within one placement pass are free.  The
        first call after a version move returns a new snapshot and never
        mutates one already handed out.  When the only moves were spawns
        through this context, the new snapshot patches just the nodes they
        touched (:meth:`NodeFeatures.with_spawns`); any other change
        (finish, fault, eviction, speed) rebuilds every column.
        """
        sim = self._sim
        cached = self._features
        version = sim.cluster.state.version
        if cached is not None and cached.version == version:
            return cached
        if cached is not None and self._spawned_version == version:
            self._features = cached.with_spawns(self._spawned)
        else:
            self._features = NodeFeatures(sim)
        self._spawned = []
        self._spawned_version = self._features.version
        return self._features

    def app_tallies(self, apps: list[SparkApplication]
                    ) -> tuple[list[float], list[int]]:
        """In-flight GB and active-executor counts of ``apps``.

        Computed from the executor columns, keyed by submission index,
        and returned aligned with ``apps``.  In-flight data sums
        ``max(assigned - processed, 0)`` over the alive slots (an executor
        leaves the cluster as soon as it stops RUNNING, the filter
        ``SparkApplication.remaining_gb`` applies); the count takes the
        active slots, the filter of ``active_executors``.
        ``np.bincount`` adds each bin's weights in input order, and slot
        order is spawn order, so every sum is bit for bit the Python
        ``sum`` over the application's executor list.

        Not cached: the engines advance ``processed_gb`` in place without
        moving the state version, so a tally is valid only until time
        advances.
        """
        sim = self._sim
        execs = sim.cluster.state.execs_view()
        app_of = execs["app_index"]
        n = len(sim.submission_order)
        alive = execs["alive"] & (app_of >= 0)
        in_flight = np.bincount(
            app_of[alive],
            weights=np.maximum(execs["assigned_gb"][alive]
                               - execs["processed_gb"][alive], 0.0),
            minlength=n)
        active = np.bincount(app_of[execs["active"] & (app_of >= 0)],
                             minlength=n)
        rows = [sim.submission_index[app.name] for app in apps]
        return in_flight[rows].tolist(), active[rows].tolist()

    def node_cpu_headroom(self, node_id: int) -> float:
        """CPU headroom on a node before aggregate load reaches 100 %.

        Uses the larger of the reservation-based estimate and the
        monitor-reported load, so a scheduler cannot oversubscribe CPU just
        because the monitoring window lags behind.
        """
        node = self._sim.cluster.node(node_id)
        reported = self._sim.monitor.reported_cpu_load(node_id)
        return max(0.0, 1.0 - max(node.reserved_cpu_load, reported))

    # -- action ----------------------------------------------------------
    def spawn_executor(self, app: SparkApplication, node_id: int,
                       memory_budget_gb: float, data_gb: float,
                       enforce_admission: bool = True) -> Executor | None:
        """Spawn an executor for ``app`` on ``node_id``.

        ``memory_budget_gb`` is the heap reservation (the scheduler's
        belief); ``data_gb`` is how much of the application's unassigned
        input the executor will cache and process.  Returns ``None`` when
        no unassigned data is left or the admission test fails (with
        ``enforce_admission=True``).
        """
        node = self._sim.cluster.node(node_id)
        spec = self.spec_of(app)
        if enforce_admission and not node.can_host(memory_budget_gb, spec.cpu_load):
            return None
        state = self._sim.cluster.state
        before = state.version
        granted = app.take_unassigned(data_gb)
        if granted <= 1e-9:
            return None
        app_index = self._sim.submission_index.get(app.name, -1)
        executor = Executor(app_name=app.name, node_id=node_id,
                            memory_budget_gb=memory_budget_gb,
                            assigned_gb=granted, cpu_demand=spec.cpu_load,
                            app_index=app_index)
        node.add_executor(executor)
        if self._spawned_version == before:
            self._spawned.append((node._slot, app_index))
            self._spawned_version = state.version
        app.add_executor(executor)
        if app.start_time is None:
            self._sim.events.record(self.now, EventKind.APP_STARTED,
                                    app=app.name, node_id=node_id)
        app.mark_started(self.now)
        self._sim.events.publish(ExecutorSpawned(
            time=self.now, app=app.name, node_id=node_id,
            budget_gb=memory_budget_gb, data_gb=granted))
        return executor


class ClusterSimulator:
    """Drives one schedule of a job mix under a given scheduler."""

    #: The engine class :meth:`start` builds for each run.
    engine_type = EventDrivenEngine

    def __init__(self, cluster: Cluster, scheduler, time_step_min: float = 0.5,
                 max_time_min: float = 50_000.0,
                 seed: int | None = 0,
                 faults: FaultSpec | None = None) -> None:
        for name, value in (("time_step_min", time_step_min),
                            ("max_time_min", max_time_min)):
            require_finite(name, value)
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        self.cluster = cluster
        self.scheduler = scheduler
        self.time_step_min = time_step_min
        self.interference = InterferenceModel()
        self.max_time_min = max_time_min
        self.faults = faults
        self.rng = np.random.default_rng(seed)
        # The event bus is the kernel's spine: engines publish, and every
        # metrics consumer — the resource monitor (over the paper's
        # 5-minute window), streaming statistics, fault telemetry —
        # subscribes.
        self.events = EventBus()
        self.monitor = ResourceMonitor().attach(self.events)
        self.engine = None
        self.fault_controller: FaultController | None = None
        # Per-run bus subscriber, created by start() and detached by
        # detach_run_subscribers().
        self._streaming: StreamingUtilization | None = None
        self.apps: dict[str, SparkApplication] = {}
        self.specs: dict[str, BenchmarkSpec] = {}
        self.ready_time: dict[str, float] = {}
        self.submission_order: list[SparkApplication] = []
        #: Submission index by app name (finalisation order for the
        #: engines' candidate-driven completion pass).
        self.submission_index: dict[str, int] = {}
        # The pending-arrival queue and the submitted-app queue are owned
        # by the cluster's structured-array state (ClusterState): jobs are
        # drained head-first by searchsorted against a submit-time column,
        # and waiting-queue scans are column masks over APP_DTYPE slots.
        #: Min-heap of (profiling-ready time, app name), lazy deletion.
        self.profiling_heap: list[tuple[float, str]] = []
        self._name_counts: dict[str, int] = {}
        # Data whose executor was killed by an out-of-memory error; it is
        # re-run in isolation on an idle node (paper Section 2.3) rather than
        # handed back to the scheduler, which would otherwise retry the same
        # doomed placement forever.
        self.oom_retry_gb: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Job arrivals
    # ------------------------------------------------------------------
    def process_arrivals(self, context: "SchedulingContext",
                         now: float) -> None:
        """Submit every pending job whose arrival time has been reached.

        The engines call this at the top of each scheduling epoch, so a job
        enters the queue at the first epoch at or after its
        ``submit_time_min`` — under the fixed-step engine that is the first
        grid step covering the arrival, and the event engine aligns its
        arrival events to the same grid.
        """
        state = self.cluster.state
        state.maybe_compact_apps()
        for job in state.pop_pending_due(now):
            self._submit_job(job, context, now)

    def _submit_job(self, job: Job, context: "SchedulingContext",
                    now: float) -> None:
        spec = benchmark_by_name(job.benchmark)
        occurrence = self._name_counts.get(job.benchmark, 0)
        self._name_counts[job.benchmark] = occurrence + 1
        name = f"{job.benchmark}#{occurrence}" if occurrence else job.benchmark
        # Turnaround is measured from the job's true arrival time, even
        # though the system first observes it at the enclosing grid step.
        app = SparkApplication(name=name, spec=spec, input_gb=job.input_gb,
                               submit_time=job.submit_time_min)
        self.apps[name] = app
        self.specs[name] = spec
        self.submission_index[name] = len(self.submission_order)
        self.submission_order.append(app)
        self.events.publish(JobArrival(time=now, app=name,
                                       input_gb=job.input_gb))
        delay = 0.0
        if hasattr(self.scheduler, "on_submit"):
            delay = float(self.scheduler.on_submit(context, app) or 0.0)
        self.ready_time[name] = now + delay
        self.cluster.state.adopt_app(app, now + delay)
        if delay > 0:
            heapq.heappush(self.profiling_heap, (now + delay, name))
            app.state = ApplicationState.PROFILING
            self.events.record(now, EventKind.PROFILING_STARTED, app=name)
            self.events.record(now + delay, EventKind.PROFILING_FINISHED,
                               app=name)

    def next_arrival_min(self) -> float | None:
        """Arrival time of the earliest still-pending job, or ``None``."""
        return self.cluster.state.next_pending_min()

    def pending_count(self) -> int:
        """Number of jobs whose arrival time has not been reached yet."""
        return self.cluster.state.pending_count()

    def has_pending_jobs(self) -> bool:
        """Whether any job is still awaiting its arrival time."""
        return self.cluster.state.pending_count() > 0

    # ------------------------------------------------------------------
    # Dynamic cluster events
    # ------------------------------------------------------------------
    def apply_faults(self, context: "SchedulingContext", now: float) -> None:
        """Apply every due dynamic-cluster event (both engines call this).

        Runs at the top of each scheduling epoch, right after job
        arrivals — so a fault becomes visible to the scheduler at the
        first grid step at or after its fire time, under either engine.
        """
        if self.fault_controller is not None:
            self.fault_controller.apply_due(context, now)

    def next_fault_min(self) -> float:
        """Fire time of the earliest pending fault event (inf when none)."""
        if self.fault_controller is None:
            return float("inf")
        return self.fault_controller.next_time()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def start(self, jobs: list[Job]) -> "SchedulingContext":
        """Prepare one run: subscribers, fault timeline, queue, engine.

        Returns the :class:`SchedulingContext` through which placements
        are made.  :meth:`run` calls this internally; the scheduling
        environment (:mod:`repro.env`) calls it directly and then drives
        the engine's epoch generator itself, pausing at every wake-point.
        Each ``start``/``finish`` pair serves exactly one run.
        """
        if not jobs:
            raise ValueError("cannot simulate an empty job mix")
        self._streaming = StreamingUtilization().attach(self.events)
        # Realize the fault timeline up front with the simulator's seeded
        # generator: both engines replay the identical realization, and
        # no-fault runs draw nothing at all.
        if self.faults is not None:
            self.fault_controller = FaultController(
                self, self.faults.realize(self.rng))
        # Stable sort: simultaneous arrivals keep their mix order, so a
        # batch mix is submitted exactly as the seed submitted it.
        self.cluster.state.load_pending(
            sorted(jobs, key=lambda job: job.submit_time_min))
        self.engine = self.engine_type(self)
        return SchedulingContext(self)

    def detach_run_subscribers(self) -> None:
        """Detach this run's bus subscribers (idempotent).

        A reused simulator must not keep feeding a previous run's
        statistics on a subsequent run.
        """
        if self._streaming is not None:
            self.events.unsubscribe(self._streaming._on_sample)
        if self.fault_controller is not None:
            self.events.unsubscribe(self.fault_controller.stats.on_event)
        if self.engine is not None:
            self.events.unsubscribe(self.engine._on_completion_event)

    def finish(self, now: float) -> SimulationResult:
        """Assemble the result of a run that ended at time ``now``."""
        makespan = max(
            (app.finish_time for app in self.submission_order
             if app.finish_time is not None),
            default=now,
        )
        fault_summary = None
        if self.fault_controller is not None:
            fault_summary = self.fault_controller.finalize(float(makespan))
        switches = tuple(
            SchemeSwitch(time_min=event.time,
                         from_scheme=event.from_scheme,
                         to_scheme=event.to_scheme,
                         reason=event.reason)
            for event in self.events.of_kind(EventKind.SCHEME_SWITCH))
        return SimulationResult(
            apps=dict(self.apps),
            events=self.events,
            makespan_min=float(makespan),
            unsubmitted_jobs=self.cluster.state.pending_list(),
            streaming_utilization_percent=self._streaming.mean_percent(),
            fault_summary=fault_summary,
            scheme_switches=switches,
        )

    def run(self, jobs: list[Job]) -> SimulationResult:
        """Simulate the given job mix to completion and return the result.

        Jobs with ``submit_time_min == 0`` (the default) are submitted
        together before the first scheduling epoch, reproducing the seed's
        closed-batch behaviour; later arrival times make jobs enter the
        queue as simulated time reaches them (open-arrival scenarios).
        """
        context = self.start(jobs)
        try:
            now = self.engine.run(context)
        finally:
            self.detach_run_subscribers()
        return self.finish(now)
