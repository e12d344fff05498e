"""Array-backed kernel state: the structured-array core of the cluster.

Hot kernel state — node capacities, up/speed flags, reservation
sums, executor placements and progress — lives in two NumPy
structured arrays owned by :class:`ClusterState`.  :class:`~repro.cluster.node.Node`
and :class:`~repro.spark.executor.Executor` are thin *views* over one
array slot each: scalar reads and writes go through properties that hit
the arrays, so the per-object API (and therefore the scheduler /
Observation boundary) is unchanged while the engines' per-epoch hot
loops (capacity accounting, progress advancement, wake-point scanning,
utilization sampling) become vectorized operations over array columns.

Ownership and invalidation rules (see ``docs/ARCHITECTURE.md``):

* The :class:`~repro.cluster.cluster.Cluster` owns exactly one
  ``ClusterState``; a node is *adopted* into it when it joins the
  cluster and keeps no copy of its row; executors are adopted when they
  are placed and *evicted* when they leave.
* References run from the objects to the state, never back: the
  node and application back-maps (``node_objs``/``app_objs``) hold weak
  references, while the cluster's node list and the simulator's ``apps``
  own the objects.  A finished run's object graph is therefore freed by
  reference counting alone, without waiting for the cyclic collector.
  ``exec_objs`` holds executors strongly, because eviction clears both
  of an executor's back-references and a completed run evicts them all.
* Executor slots are append-only — slot order equals spawn order equals
  ``executor_id`` order — and compaction (:meth:`ClusterState.compact`)
  preserves that order, so vectorized reductions over slots reproduce
  the per-object iteration order bit for bit.
* Node reservation sums are recomputed lazily: mutations put a node in
  the dirty set (the one dirty flag), and the node's own reads or
  :meth:`refresh_dirty` re-run the (order-preserving, hence bit-exact)
  per-node Python sums only for dirty nodes.
* Schedulers never see these arrays: they keep talking to ``Node`` /
  ``SchedulingContext``, whose reads are backed by the same slots.
"""

from __future__ import annotations

import weakref

import numpy as np

__all__ = ["ClusterState", "NODE_DTYPE", "EXEC_DTYPE", "APP_DTYPE"]

#: Per-node columns, the only store of each node fact.  Static
#: capacities are copied in at adoption; ``up``/``speed`` are written by
#: the Node mutators; the reservation sums are written by the spawn path
#: (``Node.add_executor``) on a clean row and recomputed by
#: ``Node._refresh`` on a dirty one.
NODE_DTYPE = np.dtype([
    ("ram_gb", np.float64),
    ("swap_gb", np.float64),
    ("cores", np.int64),
    ("up", np.bool_),
    ("speed", np.float64),
    ("reserved_mem_gb", np.float64),
    ("reserved_cpu", np.float64),
    ("n_active", np.int64),
])

#: Per-executor columns.  ``assigned_gb``/``processed_gb`` are the
#: authoritative store while an executor is adopted (the object's
#: properties read them); ``active`` mirrors ``Executor.is_active`` and
#: is maintained on every state transition; ``rate_gb_per_min`` /
#: ``footprint_gb`` are engine-owned memo columns (``footprint_key_gb``
#: is the assigned size the footprint was computed for — NaN means
#: never filled, and any growth of the assigned share invalidates it).
EXEC_DTYPE = np.dtype([
    ("node_slot", np.int64),
    ("app_index", np.int64),
    ("cpu_demand", np.float64),
    ("budget_gb", np.float64),
    ("assigned_gb", np.float64),
    ("processed_gb", np.float64),
    ("rate_gb_per_min", np.float64),
    ("footprint_gb", np.float64),
    ("footprint_key_gb", np.float64),
    ("active", np.bool_),
    ("alive", np.bool_),
])

#: Per-application queue columns (submit-order slots).  ``ready_time`` is
#: written once at submission (profiling-window expiry); ``unassigned_gb``
#: and ``finished`` are dual-written by the SparkApplication mutators
#: (``take_unassigned``/``return_unassigned``/``mark_finished``), so the
#: waiting-queue scans are column masks instead of per-object loops.
APP_DTYPE = np.dtype([
    ("ready_time", np.float64),
    ("unassigned_gb", np.float64),
    ("finished", np.bool_),
])

#: Compaction threshold: compact once this many dead slots accumulate
#: *and* they outnumber the live ones (amortized O(1) per eviction).
_COMPACT_MIN_DEAD = 64


class ClusterState:
    """The structured arrays behind one cluster's nodes and executors."""

    __slots__ = ("_node", "n_nodes", "node_objs", "node_ids",
                 "_exec", "n_execs", "exec_objs",
                 "_n_dead", "_dirty_nodes", "version",
                 "_app", "n_apps", "app_objs", "_n_apps_dead",
                 "_pending_times", "_pending_jobs", "_pending_head")

    def __init__(self, n_nodes_hint: int = 0) -> None:
        self._node = np.zeros(max(int(n_nodes_hint), 4), NODE_DTYPE)
        self.n_nodes = 0
        #: Parallel list: ``node_objs[slot]()`` is the Node viewing
        #: ``slot`` (a weak reference; the cluster owns its nodes).
        self.node_objs: list[weakref.ref] = []
        #: Parallel list of node ids (slot order), for sample batches.
        self.node_ids: list[int] = []
        self._exec = np.zeros(64, EXEC_DTYPE)
        self.n_execs = 0
        #: Parallel list: ``exec_objs[slot]`` is the Executor viewing
        #: ``slot`` (``None`` for evicted slots awaiting compaction).
        self.exec_objs: list = []
        self._n_dead = 0
        #: Slots of the nodes whose reservation sums are stale: the one
        #: dirty flag (``Node._refresh`` clears a node's entry).
        self._dirty_nodes: set[int] = set()
        #: Monotone mutation counter: bumped whenever node membership,
        #: executor placement/activity, or reservation sums change
        #: (adoption, eviction, dirty-marking).  Feature snapshots built
        #: from these arrays (``SchedulingContext.node_features``) are
        #: cached against it — equal version means bit-identical columns.
        self.version = 0
        # Application queue: submit-order slots over APP_DTYPE columns,
        # compacted (order-preserving) as finished apps accumulate.
        self._app = np.zeros(64, APP_DTYPE)
        self.n_apps = 0
        #: Parallel list: ``app_objs[slot]()`` views queue slot ``slot``
        #: (a weak reference; the simulator's ``apps`` owns the apps).
        self.app_objs: list[weakref.ref] = []
        self._n_apps_dead = 0
        # Pending (not yet submitted) jobs: a submit-time column plus the
        # parallel Job list, drained head-first as simulated time reaches
        # each arrival — the array-backed successor of the arrival deque.
        self._pending_times = np.empty(0)
        self._pending_jobs: list = []
        self._pending_head = 0

    # ------------------------------------------------------------------
    # Column views (capacity-trimmed)
    # ------------------------------------------------------------------
    def nodes_view(self) -> np.ndarray:
        """The live node rows (a view, never a copy)."""
        return self._node[:self.n_nodes]

    def execs_view(self) -> np.ndarray:
        """All executor rows up to the high-water slot (includes dead)."""
        return self._exec[:self.n_execs]

    def active_slots(self) -> np.ndarray:
        """Slots of active executors, ascending (= spawn order)."""
        return np.flatnonzero(self._exec["active"][:self.n_execs])

    def app_in_flight(self, n_apps: int) -> np.ndarray:
        """In-flight GB per application index (``0..n_apps-1``).

        Sums ``max(assigned - processed, 0)`` over each application's
        alive executors (an executor leaves the cluster as soon as it
        stops RUNNING, the filter ``SparkApplication.remaining_gb``
        applies).  ``np.bincount`` adds each bin's weights in input
        order, and slot order is spawn order, so every sum is bit for bit
        the Python left-to-right sum over the application's executors.
        """
        execs = self.execs_view()
        app_of = execs["app_index"]
        alive = execs["alive"] & (app_of >= 0)
        return np.bincount(
            app_of[alive],
            weights=np.maximum(execs["assigned_gb"][alive]
                               - execs["processed_gb"][alive], 0.0),
            minlength=n_apps)

    def evict_all(self) -> None:
        """Evict every still-adopted executor (a run is over).

        Each executor keeps its scalars and its place in its node's and
        application's lists, but no longer refers back to the state or
        the node, so a run that ended with work still placed leaves no
        reference cycle.
        """
        for executor in self.exec_objs:
            if executor is not None:
                executor._node = None
                self.evict_executor(executor)

    # ------------------------------------------------------------------
    # Adoption / eviction
    # ------------------------------------------------------------------
    def adopt_node(self, node) -> int:
        """Give ``node`` an array slot; returns the slot index."""
        self.version += 1
        slot = self.n_nodes
        if slot >= len(self._node):
            self._node = _grown(self._node, slot + 1)
        # One tuple per row (NODE_DTYPE order): a single structured write
        # instead of one per field.  A new node is up, at full speed and
        # hosts nothing, so its zero reservation sums are already fresh.
        self._node[slot] = (node.ram_gb, node.swap_gb, node.cores, True, 1.0,
                            0.0, 0.0, 0)
        self.node_objs.append(weakref.ref(node))
        self.node_ids.append(int(node.node_id))
        self.n_nodes = slot + 1
        node._state = self
        node._slot = slot
        return slot

    def adopt_executor(self, executor, node_slot: int) -> int:
        """Move an executor's scalars into a fresh array slot.

        Adoption happens only between engine iterations (spawns occur in
        scheduler invocations and fault application), so this is the one
        safe point to compact away accumulated dead slots.
        """
        self.maybe_compact()
        self.version += 1
        slot = self.n_execs
        if slot >= len(self._exec):
            self._exec = _grown(self._exec, slot + 1)
        # One tuple per row (EXEC_DTYPE order): a single structured write
        # instead of one per field.  NaN marks the memo columns as never
        # filled.  ``is_active`` still reads the object's own scalars here,
        # the values this row stores.
        self._exec[slot] = (node_slot, executor.app_index, executor.cpu_demand,
                            executor.memory_budget_gb, executor._assigned_gb,
                            executor._processed_gb, np.nan, np.nan, np.nan,
                            executor.is_active, True)
        self.exec_objs.append(executor)
        self.n_execs = slot + 1
        executor._state = self
        executor._slot = slot
        return slot

    def evict_executor(self, executor) -> None:
        """Release an executor's slot, copying the array scalars back.

        After eviction the object answers ``assigned_gb``/``processed_gb``
        from its own attributes again, so post-removal accounting
        (``SparkApplication.processed_gb`` sums over *all* executors,
        including finished and failed ones) keeps working.
        """
        self.version += 1
        slot = executor._slot
        executor._assigned_gb = float(self._exec["assigned_gb"][slot])
        executor._processed_gb = float(self._exec["processed_gb"][slot])
        executor._state = None
        executor._slot = None
        self._exec["alive"][slot] = False
        self._exec["active"][slot] = False
        self.exec_objs[slot] = None
        self._n_dead += 1

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def maybe_compact(self) -> None:
        """Compact when dead slots outnumber live ones (engine epoch top).

        Never called mid-iteration: engines only invoke it at a point
        where no slot indices are cached, because compaction renumbers
        every live executor's slot.
        """
        if self._n_dead >= _COMPACT_MIN_DEAD and self._n_dead * 2 > self.n_execs:
            self.compact()

    def compact(self) -> None:
        """Drop dead executor rows, preserving live slot order."""
        if self._n_dead == 0:
            return
        keep = np.flatnonzero(self._exec["alive"][:self.n_execs])
        n_live = int(keep.size)
        self._exec[:n_live] = self._exec[keep]
        self._exec["alive"][n_live:self.n_execs] = False
        self._exec["active"][n_live:self.n_execs] = False
        live_objs = [self.exec_objs[slot] for slot in keep.tolist()]
        for new_slot, executor in enumerate(live_objs):
            executor._slot = new_slot
        self.exec_objs = live_objs
        self.n_execs = n_live
        self._n_dead = 0

    # ------------------------------------------------------------------
    # Dirty-node tracking
    # ------------------------------------------------------------------
    def mark_node_dirty(self, slot: int) -> None:
        """A node's reservation sums went stale."""
        self.version += 1
        self._dirty_nodes.add(slot)

    def refresh_dirty(self) -> None:
        """Recompute the reservation sums of every dirty node's row.

        Each refresh (``Node._refresh``) is a Python sum in executor
        insertion order, bit for bit what the incremental spawn path
        computes, and takes its node out of the dirty set.
        """
        node_objs = self.node_objs
        for slot in list(self._dirty_nodes):
            node_objs[slot]()._refresh()

    # ------------------------------------------------------------------
    # Pending-job queue (array-backed arrival queue)
    # ------------------------------------------------------------------
    def load_pending(self, jobs: list) -> None:
        """Install one run's arrival queue (``jobs`` sorted by submit time)."""
        self._pending_jobs = list(jobs)
        self._pending_times = np.fromiter(
            (job.submit_time_min for job in self._pending_jobs),
            dtype=np.float64, count=len(self._pending_jobs))
        self._pending_head = 0

    def pop_pending_due(self, now: float) -> list:
        """Drain and return every pending job with ``submit_time <= now``.

        ``searchsorted`` against the same ``now + 1e-9`` tolerance the
        historical deque loop compared with, so the drained prefix is
        identical job for job.
        """
        head = self._pending_head
        hi = int(np.searchsorted(self._pending_times, now + 1e-9,
                                 side="right"))
        if hi <= head:
            return []
        self._pending_head = hi
        return self._pending_jobs[head:hi]

    def next_pending_min(self) -> float | None:
        """Submit time of the earliest still-pending job, or ``None``."""
        if self._pending_head >= len(self._pending_jobs):
            return None
        return float(self._pending_times[self._pending_head])

    def pending_count(self) -> int:
        """Number of jobs whose arrival time has not been reached."""
        return len(self._pending_jobs) - self._pending_head

    def pending_list(self) -> list:
        """The still-pending jobs, in submission order (a fresh list)."""
        return self._pending_jobs[self._pending_head:]

    # ------------------------------------------------------------------
    # Application queue (submit-order slots)
    # ------------------------------------------------------------------
    def adopt_app(self, app, ready_time: float) -> int:
        """Give a submitted application a queue slot; returns the slot."""
        slot = self.n_apps
        if slot >= len(self._app):
            self._app = _grown(self._app, slot + 1)
        row = self._app[slot]
        row["ready_time"] = ready_time
        row["unassigned_gb"] = app.unassigned_gb
        row["finished"] = False
        self.app_objs.append(weakref.ref(app))
        self.n_apps = slot + 1
        app._qstate = self
        app._qslot = slot
        return slot

    def app_finished_slot(self, slot: int) -> None:
        """Dual-write hook: the app viewing ``slot`` reached FINISHED."""
        if not self._app["finished"][slot]:
            self._app["finished"][slot] = True
            self._n_apps_dead += 1

    def waiting_app_slots(self, now: float) -> np.ndarray:
        """Queue slots of ready, unfinished apps with unassigned data.

        Ascending slot order — submission order, which compaction
        preserves — with the exact comparisons of the historical
        per-object scan (``ready_time <= now + 1e-9``,
        ``unassigned_gb > 1e-6``).
        """
        n = self.n_apps
        rows = self._app[:n]
        mask = ~rows["finished"]
        mask &= rows["ready_time"] <= now + 1e-9
        mask &= rows["unassigned_gb"] > 1e-6
        return np.flatnonzero(mask)

    def any_waiting(self, now: float) -> bool:
        """Whether any unfinished app is ready with unassigned data."""
        n = self.n_apps
        rows = self._app[:n]
        mask = ~rows["finished"]
        mask &= rows["ready_time"] <= now + 1e-9
        mask &= rows["unassigned_gb"] > 1e-6
        return bool(mask.any())

    def maybe_compact_apps(self) -> None:
        """Compact the app queue when finished slots outnumber live ones.

        Called only at the top of a scheduling epoch (before arrivals),
        where no queue-slot indices are cached — compaction renumbers
        every live application's slot.
        """
        if (self._n_apps_dead >= _COMPACT_MIN_DEAD
                and self._n_apps_dead * 2 > self.n_apps):
            self.compact_apps()

    def compact_apps(self) -> None:
        """Drop finished app rows, preserving submit-order slots."""
        if self._n_apps_dead == 0:
            return
        keep = np.flatnonzero(~self._app["finished"][:self.n_apps])
        n_live = int(keep.size)
        self._app[:n_live] = self._app[keep]
        live_objs = [self.app_objs[slot] for slot in keep.tolist()]
        for new_slot, app_ref in enumerate(live_objs):
            app_ref()._qslot = new_slot
        self.app_objs = live_objs
        self.n_apps = n_live
        self._n_apps_dead = 0


def _grown(array: np.ndarray, need: int) -> np.ndarray:
    """Amortized-doubling reallocation of a structured array."""
    capacity = len(array)
    while capacity < need:
        capacity *= 2
    grown = np.zeros(capacity, array.dtype)
    grown[:len(array)] = array
    return grown
