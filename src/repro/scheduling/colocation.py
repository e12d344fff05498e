"""The memory-aware co-location dispatcher (Section 4.3).

The dispatcher walks the waiting queue in first-come-first-serve order.
For each application it keeps Spark's dynamic allocation as the target
executor count, then places executors on the nodes with the most spare
memory, subject to the paper's two admission rules:

* the executor's memory reservation — the *predicted* footprint of the data
  share it will cache, plus a small safety margin — must fit in the node's
  unreserved RAM; and
* the aggregate CPU load of all co-running executors on the node (known
  from profiling and the resource monitor) must not exceed 100 %.

When a node has spare memory but less than the predicted need, the
calibrated memory function is inverted to find how many data items *do*
fit, so partially free nodes are still used.  Because executors are sized
per data chunk and new chunks are handed out as executors finish, the
number of data items given to co-located executors adapts over time, as in
the paper.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.cluster.simulator import NodeFeatures, SchedulingContext
from repro.scheduling.base import Scheduler
from repro.scheduling.estimators import MemoryEstimator
from repro.spark.application import SparkApplication
from repro.spark.driver import DynamicAllocationPolicy

__all__ = ["MemoryAwareCoLocationScheduler"]


class MemoryAwareCoLocationScheduler(Scheduler):
    """Co-location driven by a pluggable memory estimator.

    Parameters
    ----------
    estimator:
        Source of footprint and CPU estimates (the paper's mixture of
        experts, the oracle, Quasar's classifier, ...).
    allocation_policy:
        Spark-like dynamic allocation policy providing the target executor
        count per application.
    safety_margin:
        Multiplier applied to predicted footprints when sizing the
        reservation; the paper suggests slightly over-provisioning to
        tolerate prediction error.
    min_data_gb:
        Smallest data chunk worth spawning an executor for.
    min_free_gb:
        Smallest amount of unreserved node memory worth considering.
    resize_to_fit:
        Whether the dispatcher may invert the memory function to shrink an
        executor's data share so it fits a partially free node.  This is
        the capability the paper's memory functions provide; the Quasar
        baseline estimates a single static requirement and therefore runs
        with ``resize_to_fit=False``.
    """

    def __init__(self, estimator: MemoryEstimator,
                 allocation_policy: DynamicAllocationPolicy | None = None,
                 safety_margin: float = 1.05,
                 min_data_gb: float = 0.25,
                 min_free_gb: float = 1.0,
                 resize_to_fit: bool = True) -> None:
        if safety_margin < 1.0:
            raise ValueError("safety_margin must be at least 1.0")
        self.estimator = estimator
        self.allocation_policy = allocation_policy or DynamicAllocationPolicy()
        self.safety_margin = safety_margin
        self.min_data_gb = min_data_gb
        self.min_free_gb = min_free_gb
        self.resize_to_fit = resize_to_fit
        # Predicted footprints are deterministic per (app, data share) once
        # the estimator is calibrated; memoising them keeps repeated scans
        # over a full cluster from re-running the predictor per node.
        self._predicted_gb: dict[tuple[str, float], float] = {}

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------
    def on_submit(self, ctx: SchedulingContext, app: SparkApplication) -> float:
        cost = self.estimator.prepare(app, ctx.spec_of(app))
        return self.charge_profiling(app, cost)

    def schedule(self, ctx: SchedulingContext) -> None:
        ranking = _Ranking(ctx.node_features(), ctx.cluster.state,
                           self.min_free_gb)
        if not ranking.entries:
            # No live node clears the minimum-free bar, so no offer could
            # spawn anything; offers are side-effect-free in that case,
            # so skip the waiting queue entirely.
            return
        waiting = ctx.waiting_apps()
        if not waiting:
            return
        # Per-epoch tallies: each waiting app's in-flight GB and active
        # executors, from the executor columns once per call.  Only this
        # pass's own spawns change them until the engine advances time,
        # and a newcomer is last in spawn order, so adding its share to
        # the running sum is exactly the recomputed sum.
        in_flight, active = ctx.app_tallies(waiting)
        self._prefetch_footprints(waiting, in_flight, active)
        self._round_robin(waiting, lambda k: self._place_tallied(
            ctx, waiting, k, in_flight, active, ranking))

    @staticmethod
    def _round_robin(waiting: list[SparkApplication], place) -> None:
        """Offer ``place(k)`` one executor per waiting app per round.

        The paper's dispatcher starts waiting applications as soon as
        possible instead of letting already-running jobs absorb every
        freed resource: applications that have not received any executor
        yet get first pick of one executor each, and further growth is
        granted round-robin — one executor per application per round —
        so the dispatcher is work-conserving without letting the oldest
        job starve the rest.

        An application settles the first time an offer places nothing and
        gets no more offers in this call.  No placement is lost: a refused
        offer changes nothing, and the call's other changes are its own
        spawns, which only take memory and CPU from nodes and leave other
        applications untouched, so a settled application would be refused
        again.  The rounds end where a full round would place nothing.
        """
        live = [k for k, app in enumerate(waiting)
                if app.executors or place(k)]
        while live:
            live = [k for k in live if place(k)]

    def on_cluster_change(self, ctx: SchedulingContext, event) -> None:
        super().on_cluster_change(ctx, event)
        # The executor target — and with it every (app, share) memo key —
        # derives from the allocation policy just re-sized above, and a
        # topology change can re-prepare applications behind the
        # estimator's back; dropping the memo guarantees no footprint
        # predicted before the change is ever reused after it.
        self._predicted_gb.clear()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _prefetch_footprints(self, waiting: list[SparkApplication],
                             in_flight: list[float],
                             active: list[int]) -> None:
        """One batched footprint inference per epoch over the waiting queue.

        Fills the ``(app, share)`` memo for every waiting application's
        current target share through a single
        :meth:`MemoryEstimator.footprint_batch` call, so the per-node
        placement scans below hit the memo instead of invoking the
        estimator application by application (and the estimator can
        amortize its feature pipeline across the whole batch).  Memo
        values are exactly what the lazy per-call fills in
        ``_predicted_footprint`` would store — ``footprint_batch`` is
        bit-identical to per-row ``footprint_gb`` by contract — so the
        prefetch only moves work, never changes a placement.
        ``in_flight``/``active`` are the tallies aligned with ``waiting``.
        """
        names: list[str] = []
        shares: list[float] = []
        keys: list[tuple[str, float]] = []
        for app, app_in_flight, app_active in zip(waiting, in_flight, active):
            desired = self.allocation_policy.desired_executors(
                max(app.unassigned_gb + app_in_flight, 1e-3)
            )
            if app_active >= desired or app.unassigned_gb <= 1e-6:
                continue
            share = app.unassigned_gb / max(desired - app_active, 1)
            key = (app.name, share)
            if key in self._predicted_gb:
                continue
            names.append(app.name)
            shares.append(share)
            keys.append(key)
        if not names:
            return
        predicted = self.estimator.footprint_batch(
            names, np.asarray(shares, dtype=np.float64))
        for key, value in zip(keys, predicted):
            self._predicted_gb[key] = float(value) * self.safety_margin

    def _place_tallied(self, ctx: SchedulingContext,
                       waiting: list[SparkApplication], k: int,
                       in_flight: list[float], active: list[int],
                       ranking: "_Ranking") -> int:
        """Offer ``waiting[k]`` one executor; keep its tallies exact.

        The in-flight data and active count are read from the tallies and
        the nodes from the pass's ``ranking``.  Nothing changes before the
        one spawn, so the share is constant over the walk.
        """
        app = waiting[k]
        # The executor target follows the *remaining* data (in-flight plus
        # unassigned), the way Spark's dynamic allocation follows the
        # number of pending tasks; this also keeps the final sliver of an
        # application from being split across dozens of near-empty
        # executors.
        desired = self.allocation_policy.desired_executors(
            max(app.unassigned_gb + in_flight[k], 1e-3))
        if active[k] >= desired or app.unassigned_gb <= 1e-6:
            return 0
        share = app.unassigned_gb / max(desired - active[k], 1)
        # Never starve an application's final sliver of data: the
        # minimum-chunk rule only applies while larger chunks remain.  It
        # also keeps chunks above 1e-9 GB, so a refused spawn takes none.
        floor = min(self.min_data_gb, app.unassigned_gb - 1e-9)
        cpu_load = self.estimator.cpu_load(app.name)
        for position, slot, free_gb in ranking.walk(cpu_load):
            budget, data = self._size_executor(app.name, share, free_gb)
            if budget > free_gb:
                # Only without resizing can the reservation exceed the
                # free memory: this node is short of the predicted need,
                # and every later node has less free memory.
                break
            if data < floor:
                continue
            executor = ctx.spawn_executor(app, ranking.node_ids[slot],
                                          budget, data)
            if executor is not None:
                ranking.spawned(position)
                in_flight[k] += executor.assigned_gb
                active[k] += 1
                return 1
        return 0

    def score_batch(self, ctx: SchedulingContext, app: SparkApplication,
                    features: NodeFeatures) -> np.ndarray:
        """Free memory as the score, NaN where the admission rules fail.

        The scheme's declared rule: :meth:`schedule` walks this order from
        its per-call ``_Ranking`` instead of scoring per offer.

        The NaN mask drops down nodes, nodes under ``min_free_gb``, and
        nodes whose aggregate CPU would exceed 100 % with this
        application added.
        """
        cpu_load = self.estimator.cpu_load(app.name)
        eligible = (features.up
                    & (features.free_gb >= self.min_free_gb)
                    & (features.reserved_cpu + cpu_load <= 1.0 + 1e-9))
        return np.where(eligible, features.free_gb, np.nan)

    def _size_executor(self, app_name: str, share_gb: float,
                       free_gb: float) -> tuple[float, float]:
        """Choose the memory reservation and data share for one executor.

        If the predicted need for the full share fits the free memory, the
        executor is sized exactly for the share; otherwise the memory
        function is inverted to find the largest chunk that fits what is
        available.
        """
        predicted = self._predicted_footprint(app_name, share_gb)
        if predicted <= free_gb:
            return predicted, share_gb
        if not self.resize_to_fit:
            # Without an invertible memory function the dispatcher can only
            # take or leave the full share.
            return predicted, 0.0
        budget = free_gb
        data = self.estimator.data_for_budget_gb(
            app_name, budget / self.safety_margin, max_gb=share_gb
        )
        return budget, min(data, share_gb)

    def _predicted_footprint(self, app_name: str, share_gb: float) -> float:
        """The memoised reservation for one executor: predicted need
        for ``share_gb`` times the safety margin."""
        key = (app_name, share_gb)
        predicted = self._predicted_gb.get(key)
        if predicted is None:
            predicted = (self.estimator.footprint_gb(app_name, share_gb)
                         * self.safety_margin)
            self._predicted_gb[key] = predicted
        return predicted


class _Ranking:
    """The pass's node order, ranked once per ``schedule()`` call.

    Live nodes with at least ``min_free_gb`` unreserved, most free memory
    first, ties in slot order: the order ``features.ranked(score_batch(...))``
    visits, before the per-app CPU test.  Within a call only the pass's
    own spawns change nodes, each lowering the free memory and raising the
    CPU load of one node, so :meth:`spawned` re-reads that node alone.
    """

    __slots__ = ("entries", "node_ids", "_reserved_cpu", "_state",
                 "_min_free_gb")

    def __init__(self, features: NodeFeatures, state,
                 min_free_gb: float) -> None:
        free = features.free_gb
        slots = np.flatnonzero(features.up & (free >= min_free_gb))
        #: ``(-free_gb, slot)`` per ranked node, ascending.
        self.entries = sorted(zip((-free[slots]).tolist(), slots.tolist()))
        #: Node ids, slot order.
        self.node_ids = features.node_ids.tolist()
        self._reserved_cpu = features.reserved_cpu.tolist()
        self._state = state
        self._min_free_gb = min_free_gb

    def walk(self, cpu_load: float):
        """``(position, slot, free GB)`` of each ranked node whose CPU
        admits ``cpu_load`` more, in rank order (``score_batch``'s mask)."""
        reserved_cpu = self._reserved_cpu
        for position, (neg_free, slot) in enumerate(self.entries):
            if reserved_cpu[slot] + cpu_load <= 1.0 + 1e-9:
                yield position, slot, -neg_free

    def spawned(self, position: int) -> None:
        """Re-rank the node at ``position`` after a spawn landed on it.

        Free memory is ``max(ram - reserved, 0)`` on the node's columns,
        the expression ``NodeFeatures`` computes.
        """
        _, slot = self.entries.pop(position)
        # Read without a refresh: the pass's snapshot left every node
        # clean, and a spawn onto a clean node updates its row in place
        # and keeps it clean (``Node.add_executor``).
        rows = self._state.nodes_view()
        free = max(float(rows["ram_gb"][slot] - rows["reserved_mem_gb"][slot]),
                   0.0)
        self._reserved_cpu[slot] = float(rows["reserved_cpu"][slot])
        if free >= self._min_free_gb:
            bisect.insort(self.entries, (-free, slot))
