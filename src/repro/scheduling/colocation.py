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
        features = ctx.node_features()
        if features is None:
            waiting = ctx.waiting_apps()
            self._round_robin(waiting, lambda k: self._schedule_app(
                ctx, waiting[k], max_new_executors=1))
            return
        if not (features.up & (features.free_gb >= self.min_free_gb)).any():
            # No live node clears the minimum-free bar, so no placement
            # pass below could spawn anything (each scan would break at
            # its first node); the scalar walk is side-effect-free in
            # that case, so skip the waiting queue entirely.
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
            ctx, waiting, k, in_flight, active))

    @staticmethod
    def _round_robin(waiting: list[SparkApplication], place) -> None:
        """Offer ``place(k)`` one executor per waiting app per round.

        The paper's dispatcher starts waiting applications as soon as
        possible instead of letting already-running jobs absorb every
        freed resource: applications that have not received any executor
        yet get first pick of one executor each, and further growth is
        granted round-robin — one executor per application per round,
        looping until nothing more fits this step — so the dispatcher is
        work-conserving without letting the oldest job starve the rest.
        """
        for k, app in enumerate(waiting):
            if not app.executors:
                place(k)
        progressed = True
        while progressed:
            progressed = False
            for k in range(len(waiting)):
                if place(k):
                    progressed = True

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
                       in_flight: list[float], active: list[int]) -> int:
        """Offer ``waiting[k]`` one executor; keep its tallies exact.

        The vector-kernel form of ``_schedule_app(..., max_new_executors=1)``:
        the same target and the same scan, with the in-flight data and
        active count read from the tallies instead of the executor list.
        """
        app = waiting[k]
        # The executor target follows the *remaining* data (in-flight plus
        # unassigned), as in the scalar scan below.
        desired = self.allocation_policy.desired_executors(
            max(app.unassigned_gb + in_flight[k], 1e-3))
        if active[k] >= desired:
            return 0
        features = ctx.node_features()
        executor = self._place_one_vector(
            ctx, app, features, self.score_batch(ctx, app, features),
            desired, active[k])
        if executor is None:
            return 0
        in_flight[k] += executor.assigned_gb
        active[k] += 1
        return 1

    def _schedule_app(self, ctx: SchedulingContext, app: SparkApplication,
                      max_new_executors: int | None = None) -> int:
        # The executor target follows the *remaining* data (in-flight plus
        # unassigned), the way Spark's dynamic allocation follows the number
        # of pending tasks; this also prevents the final sliver of an
        # application from being split across dozens of near-empty executors.
        desired = self.allocation_policy.desired_executors(
            max(app.remaining_gb, 1e-3)
        )
        active = len(app.active_executors)
        if active >= desired:
            return 0
        cpu_load = self.estimator.cpu_load(app.name)
        spawned = 0
        for node in ctx.cluster.nodes_by_free_memory():
            if active >= desired or app.unassigned_gb <= 1e-6:
                break
            if max_new_executors is not None and spawned >= max_new_executors:
                break
            free_gb = node.free_reserved_memory_gb
            if free_gb < self.min_free_gb:
                # Nodes are sorted by free memory, so no later node fits.
                break
            if node.reserved_cpu_load + cpu_load > 1.0 + 1e-9:
                continue
            share = app.unassigned_gb / max(desired - active, 1)
            budget, data = self._size_executor(app.name, share, free_gb)
            # Never starve an application's final sliver of data: the
            # minimum-chunk rule only applies while larger chunks remain.
            if data < min(self.min_data_gb, app.unassigned_gb - 1e-9):
                continue
            executor = ctx.spawn_executor(app, node.node_id, budget, data)
            if executor is not None:
                active += 1
                spawned += 1
        return spawned

    def _place_one_vector(self, ctx: SchedulingContext,
                          app: SparkApplication, features: NodeFeatures,
                          scores: np.ndarray, desired: int, active: int):
        """Column-scored form of the single-spawn scan above.

        Valid only for ``max_new_executors == 1``: until the one spawn
        happens nothing mutates, so the share and the feature snapshot
        stay constant through the scan — exactly like the scalar loop,
        which breaks right after its first successful spawn.  Returns the
        spawned executor, or ``None``.
        """
        if app.unassigned_gb <= 1e-6:
            return None
        slots = features.ranked(scores)
        share = app.unassigned_gb / max(desired - active, 1)
        if not self.resize_to_fit and slots.size and share > 1e-9:
            # Column admission: without resizing, a node takes the full
            # share or nothing, and ``_size_executor`` gives any node
            # short of the predicted need a zero share, which the scan
            # below skips.  So keep only the nodes that cover it.  A share
            # above 1e-9 is granted whole, so a refused spawn leaves the
            # app untouched and the share constant over the scan.
            predicted = self._predicted_footprint(app.name, share)
            slots = slots[features.free_gb[slots] >= predicted]
        for slot in slots.tolist():
            free_gb = float(features.free_gb[slot])
            share = app.unassigned_gb / max(desired - active, 1)
            budget, data = self._size_executor(app.name, share, free_gb)
            # Never starve an application's final sliver of data: the
            # minimum-chunk rule only applies while larger chunks remain.
            if data < min(self.min_data_gb, app.unassigned_gb - 1e-9):
                continue
            executor = ctx.spawn_executor(app, int(features.node_ids[slot]),
                                          budget, data)
            if executor is not None:
                return executor
        return None

    def score_batch(self, ctx: SchedulingContext, app: SparkApplication,
                    features: NodeFeatures) -> np.ndarray:
        """Free memory as the score, NaN where the admission rules fail.

        The NaN mask is the scalar scan's skip set: down nodes, nodes
        under ``min_free_gb`` (the scalar loop breaks there — on a
        descending free-memory scan every later node fails too, so the
        mask removes exactly the broken-out suffix), and nodes whose
        aggregate CPU would exceed 100 % with this application added.
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
