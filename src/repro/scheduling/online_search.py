"""Online-search allocation (the comparison of Section 6.5).

Instead of predicting the memory footprint, this scheme searches for the
right number of data items to give an executor at runtime using a
gradient-descent style trial process.  The search eventually finds good
allocations (its measurements are exact), but it pays for them twice:

* each application can only grow by one executor per search interval,
  because the search trials are sequential; and
* newly spawned executors start with a conservative fraction of the data
  that would actually fit, wasting memory until later search steps enlarge
  the chunks.

Both costs grow with the number of executors (and therefore nodes) an
application uses, which is the scalability problem the paper points out.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.simulator import NodeFeatures, SchedulingContext
from repro.scheduling.base import ProfilingCost, Scheduler
from repro.scheduling.estimators import OracleEstimator
from repro.spark.application import SparkApplication
from repro.spark.driver import DynamicAllocationPolicy

__all__ = ["OnlineSearchScheduler"]


class OnlineSearchScheduler(Scheduler):
    """Gradient-descent style online search for executor data allocations.

    Parameters
    ----------
    search_interval_min:
        Minimum time between successive executor spawns of the same
        application (each spawn requires a search trial).
    initial_fraction:
        Fraction of the truly fitting data size given to a newly spawned
        executor — the conservative starting point of the search.
    allocation_policy:
        Spark dynamic-allocation policy used for executor counts.
    """

    def __init__(self, search_interval_min: float = 2.5,
                 initial_fraction: float = 0.4,
                 allocation_policy: DynamicAllocationPolicy | None = None) -> None:
        if search_interval_min < 0:
            raise ValueError("search_interval_min cannot be negative")
        if not 0 < initial_fraction <= 1:
            raise ValueError("initial_fraction must be in (0, 1]")
        self.search_interval_min = search_interval_min
        self.initial_fraction = initial_fraction
        self.allocation_policy = allocation_policy or DynamicAllocationPolicy()
        self._measure = OracleEstimator()
        self._last_spawn: dict[str, float] = {}
        # Deadlines of interval-gated waiting apps, refreshed per schedule()
        # call; the event-driven engine wakes the scheduler at the earliest.
        self._gate_deadlines: list[float] = []

    def on_submit(self, ctx: SchedulingContext, app: SparkApplication) -> float:
        # No offline model: the only up-front cost is the first search trial.
        self._measure.prepare(app, ctx.spec_of(app))
        return self.charge_profiling(
            app, ProfilingCost(calibration_min=self.search_interval_min)
        )

    def schedule(self, ctx: SchedulingContext) -> None:
        self._gate_deadlines = []
        for app in ctx.waiting_apps():
            self._schedule_app(ctx, app)

    def next_wake_min(self, now: float) -> float:
        """Next search-trial deadline (event-driven engine hook).

        An application that spawned recently may only grow again once its
        search interval elapses, so the engine must wake the scheduler at
        that deadline even if no resource event occurs before it.
        """
        deadlines = [t for t in self._gate_deadlines if t > now + 1e-9]
        return min(deadlines, default=math.inf)

    def _schedule_app(self, ctx: SchedulingContext, app: SparkApplication) -> None:
        last = self._last_spawn.get(app.name)
        if last is not None and ctx.now - last < self.search_interval_min:
            self._gate_deadlines.append(last + self.search_interval_min)
            return
        desired = self.allocation_policy.desired_executors(
            max(app.remaining_gb, 1e-3)
        )
        active = len(app.active_executors)
        if active >= desired:
            return
        features = ctx.node_features()
        scores = self.score_batch(ctx, app, features)
        # At most one spawn per application per call, so the snapshot
        # stays valid through the scan.
        for slot in features.ranked(scores).tolist():
            if app.unassigned_gb <= 1e-6:
                return
            if self._try_spawn(ctx, app, int(features.node_ids[slot]),
                               float(features.free_gb[slot]), desired,
                               active):
                return

    def _try_spawn(self, ctx: SchedulingContext, app: SparkApplication,
                   node_id: int, free_gb: float, desired: int,
                   active: int) -> bool:
        """One search trial on one node; True ends the app's scan."""
        share = app.unassigned_gb / max(desired - active, 1)
        fits = self._measure.data_for_budget_gb(app.name, free_gb, max_gb=share)
        # Conservative first allocation, but never smaller than the
        # application's remaining sliver (which would starve its tail).
        data = max(min(fits, share) * self.initial_fraction,
                   min(share, 0.25))
        if data < min(0.25, app.unassigned_gb - 1e-9):
            return False
        budget = self._measure.footprint_gb(app.name, min(fits, share)) * 1.05
        budget = min(budget, free_gb)
        executor = ctx.spawn_executor(app, node_id, budget, data)
        if executor is None:
            return False
        # One search trial per interval: stop after a single spawn.
        self._last_spawn[app.name] = ctx.now
        if app.unassigned_gb > 1e-6:
            self._gate_deadlines.append(ctx.now + self.search_interval_min)
        return True

    def score_batch(self, ctx: SchedulingContext, app: SparkApplication,
                    features: NodeFeatures) -> np.ndarray:
        """Free memory as the score, NaN where a trial cannot run.

        The mask drops down nodes, nodes with less than 1 GB free, and
        nodes whose aggregate CPU would exceed 100 % with this
        application's executor added.
        """
        cpu_load = self._measure.cpu_load(app.name)
        eligible = (features.up
                    & (features.free_gb >= 1.0)
                    & (features.reserved_cpu + cpu_load <= 1.0 + 1e-9))
        return np.where(eligible, features.free_gb, np.nan)
