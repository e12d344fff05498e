"""The isolated-execution baseline.

The paper's baseline schedules applications one by one; each application
exclusively uses all the memory of the nodes allocated to it by Spark's
dynamic allocation (Section 6, introduction).  No co-location ever happens,
so system throughput is low and later applications wait for every earlier
one to finish.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.simulator import NodeFeatures, SchedulingContext
from repro.scheduling.base import Scheduler
from repro.spark.application import SparkApplication
from repro.spark.driver import DynamicAllocationPolicy

__all__ = ["IsolatedScheduler"]


class IsolatedScheduler(Scheduler):
    """Run applications strictly one at a time with exclusive node use."""

    def __init__(self, allocation_policy: DynamicAllocationPolicy | None = None) -> None:
        self.allocation_policy = allocation_policy or DynamicAllocationPolicy()

    def schedule(self, ctx: SchedulingContext) -> None:
        waiting = ctx.waiting_apps()
        if not waiting:
            return
        app = waiting[0]
        # Strict one-at-a-time execution: the head of the queue may only
        # start once no other application has executors anywhere.
        active_apps = ctx.cluster.active_applications()
        if active_apps and active_apps != {app.name}:
            return
        desired = self.allocation_policy.desired_executors(app.input_gb)
        active = len(app.active_executors)
        features = ctx.node_features()
        scores = self.score_batch(ctx, app, features)
        # Spawns only touch the spawned (previously idle) node, never one
        # the scan will revisit, so the snapshot's candidate set stays
        # valid through the whole pass.
        for slot in features.ranked(scores).tolist():
            if active >= desired or app.unassigned_gb <= 1e-6:
                break
            share = app.unassigned_gb / max(desired - active, 1)
            # The application owns the node outright: reserve all its RAM.
            executor = ctx.spawn_executor(
                app, int(features.node_ids[slot]),
                float(features.ram_gb[slot]), share)
            if executor is not None:
                active += 1

    def score_batch(self, ctx: SchedulingContext, app: SparkApplication,
                    features: NodeFeatures) -> np.ndarray:
        """Rank idle live nodes in id order.

        Isolation has no memory-based preference — the head application
        takes whole idle machines front to back — so the score is the
        negated node slot and the NaN mask drops down or busy nodes (after
        a failure the policy must not place on a machine that is gone).
        """
        eligible = features.up & (features.n_active == 0)
        slots = np.arange(features.up.shape[0], dtype=np.float64)
        return np.where(eligible, -slots, np.nan)
