"""The Pairwise co-location baseline (Section 5.4).

Pairwise looks for servers with spare memory and co-locates *one*
additional task on them, setting the newcomer's maximum heap to the size of
the free memory and relying on Spark's default scheduler to decide how many
RDD data items the co-running task receives.  Because the co-located task
grabs all remaining memory, a third application can never join, which is
why Pairwise falls behind for large task groups (Section 6.2).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.simulator import NodeFeatures, SchedulingContext
from repro.scheduling.base import Scheduler
from repro.spark.application import SparkApplication
from repro.spark.driver import DynamicAllocationPolicy

__all__ = ["PairwiseScheduler"]


class PairwiseScheduler(Scheduler):
    """At most two applications per node; the second takes all free memory.

    Parameters
    ----------
    default_heap_fraction:
        Fraction of node RAM reserved by the *first* executor on a node —
        the static default heap configuration an administrator would pick
        without a memory model.
    allocation_policy:
        Spark dynamic-allocation policy used for executor counts and data
        splits.
    """

    def __init__(self, default_heap_fraction: float = 0.5,
                 allocation_policy: DynamicAllocationPolicy | None = None) -> None:
        if not 0 < default_heap_fraction <= 1:
            raise ValueError("default_heap_fraction must be in (0, 1]")
        self.default_heap_fraction = default_heap_fraction
        self.allocation_policy = allocation_policy or DynamicAllocationPolicy()

    def schedule(self, ctx: SchedulingContext) -> None:
        features = ctx.node_features()
        if not self._usable_mask(features).any():
            # No node can take an executor for *any* application (two
            # co-runners everywhere, or unusable budgets): every offer
            # would be a side-effect-free no-op, so skip walking the
            # waiting queue entirely.
            return
        for app in ctx.waiting_apps():
            desired = self.allocation_policy.desired_executors(app.input_gb)
            active = len(app.active_executors)
            if active >= desired:
                continue
            fresh = ctx.node_features()
            if fresh is not features:
                # An earlier app spawned: re-rank on the new snapshot.
                features = fresh
                if not self._usable_mask(features).any():
                    return
            scores = self.score_batch(ctx, app, features)
            for slot in features.ranked(scores).tolist():
                if active >= desired or app.unassigned_gb <= 1e-6:
                    break
                if features.n_apps[slot] > 0:
                    # The co-locating task gets every remaining gigabyte.
                    budget = float(features.free_gb[slot])
                else:
                    budget = float(features.ram_gb[slot]) * self.default_heap_fraction
                data = min(self.allocation_policy.default_split_gb(app.input_gb),
                           app.unassigned_gb)
                # Pairwise has no notion of CPU demand, so no admission test.
                executor = ctx.spawn_executor(app,
                                              int(features.node_ids[slot]),
                                              budget, data,
                                              enforce_admission=False)
                if executor is not None:
                    active += 1

    def score_batch(self, ctx: SchedulingContext, app: SparkApplication,
                    features: NodeFeatures) -> np.ndarray:
        """Free memory as the score, NaN where Pairwise may not place.

        A node is eligible when it is up, hosts fewer than two
        applications, does not already run ``app``, and the
        (occupancy-dependent) heap budget is at least 1 GB; the
        free-memory score with stable ties visits nodes in
        ``nodes_by_free_memory`` order.
        """
        eligible = self._usable_mask(features) & ~features.hosts_app(app)
        return np.where(eligible, features.free_gb, np.nan)

    def _usable_mask(self, features: NodeFeatures) -> np.ndarray:
        """App-independent part of the eligibility test."""
        budget = np.where(features.n_apps > 0, features.free_gb,
                          features.ram_gb * self.default_heap_fraction)
        return features.up & (features.n_apps < 2) & (budget >= 1.0)
