"""Scheduler interface shared by every co-location policy."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.cluster.simulator import NodeFeatures, SchedulingContext
from repro.spark.application import SparkApplication

__all__ = ["ProfilingCost", "Scheduler"]


@dataclass(frozen=True)
class ProfilingCost:
    """Time spent profiling an application before it can be scheduled.

    The paper's approach extracts runtime features (~100 MB run) and
    calibrates the selected memory function (two small runs); both phases
    happen while the application waits in the queue and their output
    contributes to the final result, but their duration is charged to the
    application (Figures 11 and 12).
    """

    feature_extraction_min: float = 0.0
    calibration_min: float = 0.0

    def __post_init__(self) -> None:
        if self.feature_extraction_min < 0 or self.calibration_min < 0:
            raise ValueError("profiling costs cannot be negative")

    @property
    def total_min(self) -> float:
        """Total profiling delay in minutes."""
        return self.feature_extraction_min + self.calibration_min


class Scheduler(ABC):
    """Base class for all scheduling policies driven by the simulator.

    The simulator calls :meth:`on_submit` once per application when the job
    mix is submitted, and :meth:`schedule` at every time step; the latter
    places executors through the provided
    :class:`~repro.cluster.simulator.SchedulingContext`.
    """

    def on_submit(self, ctx: SchedulingContext, app: SparkApplication) -> float:
        """Hook invoked at submission; returns the scheduling delay in minutes.

        The default implementation records no profiling cost and returns
        zero delay.
        """
        return 0.0

    @abstractmethod
    def schedule(self, ctx: SchedulingContext) -> None:
        """Place executors for waiting applications (called every step)."""

    def score_batch(self, ctx: SchedulingContext, app: SparkApplication,
                    features: NodeFeatures) -> np.ndarray | None:
        """Score every candidate node for ``app`` in one vectorized pass.

        Returns a float array aligned with the ``features`` rows (node
        slots): higher is better, ``NaN`` marks a node this policy would
        never use for ``app`` right now.  Callers visit candidates in
        stable descending-score order (``features.ranked(scores)``):
        ties keep node-id order.

        The default returns ``None``: the scheme does not rank nodes
        through this hook (plugins need not implement it).
        """
        return None

    def next_wake_min(self, now: float) -> float:
        """Earliest future time this scheduler wants to be re-invoked.

        The event-driven engine re-invokes schedulers whenever cluster
        resources change; a scheduler whose decisions are additionally
        gated on simulated time (e.g. the online-search trial interval)
        overrides this to name its next deadline.  ``math.inf`` means
        "only resource events matter".
        """
        return math.inf

    def on_cluster_change(self, ctx: SchedulingContext, event) -> None:
        """Hook invoked when the live cluster topology or health changes.

        The fault controller calls this for every node-level dynamic
        event — ``node_down``, ``node_up``, ``node_joined``, straggler
        onset/recovery — so policies can shed assumptions derived from
        the startup topology snapshot.  The default implementation
        re-derives the Spark dynamic-allocation executor cap from the
        *live* node count, which every built-in scheme stores as
        ``allocation_policy``; plugins registered through
        ``@register_scheme`` inherit the same behaviour and may extend
        it (dropping scan caches, re-ranking nodes, ...).
        """
        policy = getattr(self, "allocation_policy", None)
        if policy is not None and hasattr(policy, "with_cluster_size"):
            self.allocation_policy = policy.with_cluster_size(
                ctx.cluster.up_count())

    @staticmethod
    def charge_profiling(app: SparkApplication, cost: ProfilingCost) -> float:
        """Record a profiling cost on the application and return its delay."""
        app.feature_extraction_min = cost.feature_extraction_min
        app.calibration_min = cost.calibration_min
        return cost.total_min
