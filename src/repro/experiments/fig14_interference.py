"""Figure 14: slowdown of Spark benchmarks when co-located by our scheme.

The paper launches each of the 16 HiBench/BigDataBench benchmarks on a
single host, then lets its scheme co-locate one additional application in
the spare memory, and measures the slowdown of the target relative to
isolated execution.  The reported slowdowns stay below ~25 % with a median
well under 10 %.

Each (target, co-runner) pair is simulated twice on a one-node cluster:
once with the target alone and once with both applications scheduled by
the memory-aware dispatcher; the slowdown is the relative increase of the
target's execution time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.simulator import ClusterSimulator
from repro.api import SchedulerSuite
from repro.metrics.slowdown import slowdown_percent
from repro.workloads.mixes import Job
from repro.workloads.suites import ALL_BENCHMARKS, TRAINING_BENCHMARKS

__all__ = ["InterferenceDistribution", "run", "format_table"]


@dataclass(frozen=True)
class InterferenceDistribution:
    """Slowdown distribution of one target benchmark across co-runners."""

    target: str
    slowdowns_percent: tuple[float, ...]

    @property
    def median(self) -> float:
        """Median slowdown in percent."""
        return float(np.median(self.slowdowns_percent))

    @property
    def maximum(self) -> float:
        """Worst-case slowdown in percent."""
        return float(np.max(self.slowdowns_percent))


def _single_node_runtime(suite: SchedulerSuite, jobs: list[Job], target: str,
                         seed: int) -> float:
    cluster = Cluster.homogeneous(1)
    simulator = ClusterSimulator(cluster, suite.factory("ours")(),
                                 time_step_min=0.25, seed=seed)
    result = simulator.run(jobs)
    return result.apps[target].execution_min()


def run(targets=None, co_runners_per_target: int = 8, input_gb: float = 30.0,
        seed: int = 7, suite: SchedulerSuite | None = None
        ) -> list[InterferenceDistribution]:
    """Measure co-location slowdowns for each target benchmark.

    ``co_runners_per_target`` bounds how many distinct co-runners each
    target is paired with (the paper pairs each target with all 43 other
    benchmarks; sampling keeps the default run laptop-sized).
    """
    suite = suite or SchedulerSuite()
    rng = np.random.default_rng(seed)
    targets = list(targets or [spec.name for spec in TRAINING_BENCHMARKS])
    all_names = [spec.name for spec in ALL_BENCHMARKS]
    distributions = []
    for target in targets:
        others = [name for name in all_names if name != target]
        chosen = rng.choice(others, size=min(co_runners_per_target, len(others)),
                            replace=False)
        isolated = _single_node_runtime(
            suite, [Job(target, input_gb)], target, seed)
        slowdowns = []
        for co_runner in chosen:
            colocated = _single_node_runtime(
                suite, [Job(target, input_gb), Job(str(co_runner), input_gb)],
                target, seed)
            slowdowns.append(max(slowdown_percent(isolated, colocated), 0.0))
        distributions.append(InterferenceDistribution(
            target=target,
            slowdowns_percent=tuple(float(s) for s in slowdowns),
        ))
    return distributions


def format_table(distributions: list[InterferenceDistribution]) -> str:
    """Render per-target slowdown summaries (median / max), like Figure 14."""
    lines = ["Figure 14 — co-location slowdown of the target benchmark:"]
    lines.append(f"{'target':>18s} {'median %':>9s} {'max %':>7s}")
    for dist in distributions:
        lines.append(f"{dist.target:>18s} {dist.median:9.1f} {dist.maximum:7.1f}")
    overall = np.concatenate([d.slowdowns_percent for d in distributions])
    lines.append(f"overall mean slowdown: {overall.mean():.1f}%  "
                 f"(95th percentile {np.percentile(overall, 95):.1f}%)")
    return "\n".join(lines)
