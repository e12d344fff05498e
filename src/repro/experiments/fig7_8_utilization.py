"""Figures 7 and 8: server utilisation and turnaround for the Table 4 mix.

The paper schedules the fixed 30-application mix of Table 4 (scenario L10)
under Pairwise, Quasar and its own approach, then shows the per-node CPU
utilisation over time (Figure 7) and the resulting STP and wall-clock
turnaround time (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import paper_cluster
from repro.cluster.simulator import ClusterSimulator
from repro.api import SchedulerSuite
from repro.metrics.throughput import StreamingScheduleMetrics
from repro.metrics.utilization import StreamingUtilizationHeatmap
from repro.workloads.mixes import make_table4_jobs

__all__ = ["UtilizationResult", "run", "format_table"]

#: Schemes compared in Figures 7 and 8.
SCHEMES: tuple[str, ...] = ("pairwise", "quasar", "ours")


@dataclass(frozen=True)
class UtilizationResult:
    """Utilisation heat-map data plus the Figure 8 summary for one scheme."""

    scheme: str
    stp: float
    antt_reduction_percent: float
    turnaround_min: float
    mean_utilization_percent: float
    bin_times_min: tuple[float, ...]
    heatmap: np.ndarray  # shape (n_nodes, n_bins), percent


def run(suite: SchedulerSuite | None = None, schemes=SCHEMES,
        n_bins: int = 48, seed: int = 11,
        time_step_min: float = 0.5) -> list[UtilizationResult]:
    """Schedule the Table 4 mix under each scheme and collect utilisation.

    Both the headline metrics and the heat map are accumulated by
    streaming event-bus subscribers while the simulation runs; no
    per-step trace is kept.
    """
    suite = suite or SchedulerSuite()
    jobs = make_table4_jobs()
    results = []
    for scheme in schemes:
        heatmap = StreamingUtilizationHeatmap(n_bins=n_bins)
        simulator = ClusterSimulator(paper_cluster(), suite.factory(scheme)(),
                                     time_step_min=time_step_min, seed=seed)
        metrics = StreamingScheduleMetrics(jobs).attach(simulator.events)
        heatmap.attach(simulator.events)
        sim_result = simulator.run(jobs)
        evaluation = metrics.evaluate(sim_result)
        times, matrix = heatmap.matrix()
        results.append(UtilizationResult(
            scheme=scheme,
            stp=evaluation.stp,
            antt_reduction_percent=evaluation.antt_reduction_percent,
            turnaround_min=evaluation.makespan_min,
            mean_utilization_percent=evaluation.mean_utilization_percent,
            bin_times_min=tuple(float(t) for t in times),
            heatmap=matrix,
        ))
    return results


def format_table(results: list[UtilizationResult]) -> str:
    """Render the Figure 8 bars and a coarse Figure 7 heat map in text."""
    lines = ["Figure 8 — STP and turnaround for the Table 4 mix:"]
    lines.append(f"{'scheme':>10s} {'STP':>8s} {'turnaround (min)':>18s} "
                 f"{'mean util %':>12s}")
    for result in results:
        lines.append(f"{result.scheme:>10s} {result.stp:8.2f} "
                     f"{result.turnaround_min:18.1f} "
                     f"{result.mean_utilization_percent:12.1f}")
    lines.append("")
    lines.append("Figure 7 — cluster-average utilisation over time (percent per time bin):")
    for result in results:
        profile = result.heatmap.mean(axis=0)
        compact = " ".join(f"{v:3.0f}" for v in profile[:24])
        lines.append(f"{result.scheme:>10s} {compact}")
    return "\n".join(lines)
