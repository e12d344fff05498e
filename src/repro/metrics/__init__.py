"""Evaluation metrics (Section 5.3).

The paper quantifies multi-programmed performance with two standard
metrics from Eyerman and Eeckhout:

* **System throughput (STP)** — higher is better — the aggregated progress
  of all jobs under co-location relative to isolated execution (Eq. 1);
* **Average normalized turnaround time (ANTT)** — lower is better — the
  average user-perceived slowdown relative to isolated execution (Eq. 2).

Results are normalised against the baseline that runs applications one by
one with exclusive memory use; the paper reports normalized STP and the
percentage *reduction* in ANTT.  Additional helpers compute the server
utilisation heat-map data of Figure 7 and the co-location slowdown
distributions of Figures 14 and 15.
"""

from repro.metrics.throughput import (
    ScheduleEvaluation,
    StreamingScheduleMetrics,
    antt,
    antt_reduction_percent,
    baseline_turnarounds_min,
    evaluate_schedule,
    isolated_reference_min,
    system_throughput,
)
from repro.metrics.utilization import (
    StreamingUtilization,
    StreamingUtilizationHeatmap,
)
from repro.metrics.slowdown import parsec_colocation_slowdown_percent, slowdown_percent

__all__ = [
    "ScheduleEvaluation",
    "StreamingScheduleMetrics",
    "antt",
    "antt_reduction_percent",
    "baseline_turnarounds_min",
    "evaluate_schedule",
    "isolated_reference_min",
    "system_throughput",
    "StreamingUtilization",
    "StreamingUtilizationHeatmap",
    "slowdown_percent",
    "parsec_colocation_slowdown_percent",
]
