"""Figures 11 and 12: profiling overhead.

Figure 11 shows, per runtime scenario, the average time spent on feature
extraction and model calibration next to the total execution time;
Figure 12 breaks the same quantities down per training benchmark using a
~280 GB input.  The paper reports feature extraction at ~5 % and
calibration at ~8 % of total execution time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import paper_cluster
from repro.cluster.simulator import ClusterSimulator
from repro.api import SchedulerSuite
from repro.profiling.profiler import Profiler
from repro.workloads.mixes import make_scenario_mixes
from repro.workloads.suites import TRAINING_BENCHMARKS

__all__ = ["ScenarioOverhead", "BenchmarkOverhead", "run_per_scenario",
           "run_per_benchmark", "format_table"]


@dataclass(frozen=True)
class ScenarioOverhead:
    """Average profiling overhead vs total execution time for one scenario."""

    scenario: str
    feature_extraction_min: float
    calibration_min: float
    total_execution_min: float

    @property
    def overhead_fraction(self) -> float:
        """Profiling time as a fraction of total execution time."""
        return ((self.feature_extraction_min + self.calibration_min)
                / self.total_execution_min)


@dataclass(frozen=True)
class BenchmarkOverhead:
    """Profiling overhead vs isolated runtime for one benchmark (~280 GB)."""

    benchmark: str
    feature_extraction_min: float
    calibration_min: float
    total_execution_min: float

    @property
    def overhead_fraction(self) -> float:
        """Profiling time as a fraction of the total runtime."""
        return ((self.feature_extraction_min + self.calibration_min)
                / self.total_execution_min)


def run_per_scenario(scenarios=("L1", "L3", "L5", "L8", "L10"),
                     n_mixes: int = 2, seed: int = 11,
                     suite: SchedulerSuite | None = None
                     ) -> list[ScenarioOverhead]:
    """Figure 11: per-scenario profiling overhead under our scheduler."""
    suite = suite or SchedulerSuite()
    results = []
    for scenario in scenarios:
        mixes = make_scenario_mixes(scenario, n_mixes=n_mixes, seed=seed)
        feature, calibration, execution = [], [], []
        for mix in mixes:
            simulator = ClusterSimulator(paper_cluster(),
                                         suite.factory("ours")(), seed=seed)
            sim_result = simulator.run(mix)
            for app in sim_result.apps.values():
                feature.append(app.feature_extraction_min)
                calibration.append(app.calibration_min)
                execution.append(app.turnaround_min())
        results.append(ScenarioOverhead(
            scenario=scenario,
            feature_extraction_min=float(np.mean(feature)),
            calibration_min=float(np.mean(calibration)),
            total_execution_min=float(np.mean(execution)),
        ))
    return results


def run_per_benchmark(input_gb: float = 280.0,
                      seed: int = 0) -> list[BenchmarkOverhead]:
    """Figure 12: per-benchmark profiling overhead for ~280 GB inputs."""
    profiler = Profiler(seed=seed)
    results = []
    for spec in TRAINING_BENCHMARKS:
        report = profiler.profile(spec.name, spec, input_gb)
        executors = max(1, min(40, int(round(input_gb / 25.0))))
        total = spec.isolated_runtime_min(input_gb, n_executors=executors)
        results.append(BenchmarkOverhead(
            benchmark=spec.name,
            feature_extraction_min=report.feature_extraction_min,
            calibration_min=report.calibration_min,
            total_execution_min=total + report.total_profiling_min,
        ))
    return results


def format_table(per_scenario: list[ScenarioOverhead],
                 per_benchmark: list[BenchmarkOverhead]) -> str:
    """Render both overhead breakdowns."""
    lines = ["Figure 11 — profiling overhead per scenario (minutes):"]
    lines.append(f"{'scenario':>9s} {'feature':>9s} {'calib.':>9s} "
                 f"{'total exec':>11s} {'overhead %':>11s}")
    for row in per_scenario:
        lines.append(f"{row.scenario:>9s} {row.feature_extraction_min:9.2f} "
                     f"{row.calibration_min:9.2f} {row.total_execution_min:11.1f} "
                     f"{row.overhead_fraction * 100:11.1f}")
    lines.append("")
    lines.append("Figure 12 — profiling overhead per benchmark (~280 GB input):")
    lines.append(f"{'benchmark':>18s} {'feature':>9s} {'calib.':>9s} "
                 f"{'total':>9s} {'overhead %':>11s}")
    for row in per_benchmark:
        lines.append(f"{row.benchmark:>18s} {row.feature_extraction_min:9.2f} "
                     f"{row.calibration_min:9.2f} {row.total_execution_min:9.1f} "
                     f"{row.overhead_fraction * 100:11.1f}")
    return "\n".join(lines)
