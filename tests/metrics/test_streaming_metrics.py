"""Tests for the streaming (event-bus subscriber) metrics layer."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSimulator
from repro.cluster.events import ClusterSample, EventBus
from repro.metrics.throughput import StreamingScheduleMetrics, evaluate_schedule
from repro.metrics.utilization import (
    StreamingUtilization,
    StreamingUtilizationHeatmap,
    downsample_trace,
)
from repro.scheduling import PairwiseScheduler, make_oracle_scheduler
from repro.workloads.mixes import Job, make_scenario_mixes


def run_with_subscribers(jobs, n_nodes=8, scheduler=None, **kwargs):
    simulator = ClusterSimulator(Cluster.homogeneous(n_nodes),
                                 scheduler or make_oracle_scheduler(),
                                 seed=11, **kwargs)
    metrics = StreamingScheduleMetrics(jobs).attach(simulator.events)
    streaming = StreamingUtilization().attach(simulator.events)
    heatmap = StreamingUtilizationHeatmap(
        n_bins=10, initial_bin_min=simulator.time_step_min).attach(
        simulator.events)
    result = simulator.run(jobs)
    return result, metrics, streaming, heatmap


class TestStreamingScheduleMetrics:
    def test_bit_for_bit_identical_to_post_hoc_evaluation(self):
        jobs = make_scenario_mixes("L3", n_mixes=1, seed=11)[0]
        result, metrics, _, _ = run_with_subscribers(jobs, n_nodes=40)
        streamed = metrics.evaluate(result)
        post_hoc = evaluate_schedule(result, jobs)
        # Exact equality, not approx: same floats reduced in the same order.
        assert streamed == post_hoc

    def test_duplicate_benchmarks_resolve_instance_names(self):
        jobs = [Job("HB.Sort", 10.0), Job("HB.Sort", 20.0)]
        result, metrics, _, _ = run_with_subscribers(jobs)
        assert metrics.finished_count == 2
        assert metrics.evaluate(result) == evaluate_schedule(result, jobs)

    def test_unfinished_jobs_are_reported(self):
        metrics = StreamingScheduleMetrics([Job("HB.Sort", 10.0)])
        with pytest.raises(RuntimeError, match="not finished"):
            metrics.stp()

    def test_needs_at_least_one_job(self):
        with pytest.raises(ValueError):
            StreamingScheduleMetrics([])


class TestStreamingUtilization:
    def test_matches_trace_mean_without_keeping_traces(self):
        jobs = [Job("HB.Sort", 30.0), Job("HB.Scan", 15.0)]
        result, _, streaming, _ = run_with_subscribers(jobs)
        assert streaming.mean_percent() == pytest.approx(
            result.mean_node_utilization(), rel=1e-9)

    def test_available_when_trace_recording_disabled(self):
        jobs = [Job("HB.Sort", 30.0)]
        result, _, streaming, _ = run_with_subscribers(
            jobs, record_utilization=False)
        assert result.utilization_trace == {}
        assert result.mean_node_utilization() == streaming.mean_percent()
        assert result.streaming_utilization_percent > 0

    def test_empty_stream_means_zero(self):
        assert StreamingUtilization().mean_percent() == 0.0

    def test_mean_adds_node_means_left_to_right(self, python312_sum):
        # Ten nodes at 0.1 %: a compensated sum() of the node means is
        # 1.0, the left-to-right total 0.9999999999999999.
        streaming = StreamingUtilization()
        streaming._on_sample(ClusterSample(
            time=0.0, times=(0.0,),
            samples=tuple((i, 0.0, 0.0, 0.1) for i in range(10))))
        total = 0.0
        for _ in range(10):
            total += 0.1
        assert total != sum([0.1] * 10)
        assert streaming.mean_percent() == total / 10

    def test_mid_run_node_join_matches_zero_backfilled_traces(self):
        from repro.cluster.faults import FaultEvent, FaultSpec

        spec = FaultSpec(timeline=(
            FaultEvent(time_min=5.0, action="node_join"),))
        means = {}
        for record in (True, False):
            simulator = ClusterSimulator(Cluster.homogeneous(2),
                                         make_oracle_scheduler(), seed=1,
                                         faults=spec,
                                         record_utilization=record)
            result = simulator.run([Job("HB.Sort", 100.0)])
            means[record] = result.mean_node_utilization()
        # Streaming fallback treats the joiner as idle pre-join, exactly
        # like the zero-backfilled trace reduction.
        assert means[False] == pytest.approx(means[True], rel=1e-9)


class TestStreamingHeatmap:
    def test_close_to_post_hoc_matrix(self):
        # Long enough that every one of the 10 bins holds samples under
        # both the streaming (width-quantised) and post-hoc binning.
        jobs = [Job("HB.Sort", 200.0), Job("HB.Scan", 100.0)]
        result, _, _, heatmap = run_with_subscribers(jobs, n_nodes=4)
        times, matrix = heatmap.matrix()
        # Post-hoc reference built straight from the recorded traces (the
        # retired trace-matrix helper, inlined).
        reference = np.vstack([
            downsample_trace(result.utilization_trace[node_id], 10)
            for node_id in sorted(result.utilization_trace)
        ])
        assert matrix.shape == reference.shape
        # Same nodes, same time span, same overall energy; bin boundaries
        # differ slightly (streaming bins are width-quantised).
        assert matrix.mean() == pytest.approx(reference.mean(), rel=0.2)

    def test_memory_stays_bounded_by_merging(self):
        heatmap = StreamingUtilizationHeatmap(n_bins=4, initial_bin_min=1.0)
        bus = EventBus()
        heatmap.attach(bus)
        # Stream far more sample epochs than 2 * n_bins.
        for step in range(1000):
            bus.publish(ClusterSample(time=float(step), times=(float(step),),
                                      samples=((0, 1.0, 0.5, 50.0),)))
        times, matrix = heatmap.matrix()
        assert matrix.shape == (1, 4)
        assert heatmap._sums[0].size == 8  # capacity never grew
        assert np.allclose(matrix, 50.0)
        assert times[-1] <= 1000.0 * 2

    def test_empty_heatmap_renders_empty(self):
        times, matrix = StreamingUtilizationHeatmap(n_bins=5).matrix()
        assert matrix.shape == (0, 5)
        assert np.all(times == 0.0)


class TestSessionUsesStreaming:
    def test_cells_unchanged_by_streaming_evaluation(self):
        """The API cells keep their historical values (shim parity covers
        the aggregates; this pins one cell's metrics directly)."""
        from repro.api import ExperimentPlan, Session

        plan = ExperimentPlan(schemes=("pairwise",), scenarios=("L1",),
                              n_mixes=1)
        with Session() as session:
            [cell] = list(session.stream(plan))
        jobs = plan.scenarios[0].make_mixes(n_mixes=1, seed=plan.seed)[0]
        simulator = ClusterSimulator(Cluster.homogeneous(40),
                                     PairwiseScheduler(), seed=plan.seed)
        reference = evaluate_schedule(simulator.run(jobs), jobs)
        assert cell.stp == reference.stp
        assert cell.antt == reference.antt
        assert cell.faults is None
