"""Tests for the streaming (event-bus subscriber) metrics layer."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSimulator
from repro.cluster.events import ClusterSample, EventBus, SampleBatch
from repro.experiments import fig7_8_utilization
from repro.metrics.throughput import StreamingScheduleMetrics, evaluate_schedule
from repro.metrics.utilization import (
    StreamingUtilization,
    StreamingUtilizationHeatmap,
)
from repro.scheduling import PairwiseScheduler, make_oracle_scheduler
from repro.workloads.mixes import Job, make_scenario_mixes


def run_with_subscribers(jobs, n_nodes=8, scheduler=None, samples=None,
                         **kwargs):
    simulator = ClusterSimulator(Cluster.homogeneous(n_nodes),
                                 scheduler or make_oracle_scheduler(),
                                 seed=11, **kwargs)
    metrics = StreamingScheduleMetrics(jobs).attach(simulator.events)
    streaming = StreamingUtilization().attach(simulator.events)
    heatmap = StreamingUtilizationHeatmap(
        n_bins=10, initial_bin_min=simulator.time_step_min).attach(
        simulator.events)
    if samples is not None:
        samples.attach(simulator.events)
    result = simulator.run(jobs)
    return result, metrics, streaming, heatmap


def one_step_sample(time, utils):
    """A one-time ``ClusterSample``: node ``i`` at ``utils[i]`` percent."""
    n = len(utils)
    return ClusterSample(time=time, times=(time,), samples=SampleBatch(
        list(range(n)), np.zeros(n), np.zeros(n), np.asarray(utils, float)))


def zero_backfilled_mean(samples):
    """Mean over nodes of each node's mean utilisation over the whole
    recorded timeline, a node counting as idle before its first sample."""
    _, matrix = samples.utilization()
    return float(np.mean(matrix.mean(axis=1)))


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
    def test_matches_trace_mean_without_keeping_traces(self,
                                                      sample_stream):
        jobs = [Job("HB.Sort", 30.0), Job("HB.Scan", 15.0)]
        samples = sample_stream()
        result, _, streaming, _ = run_with_subscribers(jobs, samples=samples)
        assert result.mean_node_utilization() == streaming.mean_percent()
        assert result.mean_node_utilization() > 0
        assert streaming.mean_percent() == pytest.approx(
            zero_backfilled_mean(samples), rel=1e-12)

    def test_empty_stream_means_zero(self):
        assert StreamingUtilization().mean_percent() == 0.0

    def test_mean_adds_node_means_left_to_right(self, python312_sum):
        # Ten nodes at 0.1 %: a compensated sum() of the node means is
        # 1.0, the left-to-right total 0.9999999999999999.
        streaming = StreamingUtilization()
        streaming._on_sample(one_step_sample(0.0, [0.1] * 10))
        total = 0.0
        for _ in range(10):
            total += 0.1
        assert total != sum([0.1] * 10)
        assert streaming.mean_percent() == total / 10

    def test_mid_run_node_join_matches_zero_backfilled_traces(
            self, sample_stream):
        from repro.cluster.faults import FaultEvent, FaultSpec

        spec = FaultSpec(timeline=(
            FaultEvent(time_min=5.0, action="node_join"),))
        simulator = ClusterSimulator(Cluster.homogeneous(2),
                                     make_oracle_scheduler(), seed=1,
                                     faults=spec)
        samples = sample_stream().attach(simulator.events)
        result = simulator.run([Job("HB.Sort", 100.0)])
        assert samples.utilization()[0] == [0, 1, 2]
        # The mean treats the joiner as idle before its join.
        assert result.mean_node_utilization() == pytest.approx(
            zero_backfilled_mean(samples), rel=1e-12)


class TestStreamingHeatmap:
    def test_close_to_post_hoc_matrix(self, sample_stream):
        # Long enough that every one of the 10 bins holds samples under
        # both the streaming (width-quantised) and post-hoc binning.
        jobs = [Job("HB.Sort", 200.0), Job("HB.Scan", 100.0)]
        samples = sample_stream()
        _, _, _, heatmap = run_with_subscribers(jobs, n_nodes=4,
                                                samples=samples)
        times, matrix = heatmap.matrix()
        # Post-hoc reference from the same sample stream: each node's
        # samples averaged in 10 equal groups.
        _, full = samples.utilization()
        reference = np.stack([chunk.mean(axis=1)
                              for chunk in np.array_split(full, 10, axis=1)],
                             axis=1)
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
            bus.publish(one_step_sample(float(step), [50.0]))
        times, matrix = heatmap.matrix()
        assert matrix.shape == (1, 4)
        assert heatmap._sums[0].size == 8  # capacity never grew
        assert np.allclose(matrix, 50.0)
        assert times[-1] <= 1000.0 * 2

    def test_empty_heatmap_renders_empty(self):
        times, matrix = StreamingUtilizationHeatmap(n_bins=5).matrix()
        assert matrix.shape == (0, 5)
        assert np.all(times == 0.0)

    @pytest.mark.parametrize("field,value", [
        ("n_bins", 2.5), ("n_bins", True),
        ("initial_bin_min", float("nan")), ("initial_bin_min", float("inf")),
    ])
    def test_bad_shape_is_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            StreamingUtilizationHeatmap(**{field: value})

    def test_fig7_run_rejects_bad_bin_count_before_simulating(self):
        with pytest.raises(ValueError, match="n_bins"):
            fig7_8_utilization.run(n_bins=2.5)


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
