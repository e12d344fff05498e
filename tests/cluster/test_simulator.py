"""Tests for the time-stepped co-location simulator.

These tests drive the simulator with small hand-written schedulers so its
contention, paging, OOM and bookkeeping behaviour can be checked in
isolation from the real scheduling policies.
"""

import pytest

from repro.cluster import Cluster, ClusterSimulator, EventKind, InterferenceModel
from repro.workloads import Job, benchmark_by_name


class GreedyExactScheduler:
    """Places one executor per waiting app per step, sized with ground truth."""

    def __init__(self, data_per_executor_gb=25.0):
        self.data_per_executor_gb = data_per_executor_gb

    def schedule(self, ctx):
        for app in ctx.waiting_apps():
            spec = ctx.spec_of(app)
            for node in ctx.cluster.nodes_by_free_memory():
                if app.unassigned_gb <= 1e-6:
                    break
                data = min(self.data_per_executor_gb, app.unassigned_gb)
                budget = spec.true_footprint_gb(data) * 1.05
                if not node.can_host(budget, spec.cpu_load):
                    continue
                ctx.spawn_executor(app, node.node_id, budget, data)


class UnderProvisioningScheduler:
    """Deliberately reserves far less memory than executors really use.

    Admission control is bypassed so the scheduler behaves like one whose
    memory predictor badly under-estimates footprints — the failure mode
    that paging and out-of-memory handling exist for.
    """

    def __init__(self, data_per_executor_gb=30.0, fraction=0.2):
        self.data_per_executor_gb = data_per_executor_gb
        self.fraction = fraction

    def schedule(self, ctx):
        for app in ctx.waiting_apps():
            spec = ctx.spec_of(app)
            for node in ctx.cluster.nodes_by_free_memory():
                if app.unassigned_gb <= 1e-6:
                    break
                data = min(self.data_per_executor_gb, app.unassigned_gb)
                budget = max(spec.true_footprint_gb(data) * self.fraction, 0.5)
                if node.free_reserved_memory_gb < budget:
                    continue
                ctx.spawn_executor(app, node.node_id, budget, data,
                                   enforce_admission=False)


class IdleScheduler:
    """Never places anything (used for timeout behaviour)."""

    def schedule(self, ctx):
        return None


def run_sim(scheduler, jobs, n_nodes=4, **kwargs):
    cluster = Cluster.homogeneous(n_nodes)
    simulator = ClusterSimulator(cluster, scheduler, **kwargs)
    return simulator.run(jobs)


class TestBasicExecution:
    def test_single_small_job_completes(self):
        result = run_sim(GreedyExactScheduler(), [Job("HB.Sort", 10.0)])
        assert result.all_finished()
        app = result.apps["HB.Sort"]
        assert app.turnaround_min() > 0
        assert app.processed_gb == pytest.approx(10.0, abs=0.2)

    def test_makespan_close_to_analytical_time(self):
        spec = benchmark_by_name("HB.Sort")
        result = run_sim(GreedyExactScheduler(data_per_executor_gb=10.0),
                         [Job("HB.Sort", 40.0)], n_nodes=4, time_step_min=0.25)
        # Four executors, 10 GB each, no contention: roughly input/(4*rate).
        expected = 40.0 / (4 * spec.rate_gb_per_min) + spec.startup_min
        assert result.makespan_min == pytest.approx(expected, rel=0.3)

    def test_two_small_jobs_co_run_without_interference_events(self):
        jobs = [Job("HB.Scan", 5.0), Job("BDB.Grep", 5.0)]
        result = run_sim(GreedyExactScheduler(), jobs)
        assert result.all_finished()
        assert result.events.count(EventKind.EXECUTOR_OOM) == 0
        assert result.events.count(EventKind.NODE_PAGING) == 0

    def test_every_app_gets_submission_and_finish_events(self):
        jobs = [Job("HB.Scan", 5.0), Job("BDB.Grep", 5.0)]
        result = run_sim(GreedyExactScheduler(), jobs)
        assert result.events.count(EventKind.APP_SUBMITTED) == 2
        assert result.events.count(EventKind.APP_FINISHED) == 2

    def test_duplicate_benchmarks_get_distinct_instance_names(self):
        jobs = [Job("HB.Sort", 5.0), Job("HB.Sort", 5.0)]
        result = run_sim(GreedyExactScheduler(), jobs)
        assert set(result.apps) == {"HB.Sort", "HB.Sort#1"}

    def test_empty_job_list_is_rejected(self):
        with pytest.raises(ValueError):
            run_sim(GreedyExactScheduler(), [])

    def test_idle_scheduler_hits_time_horizon(self):
        result = run_sim(IdleScheduler(), [Job("HB.Sort", 5.0)],
                         max_time_min=10.0)
        assert not result.all_finished()

    @pytest.mark.parametrize("field, value", [
        ("time_step_min", float("nan")), ("time_step_min", float("inf")),
        ("time_step_min", True),
        ("max_time_min", float("nan")), ("max_time_min", float("inf")),
        ("max_time_min", True),
    ])
    def test_bad_time_inputs_are_rejected_naming_the_field(self, field,
                                                           value):
        with pytest.raises(ValueError, match=field):
            ClusterSimulator(Cluster.homogeneous(1), IdleScheduler(),
                             **{field: value})


class TestInterferenceAndFailures:
    def test_under_provisioning_causes_paging_or_oom(self):
        # Several memory-hungry log-family apps crammed onto 1 node with
        # tiny reservations must blow past the node's physical memory.
        jobs = [Job("BDB.PageRank", 60.0), Job("HB.PageRank", 60.0),
                Job("BDB.Kmeans", 60.0), Job("HB.Kmeans", 60.0)]
        result = run_sim(UnderProvisioningScheduler(), jobs, n_nodes=1,
                         max_time_min=2000.0)
        paging = result.events.count(EventKind.NODE_PAGING)
        ooms = result.events.count(EventKind.EXECUTOR_OOM)
        assert paging + ooms > 0

    def test_oom_returns_data_and_job_still_completes(self):
        jobs = [Job("BDB.PageRank", 80.0), Job("HB.PageRank", 80.0),
                Job("BDB.Kmeans", 80.0)]
        result = run_sim(UnderProvisioningScheduler(fraction=0.1), jobs,
                         n_nodes=1, max_time_min=5000.0)
        assert result.all_finished()
        for app in result.apps.values():
            assert app.processed_gb == pytest.approx(80.0, abs=1.0)

    def test_paging_slows_execution_down(self):
        jobs = [Job("BDB.PageRank", 60.0), Job("HB.Kmeans", 60.0),
                Job("BDB.Kmeans", 60.0)]
        healthy = run_sim(GreedyExactScheduler(), jobs, n_nodes=3,
                          max_time_min=5000.0)
        thrashing = run_sim(UnderProvisioningScheduler(fraction=0.15), jobs,
                            n_nodes=1, max_time_min=5000.0)
        assert thrashing.makespan_min > healthy.makespan_min

    def test_cpu_contention_scales_progress(self):
        # Three CPU-heavy apps (0.52 + 0.48 + 0.46 > 1.0) forced onto a
        # single node run slower than the same apps spread over three
        # nodes.  The under-provisioning scheduler is used with a >1
        # fraction so reservations are honest but admission is bypassed,
        # which is the only way to force the CPU overload.
        jobs = [Job("SP.B.MatrixMult", 20.0), Job("SB.MatrixFact", 20.0),
                Job("SB.SVD++", 20.0)]
        contended = run_sim(UnderProvisioningScheduler(fraction=1.05,
                                                       data_per_executor_gb=20.0),
                            jobs, n_nodes=1, max_time_min=5000.0)
        spread = run_sim(UnderProvisioningScheduler(fraction=1.05,
                                                    data_per_executor_gb=20.0),
                         jobs, n_nodes=3, max_time_min=5000.0)
        assert contended.makespan_min > spread.makespan_min

    def test_bandwidth_interference_factor_shape(self):
        model = InterferenceModel(bandwidth_alpha=0.05, bandwidth_floor=0.8)
        assert model.bandwidth_factor(1) == 1.0
        assert model.bandwidth_factor(2) == pytest.approx(0.95)
        assert model.bandwidth_factor(50) == pytest.approx(0.8)


class TestMonitoringAndUtilization:
    def test_usage_is_sampled_for_every_node(self, sample_stream):
        simulator = ClusterSimulator(Cluster.homogeneous(3),
                                     GreedyExactScheduler())
        samples = sample_stream().attach(simulator.events)
        simulator.run([Job("HB.Sort", 10.0)])
        assert samples.times
        assert all(ids == (0, 1, 2) for ids in samples.node_ids)

    def test_mean_utilization_is_between_0_and_100(self):
        result = run_sim(GreedyExactScheduler(), [Job("HB.Sort", 10.0)])
        assert 0.0 <= result.mean_node_utilization() <= 100.0

    def test_monitor_reports_memory_of_running_executors(self):
        cluster = Cluster.homogeneous(1)
        simulator = ClusterSimulator(cluster, GreedyExactScheduler())
        simulator.run([Job("BDB.PageRank", 25.0)])
        assert simulator.monitor.has_samples(0)

    def test_profiling_delay_defers_scheduling(self):
        class DelayingScheduler(GreedyExactScheduler):
            def on_submit(self, ctx, app):
                app.feature_extraction_min = 1.0
                app.calibration_min = 2.0
                return 3.0

        result = run_sim(DelayingScheduler(), [Job("HB.Sort", 10.0)])
        app = result.apps["HB.Sort"]
        assert app.start_time is not None
        assert app.start_time >= 3.0
        assert result.events.count(EventKind.PROFILING_FINISHED) == 1
