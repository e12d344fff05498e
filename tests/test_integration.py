"""End-to-end integration tests across the whole stack.

These exercise the complete path the paper describes: offline training →
runtime profiling → expert selection and calibration → memory-aware
co-location on the simulated cluster → evaluation metrics, including the
failure-recovery path (out-of-memory executors re-run in isolation).
"""

import pytest

from repro.cluster.cluster import Cluster, paper_cluster
from repro.cluster.events import EventKind
from repro.cluster.simulator import ClusterSimulator
from repro.core.moe import MixtureOfExperts
from repro.core.training import collect_training_data
from repro.metrics.throughput import evaluate_schedule
from repro.scheduling import (
    IsolatedScheduler,
    MemoryAwareCoLocationScheduler,
    make_moe_scheduler,
)
from repro.scheduling.estimators import UnifiedFamilyEstimator
from repro.workloads.mixes import Job, make_scenario_mixes


@pytest.fixture(scope="module")
def moe():
    return MixtureOfExperts.from_dataset(collect_training_data(seed=0))


class TestEndToEndPipeline:
    def test_full_l3_scenario_on_the_paper_cluster(self, moe):
        jobs = make_scenario_mixes("L3", n_mixes=1, seed=5)[0]
        simulator = ClusterSimulator(paper_cluster(), make_moe_scheduler(moe=moe),
                                     time_step_min=0.5)
        result = simulator.run(jobs)
        evaluation = evaluate_schedule(result, jobs)
        assert evaluation.all_finished
        assert evaluation.stp > 1.0
        assert evaluation.antt >= 1.0
        # every application processed its entire input
        for job in jobs:
            name = job.benchmark
            assert result.apps[name].processed_gb == pytest.approx(job.input_gb,
                                                                   rel=0.02)

    def test_colocation_beats_isolated_execution_end_to_end(self, moe):
        jobs = make_scenario_mixes("L4", n_mixes=1, seed=9)[0]
        cluster_a, cluster_b = Cluster.homogeneous(10), Cluster.homogeneous(10)
        ours = ClusterSimulator(cluster_a, make_moe_scheduler(moe=moe),
                                time_step_min=0.5).run(jobs)
        isolated = ClusterSimulator(cluster_b, IsolatedScheduler(),
                                    time_step_min=0.5).run(jobs)
        ours_eval = evaluate_schedule(ours, jobs)
        isolated_eval = evaluate_schedule(isolated, jobs)
        assert ours_eval.stp > isolated_eval.stp
        assert ours_eval.antt < isolated_eval.antt
        assert ours_eval.makespan_min < isolated_eval.makespan_min

    def test_failure_injection_oom_recovery_preserves_work(self):
        # A deliberately broken estimator (exponential family forced onto
        # memory-hungry logarithmic applications, no safety margin, tiny
        # nodes) must trigger paging/OOM handling — and the work must still
        # complete, with the OOM data re-run in isolation.
        jobs = [Job("BDB.PageRank", 120.0), Job("HB.PageRank", 120.0),
                Job("BDB.Con.Com", 120.0), Job("SB.TriangleCount", 120.0)]
        scheduler = MemoryAwareCoLocationScheduler(
            UnifiedFamilyEstimator("exponential"), safety_margin=1.0)
        cluster = Cluster.homogeneous(2, ram_gb=40.0, swap_gb=8.0)
        simulator = ClusterSimulator(cluster, scheduler, time_step_min=0.5,
                                     max_time_min=20000.0)
        result = simulator.run(jobs)
        assert result.all_finished()
        pressure_events = (result.events.count(EventKind.NODE_PAGING)
                           + result.events.count(EventKind.EXECUTOR_OOM))
        assert pressure_events > 0
        for job in jobs:
            assert result.apps[job.benchmark].processed_gb == pytest.approx(
                job.input_gb, rel=0.02)

    def test_leave_one_out_protocol_never_sees_the_target(self, moe):
        # When a training-suite benchmark is scheduled, the estimator must
        # use a predictor whose training set excludes it and its
        # equivalent implementations.
        from repro.scheduling.estimators import MoEEstimator
        from repro.spark.application import SparkApplication
        from repro.workloads.suites import benchmark_by_name

        moe._reduced.pop("BDB.Kmeans", None)
        estimator = MoEEstimator(moe=moe)
        spec = benchmark_by_name("BDB.Kmeans")
        app = SparkApplication(name="BDB.Kmeans", spec=spec, input_gb=100.0)
        estimator.prepare(app, spec)
        loo_names = moe._reduced["BDB.Kmeans"].dataset.names()
        assert "BDB.Kmeans" not in loo_names
        assert "HB.Kmeans" not in loo_names
        selection = estimator._predictions["BDB.Kmeans"].selection
        assert selection.nearest_program in loo_names
