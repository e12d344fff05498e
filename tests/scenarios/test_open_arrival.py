"""Open-arrival simulation semantics, on both engines."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSimulator, EventKind
from repro.scheduling import (
    OnlineSearchScheduler,
    PairwiseScheduler,
    make_oracle_scheduler,
)
from repro.workloads import ArrivalSpec, Job
from repro.workloads.mixes import make_random_mix

ENGINES = ("fixed", "event")


def simulate(simulator_type, factory, jobs, n_nodes=6, samples=None,
             **kwargs):
    """One run; ``samples``, when given, records its usage samples."""
    simulator = simulator_type(Cluster.homogeneous(n_nodes), factory(),
                               seed=11, **kwargs)
    if samples is not None:
        samples.attach(simulator.events)
    return simulator.run(jobs)


def staggered_jobs():
    return [Job("HB.Sort", 30.0, order=0, submit_time_min=0.0),
            Job("BDB.Grep", 25.0, order=1, submit_time_min=7.3),
            Job("HB.Scan", 15.0, order=2, submit_time_min=7.3),
            Job("SP.Kmeans", 40.0, order=3, submit_time_min=55.0)]


class TestArrivalSemantics:
    @pytest.mark.parametrize("step_mode", ENGINES)
    def test_submission_events_wait_for_arrival_time(self, step_mode,
                                                     simulators):
        result = simulate(simulators[step_mode], PairwiseScheduler,
                          staggered_jobs())
        submitted = {e.app: e.time
                     for e in result.events.of_kind(EventKind.APP_SUBMITTED)}
        assert submitted["HB.Sort"] == 0.0
        # 7.3 is observed at the next 0.5-minute grid step.
        assert submitted["BDB.Grep"] == pytest.approx(7.5)
        assert submitted["HB.Scan"] == pytest.approx(7.5)
        assert submitted["SP.Kmeans"] == pytest.approx(55.0)

    @pytest.mark.parametrize("step_mode", ENGINES)
    def test_no_executor_before_arrival(self, step_mode, simulators):
        result = simulate(simulators[step_mode], PairwiseScheduler,
                          staggered_jobs())
        for event in result.events.of_kind(EventKind.EXECUTOR_SPAWNED):
            if event.app.startswith("SP.Kmeans"):
                assert event.time >= 55.0

    @pytest.mark.parametrize("step_mode", ENGINES)
    def test_turnaround_measured_from_true_arrival(self, step_mode,
                                                   simulators):
        result = simulate(simulators[step_mode], PairwiseScheduler,
                          staggered_jobs())
        assert result.all_finished()
        app = result.apps["BDB.Grep"]
        assert app.submit_time == pytest.approx(7.3)
        assert app.turnaround_min() == pytest.approx(
            app.finish_time - 7.3)

    @pytest.mark.parametrize("step_mode", ENGINES)
    def test_simultaneous_arrivals_keep_mix_order(self, step_mode, simulators):
        result = simulate(simulators[step_mode], PairwiseScheduler,
                          staggered_jobs())
        submitted = [e.app
                     for e in result.events.of_kind(EventKind.APP_SUBMITTED)]
        assert submitted.index("BDB.Grep") < submitted.index("HB.Scan")

    @pytest.mark.parametrize("step_mode", ENGINES)
    def test_arrival_beyond_horizon_marks_run_unfinished(self, step_mode,
                                                         simulators):
        jobs = [Job("HB.Sort", 5.0, order=0),
                Job("BDB.Grep", 5.0, order=1, submit_time_min=500.0)]
        result = simulate(simulators[step_mode], PairwiseScheduler, jobs,
                          max_time_min=50.0)
        assert not result.all_finished()
        assert [j.benchmark for j in result.unsubmitted_jobs] == ["BDB.Grep"]
        assert "BDB.Grep" not in result.apps


class TestEngineEquivalenceOpenArrivals:
    @pytest.mark.parametrize("factory", [PairwiseScheduler,
                                         make_oracle_scheduler,
                                         OnlineSearchScheduler])
    def test_engines_agree_on_staggered_mix(self, factory, simulators,
                                            sample_stream):
        fixed_samples, event_samples = sample_stream(), sample_stream()
        fixed = simulate(simulators["fixed"], factory, staggered_jobs(),
                         samples=fixed_samples)
        event = simulate(simulators["event"], factory, staggered_jobs(),
                         samples=event_samples)
        assert fixed.all_finished() and event.all_finished()
        assert event.makespan_min == pytest.approx(fixed.makespan_min,
                                                   rel=1e-9)
        for name, app in fixed.apps.items():
            assert event.apps[name].turnaround_min() == pytest.approx(
                app.turnaround_min(), rel=1e-9)
        assert fixed_samples.times
        assert event_samples == fixed_samples

    def test_engines_agree_on_poisson_arrivals(self, simulators):
        rng = np.random.default_rng(17)
        jobs = ArrivalSpec(kind="poisson", rate_per_min=0.2).apply(
            make_random_mix(8, rng), rng)
        fixed = simulate(simulators["fixed"], make_oracle_scheduler, jobs,
                         n_nodes=8)
        event = simulate(simulators["event"], make_oracle_scheduler, jobs,
                         n_nodes=8)
        assert fixed.all_finished() and event.all_finished()
        for name, app in fixed.apps.items():
            assert event.apps[name].turnaround_min() == pytest.approx(
                app.turnaround_min(), rel=1e-9)

    def test_event_engine_skips_idle_gap_between_arrivals(self):
        # A long quiet gap between two jobs: the event engine must jump it
        # rather than stepping through ~200 empty epochs.
        calls = {"n": 0}

        class CountingPairwise(PairwiseScheduler):
            def schedule(self, ctx):
                calls["n"] += 1
                super().schedule(ctx)

        jobs = [Job("HB.Scan", 5.0, order=0),
                Job("BDB.Grep", 5.0, order=1, submit_time_min=100.0)]
        result = simulate(ClusterSimulator, CountingPairwise, jobs, n_nodes=2)
        assert result.all_finished()
        assert calls["n"] < 40
