"""Engine equivalence and scenario integration under dynamic cluster events.

The existing goldens pin fixed-step vs event-engine equivalence on
*static* clusters (no faults); these tests pin the same property under
seeded fault timelines — scripted and stochastic — including arrival
processes interleaved with the fault events, and check the new registry
scenarios run end-to-end.
"""

import pytest

from repro.cluster import Cluster
from repro.cluster.faults import FaultEvent, FaultSpec
from repro.scenarios import scenario, scenario_names
from repro.scheduling import (
    IsolatedScheduler,
    OnlineSearchScheduler,
    PairwiseScheduler,
    make_oracle_scheduler,
)
from repro.workloads.arrivals import ArrivalSpec
from repro.workloads.mixes import make_scenario_mixes

SCHEDULERS = {
    "pairwise": PairwiseScheduler,
    "isolated": IsolatedScheduler,
    "online_search": OnlineSearchScheduler,
    "oracle": make_oracle_scheduler,
}

#: A dense scripted + stochastic fault storm used across the tests.
STORM = FaultSpec(
    timeline=(
        FaultEvent(time_min=5.0, action="node_down", duration_min=20.0,
                   draw=0.2),
        FaultEvent(time_min=8.0, action="straggler_on", speed_factor=0.4,
                   duration_min=15.0, draw=0.7),
        FaultEvent(time_min=12.0, action="node_join"),
        FaultEvent(time_min=15.0, action="preempt", draw=0.5),
    ),
    node_failure_rate_per_hour=3.0, node_recovery_min=20.0,
    preemption_rate_per_hour=2.0, straggler_rate_per_hour=1.0,
    straggler_slowdown=0.5, straggler_duration_min=10.0,
    horizon_min=400.0)


def simulate(simulator_type, samples, factory, jobs, seed=11, n_nodes=40,
             **kwargs):
    """One run under the storm; returns the result and the run's usage
    samples, recorded into ``samples``."""
    simulator = simulator_type(Cluster.homogeneous(n_nodes), factory(),
                               seed=seed, faults=STORM, **kwargs)
    samples.attach(simulator.events)
    return simulator.run(jobs), samples


def assert_equivalent(fixed_run, event_run):
    """Both engines replay the same faulty trajectory (float-noise close)
    and publish the same usage samples; each run is (result, samples)."""
    (fixed, fixed_samples), (event, event_samples) = fixed_run, event_run
    assert fixed.all_finished() and event.all_finished()
    assert event.makespan_min == pytest.approx(fixed.makespan_min, rel=1e-9)
    for name, app in fixed.apps.items():
        assert event.apps[name].turnaround_min() == pytest.approx(
            app.turnaround_min(), rel=1e-9)
    # The retained event streams are identical kind-for-kind and, for
    # every dynamic-cluster event, time- and target-identical too.
    fixed_kinds = [e.kind for e in fixed.events.events]
    event_kinds = [e.kind for e in event.events.events]
    assert sorted(k.value for k in fixed_kinds) == sorted(
        k.value for k in event_kinds)
    fault_kinds = {"node_down", "node_up", "node_joined", "executor_killed",
                   "executor_preempted", "straggler_onset",
                   "straggler_recovered"}
    fixed_faults = [(e.kind.value, e.time, e.node_id, e.app)
                    for e in fixed.events.events if e.kind.value in fault_kinds]
    event_faults = [(e.kind.value, e.time, e.node_id, e.app)
                    for e in event.events.events if e.kind.value in fault_kinds]
    assert fixed_faults == event_faults
    # Fault telemetry: counters exactly, work accounting to float noise.
    ff, ef = fixed.fault_summary, event.fault_summary
    assert (ff.node_failures, ff.node_recoveries, ff.nodes_joined,
            ff.preemptions, ff.executors_lost, ff.straggler_onsets,
            ff.jobs_disrupted, ff.disrupted_jobs) == (
        ef.node_failures, ef.node_recoveries, ef.nodes_joined,
        ef.preemptions, ef.executors_lost, ef.straggler_onsets,
        ef.jobs_disrupted, ef.disrupted_jobs)
    assert ef.work_lost_gb == pytest.approx(ff.work_lost_gb, rel=1e-9, abs=1e-9)
    assert ef.rerun_time_min == pytest.approx(ff.rerun_time_min,
                                              rel=1e-9, abs=1e-9)
    assert ef.availability_percent == pytest.approx(ff.availability_percent,
                                                    rel=1e-9)
    # Usage samples: the same times, nodes, CPU loads and utilisations.
    # Resident memory follows the work killed executors return, which
    # the engines accumulate step by step or in jumps: float noise.
    assert fixed_samples.times
    for column in ("times", "node_ids", "cpu", "util"):
        assert getattr(event_samples, column) == getattr(fixed_samples, column)
    assert event_samples.memory == [pytest.approx(row, rel=1e-9, abs=1e-9)
                                    for row in fixed_samples.memory]


class TestFaultGoldenEquivalence:
    @pytest.mark.parametrize("scheme", sorted(SCHEDULERS))
    def test_batch_mix_under_fault_storm(self, scheme, simulators,
                                         sample_stream):
        mix = make_scenario_mixes("L3", n_mixes=1, seed=11)[0]
        fixed = simulate(simulators["fixed"], sample_stream(),
                         SCHEDULERS[scheme], mix)
        event = simulate(simulators["event"], sample_stream(),
                         SCHEDULERS[scheme], mix)
        assert_equivalent(fixed, event)

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_property_seeded_storms_stay_equivalent(self, seed, simulators,
                                                    sample_stream):
        """Property-style: whatever storm a seed realizes, engines agree."""
        mix = make_scenario_mixes("L2", n_mixes=1, seed=seed)[0]
        fixed = simulate(simulators["fixed"], sample_stream(),
                         make_oracle_scheduler, mix, seed=seed)
        event = simulate(simulators["event"], sample_stream(),
                         make_oracle_scheduler, mix, seed=seed)
        assert_equivalent(fixed, event)
        # The storm actually did something, under both engines.
        assert fixed[0].fault_summary.node_failures >= 1

    def test_open_arrivals_interleaved_with_faults(self, simulators,
                                                   sample_stream):
        """Arrival process + fault timeline compose on one clock."""
        import numpy as np

        mix = make_scenario_mixes("L3", n_mixes=1, seed=5)[0]
        arrivals = ArrivalSpec(kind="poisson", rate_per_min=0.2)
        jobs = arrivals.apply(mix, np.random.default_rng(5))
        assert any(job.submit_time_min > 0 for job in jobs)
        fixed = simulate(simulators["fixed"], sample_stream(),
                         make_oracle_scheduler, jobs, seed=5)
        event = simulate(simulators["event"], sample_stream(),
                         make_oracle_scheduler, jobs, seed=5)
        assert_equivalent(fixed, event)
        # Jobs kept arriving while the cluster churned: some submission
        # happened after the first fault fired.
        events = fixed[0].events.events
        first_fault = min(e.time for e in events
                          if e.kind.value == "node_down")
        last_arrival = max(e.time for e in events
                           if e.kind.value == "app_submitted")
        assert last_arrival > first_fault


class TestFaultRegistryScenarios:
    def test_new_scenarios_registered(self):
        names = scenario_names()
        for name in ("churn20", "flaky_nodes", "preemptible"):
            assert name in names
            assert scenario(name).faults is not None

    @pytest.mark.parametrize("name", ["flaky_nodes", "preemptible"])
    def test_fault_scenarios_run_end_to_end_on_both_engines(self, name,
                                                            simulators,
                                                            sample_stream):
        spec = scenario(name)
        mixes = spec.make_mixes(n_mixes=1, seed=11)
        runs = {}
        for mode, simulator_type in simulators.items():
            simulator = simulator_type(spec.build_cluster(),
                                       PairwiseScheduler(), seed=11,
                                       faults=spec.faults,
                                       max_time_min=spec.max_time_min)
            samples = sample_stream().attach(simulator.events)
            runs[mode] = (simulator.run(mixes[0]), samples)
        assert_equivalent(runs["fixed"], runs["event"])
