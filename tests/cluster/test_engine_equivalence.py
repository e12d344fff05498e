"""Golden equivalence between the fixed-step and event-driven engines.

The event-driven engine, the one every run uses, claims to *replay* the
trajectory of the fixed-step reference engine while skipping the steps at
which nothing can change.  These tests pin that claim on the seed
scenario mixes under every registered scheme, and on the open-arrival
heterogeneous demo scenario: makespans, per-application turnarounds and
utilisation aggregates must agree (the acceptance tolerance is 2 %, but
the grid-aligned design makes them match to floating-point noise).
"""

import math
from types import SimpleNamespace

import pytest

from repro.cluster import Cluster, ClusterSimulator
from repro.cluster.engine import EventDrivenEngine
from repro.core.moe import MixtureOfExperts
from repro.core.training import collect_training_data
from repro.metrics.throughput import evaluate_schedule
from repro.scenarios import load_scenario
from repro.scheduling import (
    OnlineSearchScheduler,
    PairwiseScheduler,
    make_oracle_scheduler,
)
from repro.scheduling.registry import build_scheduler, scheme_names
from repro.spark.driver import DynamicAllocationPolicy
from repro.workloads import Job
from repro.workloads.mixes import make_scenario_mixes


@pytest.fixture(scope="module")
def artefacts():
    """The trained artefacts the learned schemes need, built once."""
    dataset = collect_training_data(seed=0)
    return SimpleNamespace(dataset=dataset,
                           moe=MixtureOfExperts.from_dataset(dataset))


def simulate(simulator_type, factory, jobs, n_nodes=40, **kwargs):
    simulator = simulator_type(Cluster.homogeneous(n_nodes), factory(),
                               seed=11, **kwargs)
    return simulator.run(jobs)


class TestGoldenEquivalence:
    @pytest.mark.parametrize("scheme", sorted(scheme_names()))
    @pytest.mark.parametrize("scenario", ["L1", "L3", "L5", "L8"])
    def test_seed_scenario_mixes_match(self, scheme, scenario, artefacts,
                                       simulators):
        mix = make_scenario_mixes(scenario, n_mixes=1, seed=11)[0]

        def factory():
            # ``learned`` takes no default policy; the rest default to this.
            return build_scheduler(scheme, artefacts,
                                   allocation_policy=DynamicAllocationPolicy())

        fixed = simulate(simulators["fixed"], factory, mix)
        event = simulate(simulators["event"], factory, mix)

        assert fixed.all_finished() and event.all_finished()
        # Acceptance bound: within 2 % — in practice they are identical.
        assert event.makespan_min == pytest.approx(fixed.makespan_min,
                                                   rel=0.02)
        assert event.makespan_min == pytest.approx(fixed.makespan_min,
                                                   rel=1e-9)
        for name, app in fixed.apps.items():
            assert event.apps[name].turnaround_min() == pytest.approx(
                app.turnaround_min(), rel=0.02)
            assert event.apps[name].turnaround_min() == pytest.approx(
                app.turnaround_min(), rel=1e-9)

    @pytest.mark.parametrize("scheme", ["pairwise", "ours", "oracle"])
    def test_open_arrival_heterogeneous_demo_matches(self, scheme, artefacts,
                                                     simulators):
        """Poisson arrivals on a mixed-node fleet, built from the spec as
        an experiment cell builds it: identical STP, makespan and finish
        times on both engines."""
        spec = load_scenario("poisson_hetero_demo")
        jobs = spec.make_mixes(n_mixes=1, seed=11)[0]
        runs = {}
        for engine, simulator_type in simulators.items():
            cluster = spec.build_cluster()
            policy = DynamicAllocationPolicy(max_executors=len(cluster))
            simulator = simulator_type(
                cluster,
                build_scheduler(scheme, artefacts, allocation_policy=policy),
                seed=11, max_time_min=spec.max_time_min, faults=spec.faults)
            result = simulator.run(jobs)
            assert result.all_finished()
            runs[engine] = (evaluate_schedule(result, jobs, policy),
                            {name: app.finish_time
                             for name, app in result.apps.items()})
        (fixed, fixed_finish), (event, event_finish) = (runs["fixed"],
                                                        runs["event"])
        assert event.stp == fixed.stp
        assert event.makespan_min == fixed.makespan_min
        assert event_finish == fixed_finish

    def test_usage_samples_are_identical(self, simulators, sample_stream):
        """Both engines publish the same samples at the same grid times:
        memory, CPU load and utilisation of every node."""
        mix = make_scenario_mixes("L3", n_mixes=1, seed=7)[0]
        runs = {}
        for engine, simulator_type in simulators.items():
            simulator = simulator_type(Cluster.homogeneous(40),
                                       PairwiseScheduler(), seed=11)
            samples = sample_stream().attach(simulator.events)
            runs[engine] = (simulator.run(mix), samples)
        (fixed, fixed_samples), (event, event_samples) = (runs["fixed"],
                                                          runs["event"])
        assert fixed_samples.times
        assert event_samples == fixed_samples
        assert event.mean_node_utilization() == pytest.approx(
            fixed.mean_node_utilization())

    def test_event_counts_match(self, simulators):
        mix = make_scenario_mixes("L2", n_mixes=1, seed=3)[0]
        fixed = simulate(simulators["fixed"], make_oracle_scheduler, mix)
        event = simulate(simulators["event"], make_oracle_scheduler, mix)
        for kind in ("app_submitted", "executor_spawned", "executor_finished",
                     "app_finished", "executor_oom"):
            fixed_kinds = [e.kind.value for e in fixed.events.events]
            event_kinds = [e.kind.value for e in event.events.events]
            assert fixed_kinds.count(kind) == event_kinds.count(kind)


class TestEventEngineBehaviour:
    def test_idle_scheduler_reaches_horizon_without_spinning(self):
        class IdleScheduler:
            calls = 0

            def schedule(self, ctx):
                type(self).calls += 1

        result = simulate(ClusterSimulator, IdleScheduler,
                          [Job("HB.Sort", 5.0)], n_nodes=2, max_time_min=50.0)
        assert not result.all_finished()
        # The rescan tick wakes the scheduler every five 0.5-min grid
        # steps: 20 calls over this horizon, where the fixed-step
        # reference engine would make 100.
        assert IdleScheduler.calls == 20

    def test_online_search_wake_deadlines_are_honoured(self, simulators):
        jobs = [Job("HB.Sort", 30.0), Job("BDB.Grep", 20.0)]
        fixed = simulate(simulators["fixed"], OnlineSearchScheduler, jobs,
                         n_nodes=4)
        event = simulate(simulators["event"], OnlineSearchScheduler, jobs,
                         n_nodes=4)
        for name, app in fixed.apps.items():
            assert event.apps[name].turnaround_min() == pytest.approx(
                app.turnaround_min(), rel=1e-9)

    def test_retired_record_utilization_option_is_rejected(self):
        with pytest.raises(TypeError, match="record_utilization"):
            ClusterSimulator(Cluster.homogeneous(2), PairwiseScheduler(),
                             record_utilization=False)

    def test_alignment_rounds_up_to_grid(self):
        simulator = ClusterSimulator(Cluster.homogeneous(1),
                                     PairwiseScheduler(), time_step_min=0.5)
        engine = EventDrivenEngine(simulator)
        assert engine._align(1.2, 1.0) == pytest.approx(1.5)
        assert engine._align(1.5, 1.0) == pytest.approx(1.5)
        # Events may never be scheduled at or before `now`.
        assert engine._align(1.0, 1.0) == pytest.approx(1.5)
        assert engine._align(math.inf, 1.0) == math.inf
