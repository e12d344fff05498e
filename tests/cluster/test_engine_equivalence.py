"""Golden equivalence between the fixed-step and event-driven engines.

The event-driven engine claims to *replay* the fixed-step trajectory while
skipping the steps at which nothing can change.  These tests pin that
claim on the seed scenario mixes under every registered scheme:
makespans, per-application turnarounds and utilisation aggregates must
agree (the acceptance tolerance is 2 %, but the grid-aligned design makes
them match to floating-point noise).
"""

import math
from types import SimpleNamespace

import pytest

from repro.cluster import Cluster, ClusterSimulator
from repro.cluster.engine import STEP_MODES, EventDrivenEngine, make_engine
from repro.core.moe import MixtureOfExperts
from repro.core.training import collect_training_data
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


def simulate(step_mode, factory, jobs, n_nodes=40, **kwargs):
    simulator = ClusterSimulator(Cluster.homogeneous(n_nodes), factory(),
                                 step_mode=step_mode, seed=11, **kwargs)
    return simulator.run(jobs)


class TestGoldenEquivalence:
    @pytest.mark.parametrize("scheme", sorted(scheme_names()))
    @pytest.mark.parametrize("scenario", ["L1", "L3", "L5"])
    def test_seed_scenario_mixes_match(self, scheme, scenario, artefacts):
        mix = make_scenario_mixes(scenario, n_mixes=1, seed=11)[0]

        def factory():
            # ``learned`` takes no default policy; the rest default to this.
            return build_scheduler(scheme, artefacts,
                                   allocation_policy=DynamicAllocationPolicy())

        fixed = simulate("fixed", factory, mix)
        event = simulate("event", factory, mix)

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

    def test_utilization_samples_are_aligned_and_identical(self):
        mix = make_scenario_mixes("L3", n_mixes=1, seed=7)[0]
        fixed = simulate("fixed", PairwiseScheduler, mix)
        event = simulate("event", PairwiseScheduler, mix)
        # Index i of utilization_times stamps sample i of every node trace.
        for result in (fixed, event):
            for trace in result.utilization_trace.values():
                assert len(trace) == len(result.utilization_times)
        assert event.utilization_times == fixed.utilization_times
        assert event.utilization_trace == fixed.utilization_trace
        assert event.mean_node_utilization() == pytest.approx(
            fixed.mean_node_utilization())

    def test_event_counts_match(self):
        mix = make_scenario_mixes("L2", n_mixes=1, seed=3)[0]
        fixed = simulate("fixed", make_oracle_scheduler, mix)
        event = simulate("event", make_oracle_scheduler, mix)
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

        result = simulate("event", IdleScheduler, [Job("HB.Sort", 5.0)],
                          n_nodes=2, max_time_min=50.0)
        assert not result.all_finished()
        # The rescan tick bounds the scheduler call count far below the
        # 100 calls the fixed-step engine would make over this horizon.
        assert IdleScheduler.calls <= 25

    def test_online_search_wake_deadlines_are_honoured(self):
        jobs = [Job("HB.Sort", 30.0), Job("BDB.Grep", 20.0)]
        fixed = simulate("fixed", OnlineSearchScheduler, jobs, n_nodes=4)
        event = simulate("event", OnlineSearchScheduler, jobs, n_nodes=4)
        for name, app in fixed.apps.items():
            assert event.apps[name].turnaround_min() == pytest.approx(
                app.turnaround_min(), rel=1e-9)

    def test_record_utilization_can_be_disabled(self):
        result = simulate("event", PairwiseScheduler, [Job("HB.Sort", 10.0)],
                          n_nodes=2, record_utilization=False)
        assert result.all_finished()
        assert result.utilization_trace == {}
        assert result.utilization_times == []

    def test_unknown_step_mode_rejected(self):
        with pytest.raises(ValueError):
            ClusterSimulator(Cluster.homogeneous(1), PairwiseScheduler(),
                             step_mode="adaptive")
        with pytest.raises(ValueError):
            make_engine("adaptive", None)
        assert set(STEP_MODES) == {"fixed", "event"}

    def test_rescan_interval_must_be_positive(self):
        simulator = ClusterSimulator(Cluster.homogeneous(1),
                                     PairwiseScheduler(), step_mode="event")
        with pytest.raises(ValueError):
            EventDrivenEngine(simulator, rescan_min=0.0)

    def test_alignment_rounds_up_to_grid(self):
        simulator = ClusterSimulator(Cluster.homogeneous(1),
                                     PairwiseScheduler(), time_step_min=0.5,
                                     step_mode="event")
        engine = EventDrivenEngine(simulator)
        assert engine._align(1.2, 1.0) == pytest.approx(1.5)
        assert engine._align(1.5, 1.0) == pytest.approx(1.5)
        # Events may never be scheduled at or before `now`.
        assert engine._align(1.0, 1.0) == pytest.approx(1.5)
        assert engine._align(math.inf, 1.0) == math.inf
