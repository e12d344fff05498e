"""Tests for the dynamic cluster events subsystem (cluster/faults.py)."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterSimulator
from repro.cluster.events import EventKind
from repro.cluster.faults import (
    FAULT_PROFILES,
    FaultEvent,
    FaultSpec,
    FaultSummary,
    load_fault_spec,
)
from repro.scheduling import PairwiseScheduler, make_oracle_scheduler
from repro.workloads.mixes import Job


def run_sim(faults, jobs=None, scheduler=None, n_nodes=4, **kwargs):
    simulator = ClusterSimulator(Cluster.homogeneous(n_nodes),
                                 scheduler or make_oracle_scheduler(),
                                 seed=11, faults=faults, **kwargs)
    return simulator.run(jobs or [Job("HB.Sort", 30.0), Job("HB.Scan", 20.0)])


class TestFaultSpecValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultEvent(time_min=1.0, action="meteor_strike")

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(node_failure_rate_per_hour=-1.0)

    def test_slowdown_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            FaultSpec(straggler_slowdown=0.0)
        with pytest.raises(ValueError):
            FaultSpec(straggler_slowdown=1.5)

    def test_is_empty(self):
        assert FaultSpec().is_empty()
        assert not FaultSpec(preemption_rate_per_hour=1.0).is_empty()
        assert not FaultSpec(timeline=(
            FaultEvent(time_min=1.0, action="node_join"),)).is_empty()


class TestBoundaryValidation:
    """Non-finite and boolean numbers fail at construction, naming the
    field, from the constructor and from ``from_dict``.  Before, a NaN or
    infinite failure rate made ``realize`` loop forever."""

    NAN, INF = float("nan"), float("inf")
    SPEC_BAD = [
        ("node_failure_rate_per_hour", NAN),
        ("node_failure_rate_per_hour", INF),
        ("node_recovery_min", NAN),
        ("preemption_rate_per_hour", True),
        ("straggler_rate_per_hour", NAN),
        ("straggler_slowdown", True),
        ("straggler_duration_min", NAN),
        ("horizon_min", NAN),
        ("horizon_min", INF),
    ]
    EVENT_BAD = [
        ("time_min", NAN),
        ("time_min", INF),
        ("node_id", True),
        ("draw", False),
        ("duration_min", NAN),
        ("speed_factor", True),
        ("ram_gb", INF),
        ("swap_gb", NAN),
        ("cores", True),
    ]

    @pytest.mark.parametrize("field,value", SPEC_BAD)
    def test_spec_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            FaultSpec(**{field: value})
        with pytest.raises(ValueError, match=field):
            FaultSpec.from_dict({field: value})

    @pytest.mark.parametrize("field,value", EVENT_BAD)
    def test_event_rejects(self, field, value):
        fields = {"time_min": 1.0, "action": "node_down", field: value}
        with pytest.raises(ValueError, match=field):
            FaultEvent(**fields)
        with pytest.raises(ValueError, match=field):
            FaultEvent.from_dict(fields)
        with pytest.raises(ValueError, match=field):
            FaultSpec.from_dict({"timeline": [fields]})

    def test_finite_numbers_still_realize(self):
        spec = FaultSpec.from_dict({"node_failure_rate_per_hour": 2,
                                    "node_recovery_min": 30,
                                    "horizon_min": 120})
        events = spec.realize(np.random.default_rng(0))
        assert all(0 <= event.time_min < 120 for event in events)


class TestFaultSpecJson:
    def test_round_trip(self):
        spec = FaultSpec(
            timeline=(FaultEvent(time_min=5.0, action="node_down",
                                 node_id=2, duration_min=10.0),
                      FaultEvent(time_min=8.0, action="straggler_on",
                                 speed_factor=0.5, duration_min=20.0),
                      FaultEvent(time_min=9.0, action="node_join",
                                 ram_gb=128.0, swap_gb=32.0, cores=32)),
            node_failure_rate_per_hour=1.5, node_recovery_min=30.0,
            preemption_rate_per_hour=2.0, horizon_min=500.0)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec fields"):
            FaultSpec.from_dict({"gremlins": 3})
        with pytest.raises(ValueError, match="unknown fault event fields"):
            FaultEvent.from_dict({"time_min": 1.0, "action": "preempt",
                                  "frequency": 2})

    def test_profile_and_literal_resolution(self):
        assert load_fault_spec("churn") is FAULT_PROFILES["churn"]
        assert load_fault_spec(None) is None
        assert load_fault_spec("none") is None
        spec = FaultSpec(preemption_rate_per_hour=1.0)
        assert load_fault_spec(spec) is spec
        with pytest.raises(KeyError, match="unknown fault profile"):
            load_fault_spec("volcano")


class TestRealization:
    def test_same_seed_same_timeline(self):
        spec = FaultSpec(node_failure_rate_per_hour=4.0,
                         node_recovery_min=15.0,
                         preemption_rate_per_hour=3.0,
                         straggler_rate_per_hour=2.0, horizon_min=300.0)
        a = spec.realize(np.random.default_rng(7))
        b = spec.realize(np.random.default_rng(7))
        assert a == b
        assert a != spec.realize(np.random.default_rng(8))

    def test_realized_events_sorted_and_within_horizon(self):
        spec = FaultSpec(node_failure_rate_per_hour=10.0, horizon_min=120.0)
        events = spec.realize(np.random.default_rng(0))
        times = [e.time_min for e in events]
        assert times == sorted(times)
        assert all(t < 120.0 for t in times)

    def test_empty_spec_realizes_to_nothing(self):
        assert FaultSpec().realize(np.random.default_rng(0)) == []


class TestNodeFailure:
    def test_node_down_kills_executors_and_returns_work(self):
        spec = FaultSpec(timeline=(
            FaultEvent(time_min=2.0, action="node_down", node_id=0),))
        result = run_sim(spec)
        assert result.all_finished()
        assert result.events.count(EventKind.NODE_DOWN) == 1
        # The executors running on node 0 died with it.
        assert result.events.count(EventKind.EXECUTOR_KILLED) >= 1
        summary = result.fault_summary
        assert summary.node_failures == 1
        assert summary.executors_lost >= 1
        assert summary.work_lost_gb > 0
        assert summary.rerun_time_min > 0
        assert summary.jobs_disrupted >= 1
        assert summary.availability_percent < 100.0

    def test_node_recovers_after_duration(self):
        spec = FaultSpec(timeline=(
            FaultEvent(time_min=1.0, action="node_down", node_id=1,
                       duration_min=1.5),))
        result = run_sim(spec)
        assert result.events.count(EventKind.NODE_UP) == 1
        assert result.fault_summary.node_recoveries == 1

    def test_down_node_hosts_nothing(self):
        spec = FaultSpec(timeline=(
            FaultEvent(time_min=1.0, action="node_down", node_id=0),))
        simulator = ClusterSimulator(Cluster.homogeneous(2),
                                     make_oracle_scheduler(), seed=3,
                                     faults=spec)
        result = simulator.run([Job("HB.Sort", 40.0)])
        assert result.all_finished()
        node = simulator.cluster.node(0)
        assert not node.is_up
        assert not node.can_host(1.0, 0.1)
        spawned_after = [e for e in result.events.events
                         if e.kind is EventKind.EXECUTOR_SPAWNED
                         and e.node_id == 0 and e.time > 1.0]
        assert spawned_after == []


class TestJoinPreemptStraggle:
    def test_node_join_extends_cluster_and_samples(self, sample_stream):
        spec = FaultSpec(timeline=(
            FaultEvent(time_min=3.0, action="node_join", ram_gb=64.0),))
        simulator = ClusterSimulator(Cluster.homogeneous(2),
                                     make_oracle_scheduler(), seed=3,
                                     faults=spec)
        samples = sample_stream().attach(simulator.events)
        result = simulator.run([Job("HB.Sort", 60.0)])
        assert result.all_finished()
        assert len(simulator.cluster) == 3
        assert result.fault_summary.nodes_joined == 1
        # The joined node is sampled from its join on, every grid step.
        joined = [t for t, ids in zip(samples.times, samples.node_ids)
                  if 2 in ids]
        assert joined[0] == 3.0
        assert joined == [t for t in samples.times if t >= 3.0]
        assert samples.times[0] == 0.0

    def test_preemption_redistributes_work(self):
        spec = FaultSpec(timeline=(
            FaultEvent(time_min=2.0, action="preempt", draw=0.0),))
        result = run_sim(spec)
        assert result.all_finished()
        assert result.fault_summary.preemptions == 1
        assert result.events.count(EventKind.EXECUTOR_PREEMPTED) == 1

    def test_straggler_slows_and_recovers(self):
        slow = FaultSpec(timeline=(
            FaultEvent(time_min=0.5, action="straggler_on", node_id=0,
                       speed_factor=0.25, duration_min=3.0),))
        jobs = [Job("HB.Sort", 10.0)]
        baseline = run_sim(None, jobs=jobs, n_nodes=1)
        straggling = run_sim(slow, jobs=jobs, n_nodes=1)
        assert straggling.fault_summary.straggler_onsets == 1
        assert straggling.events.count(EventKind.STRAGGLER_RECOVERED) == 1
        assert straggling.makespan_min > baseline.makespan_min

    def test_stochastic_preemption_profile_runs_to_completion(self):
        result = run_sim(FAULT_PROFILES["preemptible"], n_nodes=8)
        assert result.all_finished()
        assert result.fault_summary is not None


class TestSchedulerHook:
    def test_executor_cap_follows_live_topology(self):
        scheduler = PairwiseScheduler()
        assert scheduler.allocation_policy.max_executors == 40
        spec = FaultSpec(timeline=(
            FaultEvent(time_min=0.5, action="node_down", node_id=0),
            FaultEvent(time_min=1.0, action="node_join"),
            FaultEvent(time_min=1.0, action="node_join"),))
        simulator = ClusterSimulator(Cluster.homogeneous(3), scheduler,
                                     seed=3, faults=spec)
        result = simulator.run([Job("HB.Sort", 60.0)])
        assert result.all_finished()
        # 3 nodes - 1 failed + 2 joined = 4 live nodes at the end.
        assert scheduler.allocation_policy.max_executors == 4

    def test_no_fault_run_leaves_policy_untouched(self):
        scheduler = PairwiseScheduler()
        before = scheduler.allocation_policy
        run_sim(None, scheduler=scheduler)
        assert scheduler.allocation_policy is before


class TestNodeIdValidation:
    def test_unknown_explicit_node_id_raises_at_start(self):
        # A typo'd node id used to drop its event silently; now the
        # controller rejects the timeline before the first epoch.
        spec = FaultSpec(timeline=(
            FaultEvent(time_min=1.0, action="node_down", node_id=99),))
        with pytest.raises(ValueError, match=r"unknown node id\(s\) \[99\]"):
            run_sim(spec)

    def test_all_actions_validate_their_node_id(self):
        for action in ("node_down", "node_up", "straggler_on",
                       "straggler_off"):
            spec = FaultSpec(timeline=(
                FaultEvent(time_min=1.0, action=action, node_id=7),))
            with pytest.raises(ValueError, match="unknown node id"):
                run_sim(spec, n_nodes=4)

    def test_ids_minted_by_scheduled_joins_are_known(self):
        # 4 built nodes + 1 scheduled join: id 4 is valid to fail later.
        spec = FaultSpec(timeline=(
            FaultEvent(time_min=1.0, action="node_join"),
            FaultEvent(time_min=2.0, action="node_down", node_id=4,
                       duration_min=1.0),))
        result = run_sim(spec)
        assert result.all_finished()
        assert result.fault_summary.node_failures == 1


class TestInapplicableEvents:
    def test_node_down_on_downed_node_is_counted(self):
        # The second node_down targets a node that is already down, so
        # it applies to nothing — counted, not silently dropped.
        spec = FaultSpec(timeline=(
            FaultEvent(time_min=1.0, action="node_down", node_id=0),
            FaultEvent(time_min=2.0, action="node_down", node_id=0),))
        result = run_sim(spec)
        summary = result.fault_summary
        assert summary.node_failures == 1
        assert summary.inapplicable_events == 1
        assert summary.to_dict()["inapplicable_events"] == 1

    def test_preempt_with_no_running_executor_is_counted(self):
        spec = FaultSpec(timeline=(
            FaultEvent(time_min=0.0, action="preempt", draw=0.5),))
        result = run_sim(spec)
        summary = result.fault_summary
        assert summary.preemptions == 0
        assert summary.inapplicable_events >= 1

    def test_clean_run_omits_the_counter_from_json(self):
        spec = FaultSpec(timeline=(
            FaultEvent(time_min=1.0, action="node_down", node_id=0,
                       duration_min=2.0),))
        summary = run_sim(spec).fault_summary
        assert summary.inapplicable_events == 0
        assert "inapplicable_events" not in summary.to_dict()
        assert FaultSummary.from_dict(summary.to_dict()) == summary


class TestSummary:
    def test_summary_round_trips_through_json_dict(self):
        summary = FaultSummary(node_failures=2, node_recoveries=1,
                               preemptions=3, executors_lost=5,
                               jobs_disrupted=2,
                               disrupted_jobs=("a", "b"),
                               work_lost_gb=12.5, rerun_time_min=6.0,
                               availability_percent=97.5)
        assert FaultSummary.from_dict(summary.to_dict()) == summary

    def test_availability_integrates_pre_transition_state(self):
        # Node 0 (of 2) is down from t=40 to t=50: the healthy minutes
        # before the failure must be charged at 2 up nodes, the downtime
        # at 1 — availability = (2*makespan - 10) / (2*makespan).
        spec = FaultSpec(timeline=(
            FaultEvent(time_min=40.0, action="node_down", node_id=0,
                       duration_min=10.0),))
        result = run_sim(spec, jobs=[Job("HB.Sort", 4000.0)], n_nodes=2)
        assert result.all_finished()
        makespan = result.makespan_min
        assert makespan > 50.0
        expected = 100.0 * (2 * makespan - 10.0) / (2 * makespan)
        assert result.fault_summary.availability_percent == pytest.approx(
            expected, rel=1e-9)

    def test_no_fault_spec_means_no_summary(self):
        result = run_sim(None)
        assert result.fault_summary is None

    def test_empty_fault_spec_yields_clean_summary(self):
        result = run_sim(FaultSpec())
        summary = result.fault_summary
        assert summary == FaultSummary()
        assert summary.availability_percent == 100.0
