"""Tests for the context-aware meta-scheduler (scheduling/meta.py).

The golden traces already pin the registered ``meta`` scheme (its tuned
pairwise/ours default) on both engines on L1/L5/churn20/regime_shift;
here the hot-swap machinery itself is pinned down with artefact-free
inner schemes: a scripted churn storm forces switches in both directions
and the two engines' trajectories must agree bit-for-bit, the hysteresis
dwell must hold, and a switched-in scheme
must re-derive its executor cap from the *live* topology and drop its
footprint memo (the switch-replay rule).
"""

import math
from types import SimpleNamespace

import pytest

from repro.cluster import Cluster, ClusterSimulator
from repro.cluster.events import (
    EventBus,
    EventKind,
    NodeDown,
    StragglerOnset,
    StragglerRecovered,
)
from repro.cluster.faults import FaultEvent, FaultSpec
from repro.metrics.throughput import evaluate_schedule
from repro.scheduling import (
    IsolatedScheduler,
    PairwiseScheduler,
    make_oracle_scheduler,
)
from repro.scheduling.meta import ContextMonitor, MetaScheduler
from repro.spark.driver import DynamicAllocationPolicy
from repro.spark.executor import Executor
from repro.workloads.mixes import Job

SEED = 11

#: Scripted storm: the first outage alone trips ``churn_enter=2`` at
#: t=5 (the NodeDown plus the executor kills it causes all count as
#: churn), a third node fails *permanently* at t=15 while the fallback
#: is active (the primary sleeps through it), and the window empties at
#: t=40 (last churn event 15 + window 25) — the switch-back instant.
STORM = FaultSpec(timeline=(
    FaultEvent(time_min=5.0, action="node_down", node_id=0,
               duration_min=40.0),
    FaultEvent(time_min=7.0, action="node_down", node_id=1,
               duration_min=40.0),
    FaultEvent(time_min=15.0, action="node_down", node_id=2),
), horizon_min=720.0)

#: Enough work that the run (makespan ~141 min) outlives the storm and
#: the t=40 switch-back, but small enough that memory pressure on the
#: degraded cluster stays below the parked 0.95 enter threshold.
STORM_JOBS = [Job("HB.Sort", 500.0), Job("BDB.Sort", 500.0),
              Job("HB.Kmeans", 500.0), Job("HB.PageRank", 500.0)]


def make_meta(dwell_min=5.0, primary="oracle", fallback="isolated"):
    """An artefact-free meta instance: oracle primary, isolated fallback.

    Pressure thresholds sit out of the way (0.95/0.9) so the scripted
    churn is the only switch trigger; the window is 25 minutes so the
    storm ages out while the run is still going.
    """
    policy = DynamicAllocationPolicy(max_executors=6)
    schemes = {
        "oracle": make_oracle_scheduler(allocation_policy=policy),
        "isolated": IsolatedScheduler(allocation_policy=policy),
    }
    return MetaScheduler(schemes, primary=primary, fallback=fallback,
                         window_min=25.0, churn_enter=2, churn_exit=0,
                         pressure_enter=0.95, pressure_exit=0.9,
                         dwell_min=dwell_min)


def run_storm(simulator_type=ClusterSimulator, dwell_min=5.0, scheduler=None):
    cluster = Cluster.homogeneous(6)
    scheduler = scheduler or make_meta(dwell_min=dwell_min)
    simulator = simulator_type(cluster, scheduler, seed=SEED,
                               max_time_min=2000.0, faults=STORM)
    result = simulator.run(STORM_JOBS)
    policy = DynamicAllocationPolicy(max_executors=6)
    return result, scheduler, evaluate_schedule(result, STORM_JOBS, policy)


class TestContextMonitor:
    def test_memory_pressure_adds_left_to_right(self, python312_sum):
        # Ten 0.1 GB nodes: a compensated sum() of their capacity is 1.0,
        # the left-to-right total 0.9999999999999999.
        nodes = Cluster.homogeneous(10, ram_gb=0.1).nodes
        for node in nodes:
            node.add_executor(Executor("a", node.node_id, memory_budget_gb=0.03,
                                       assigned_gb=1.0, cpu_demand=0.1))
        ctx = SimpleNamespace(cluster=SimpleNamespace(up_nodes=lambda: nodes),
                              now=0.0, waiting_apps=lambda: [])
        capacity = free = 0.0
        for node in nodes:
            capacity += node.ram_gb
            free += node.free_reserved_memory_gb
        assert capacity != sum(node.ram_gb for node in nodes)
        pressure = ContextMonitor().signals(ctx).memory_pressure
        assert pressure == 1.0 - free / capacity

    def test_window_prunes_and_ages_out(self):
        monitor = ContextMonitor(window_min=10.0)
        bus = EventBus()
        monitor.attach(bus)
        bus.publish(NodeDown(time=1.0, node_id=0))
        bus.publish(NodeDown(time=4.0, node_id=1))
        assert monitor.churn_in_window(5.0) == 2
        assert monitor.next_age_out(5.0) == 11.0
        # t=11: the first event has left the window (time <= now-window).
        assert monitor.churn_in_window(11.0) == 1
        assert monitor.next_age_out(11.0) == 14.0
        assert monitor.churn_in_window(14.0) == 0
        assert monitor.next_age_out(14.0) == math.inf

    def test_straggler_set_tracks_onset_recovery_and_death(self):
        monitor = ContextMonitor()
        bus = EventBus()
        monitor.attach(bus)
        bus.publish(StragglerOnset(time=1.0, node_id=3, speed_factor=0.5))
        bus.publish(StragglerOnset(time=2.0, node_id=4, speed_factor=0.5))
        assert monitor.straggler_count() == 2
        bus.publish(StragglerRecovered(time=3.0, node_id=3))
        assert monitor.straggler_count() == 1
        # A straggling node going down stops straggling (it will return
        # at full speed), but the outage itself still counts as churn.
        bus.publish(NodeDown(time=4.0, node_id=4))
        assert monitor.straggler_count() == 0
        assert monitor.churn_in_window(5.0) == 3

    def test_attach_is_idempotent(self):
        monitor = ContextMonitor()
        bus = EventBus()
        monitor.attach(bus)
        monitor.attach(bus)
        bus.publish(NodeDown(time=1.0, node_id=0))
        assert monitor.churn_in_window(2.0) == 1

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            ContextMonitor(window_min=0.0)


class TestValidation:
    def make_inners(self):
        return {"pairwise": PairwiseScheduler(),
                "isolated": IsolatedScheduler()}

    def test_primary_and_fallback_must_be_wrapped(self):
        with pytest.raises(ValueError, match="must both name"):
            MetaScheduler(self.make_inners(), primary="pairwise",
                          fallback="oracle")

    def test_primary_and_fallback_must_differ(self):
        with pytest.raises(ValueError, match="must differ"):
            MetaScheduler(self.make_inners(), primary="pairwise",
                          fallback="pairwise")

    def test_churn_hysteresis_must_open_downwards(self):
        with pytest.raises(ValueError, match="churn_exit < churn_enter"):
            MetaScheduler(self.make_inners(), primary="pairwise",
                          fallback="isolated", churn_enter=2, churn_exit=2)

    def test_pressure_hysteresis_bounds(self):
        for enter, exit_ in ((0.5, 0.5), (0.5, 0.6), (1.1, 0.5), (0.3, 0.0)):
            with pytest.raises(ValueError, match="pressure_exit"):
                MetaScheduler(self.make_inners(), primary="pairwise",
                              fallback="isolated", pressure_enter=enter,
                              pressure_exit=exit_)

    def test_dwell_cannot_be_negative(self):
        with pytest.raises(ValueError, match="dwell_min"):
            MetaScheduler(self.make_inners(), primary="pairwise",
                          fallback="isolated", dwell_min=-1.0)

    def test_builder_needs_two_distinct_inners(self):
        from repro.scheduling.meta import build_meta_scheduler
        with pytest.raises(ValueError, match="two distinct"):
            build_meta_scheduler(None, schemes=("pairwise", "pairwise"))


class TestForcedSwitches:
    def test_storm_switches_out_and_back(self):
        result, scheduler, _ = run_storm()
        switches = result.scheme_switches
        assert len(switches) >= 2
        assert switches[0].to_scheme == "isolated"
        assert switches[0].from_scheme == "oracle"
        assert switches[1].to_scheme == "oracle"
        assert scheduler.switch_count == len(switches)
        # The switch telemetry is the retained SCHEME_SWITCH stream.
        assert (len(result.events.of_kind(EventKind.SCHEME_SWITCH))
                == len(switches))
        assert "churn=" in switches[0].reason

    def test_trajectories_identical_across_engines(self, simulators):
        runs = {engine: run_storm(simulators[engine])
                for engine in ("event", "fixed")}
        reference_key = "event"
        ref_result, _, ref_eval = runs[reference_key]
        ref_events = [(e.kind, e.time, getattr(e, "app", None),
                       getattr(e, "node_id", None))
                      for e in ref_result.events.events]
        ref_switches = [(s.time_min, s.from_scheme, s.to_scheme)
                        for s in ref_result.scheme_switches]
        assert len(ref_switches) >= 2
        for key, (result, _, evaluation) in runs.items():
            if key == reference_key:
                continue
            label = f"{key} vs {reference_key}"
            events = [(e.kind, e.time, getattr(e, "app", None),
                       getattr(e, "node_id", None))
                      for e in result.events.events]
            assert events == ref_events, (
                f"{label}: event streams diverged under forced switches")
            assert [(s.time_min, s.from_scheme, s.to_scheme)
                    for s in result.scheme_switches] == ref_switches, (
                f"{label}: switch telemetry diverged")
            for name, app in ref_result.apps.items():
                assert result.apps[name].finish_time == app.finish_time, (
                    f"{label}: {name!r} finish time diverged")
            assert evaluation == ref_eval, f"{label}: metrics diverged"

    def test_dwell_blocks_the_switch_back(self):
        # With a 5-minute dwell the calm switch-back lands when the churn
        # window empties (t=40); a 50-minute dwell must hold it until
        # t >= 55 (= 5 + 50) even though the cluster is calm well before.
        short, _, _ = run_storm(dwell_min=5.0)
        long, _, _ = run_storm(dwell_min=50.0)
        assert len(short.scheme_switches) >= 2
        assert len(long.scheme_switches) >= 2
        first, second = long.scheme_switches[:2]
        assert second.time_min - first.time_min >= 50.0
        assert second.time_min > short.scheme_switches[1].time_min

    def test_every_gap_between_switches_respects_the_dwell(self):
        result, scheduler, _ = run_storm()
        times = [s.time_min for s in result.scheme_switches]
        for before, after in zip(times, times[1:]):
            assert after - before >= scheduler.dwell_min


class TestSwitchReplay:
    def test_switched_in_scheme_rederives_cap_and_drops_memo(self):
        scheduler = make_meta()
        oracle = scheduler.schemes["oracle"]
        replays = []
        original = oracle.on_cluster_change

        def spy(ctx, event):
            memo_before = len(oracle._predicted_gb)
            original(ctx, event)
            replays.append({
                "kind": event.kind,
                "time": ctx.now,
                "memo_before": memo_before,
                "memo_after": len(oracle._predicted_gb),
                "cap": oracle.allocation_policy.max_executors,
                "up": ctx.cluster.up_count(),
            })
            if event.kind is EventKind.NODE_DOWN:
                # Simulate an entry memoised between the outage and the
                # switch-out (the storm lands both in one epoch): any
                # footprint cached before dormancy is stale by the time
                # the scheme returns and the replay must drop it.
                oracle._predicted_gb["__stale__"] = 1.0

        oracle.on_cluster_change = spy
        result, _, _ = run_storm(scheduler=scheduler)
        # During its t=0-5 tenure the oracle really does fill the memo,
        # and the genuine NodeDown clears it — the normal-path rule.
        outage = replays[0]
        assert outage["kind"] is EventKind.NODE_DOWN
        assert outage["memo_before"] > 0
        assert outage["memo_after"] == 0
        switch_ins = [r for r in replays
                      if r["kind"] is EventKind.SCHEME_SWITCH]
        assert switch_ins, "the storm must switch back to the oracle"
        back = switch_ins[0]
        # Node 2 died while the oracle was dormant: the replay must hand
        # it the live 3-up topology, not the 5-up one it last saw.
        assert back["up"] == 3
        assert back["cap"] == 3
        # The planted pre-dormancy entry must not survive the replay.
        assert back["memo_before"] == 1
        assert back["memo_after"] == 0
        assert result.all_finished()


class _ChargingIsolated(IsolatedScheduler):
    """Isolated scheduler that books a fixed profiling cost on submit."""

    def on_submit(self, ctx, app):
        app.feature_extraction_min = 5.0
        app.calibration_min = 2.0
        return 7.0


class TestOnSubmitDelegation:
    def run_tiny(self, primary):
        policy = DynamicAllocationPolicy(max_executors=2)
        schemes = {"charging": _ChargingIsolated(allocation_policy=policy),
                   "pairwise": PairwiseScheduler(allocation_policy=policy)}
        fallback = "pairwise" if primary == "charging" else "charging"
        scheduler = MetaScheduler(schemes, primary=primary,
                                  fallback=fallback)
        cluster = Cluster.homogeneous(2)
        simulator = ClusterSimulator(cluster, scheduler, seed=SEED)
        return simulator.run([Job("HB.Sort", 10.0)])

    def test_only_the_active_schemes_charge_sticks(self):
        result = self.run_tiny(primary="pairwise")
        app = next(iter(result.apps.values()))
        # The dormant charging scheme's on_submit ran (estimators must
        # prepare), but its profiling cost was wiped by the active hook.
        assert app.feature_extraction_min == 0.0
        assert app.calibration_min == 0.0

    def test_active_charging_scheme_keeps_its_charge(self):
        result = self.run_tiny(primary="charging")
        app = next(iter(result.apps.values()))
        assert app.feature_extraction_min == 5.0
        assert app.calibration_min == 2.0
