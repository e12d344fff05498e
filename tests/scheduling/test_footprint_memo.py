"""Regression: stale footprint memos must not survive cluster changes.

The co-location dispatcher memoises predicted footprints per
``(app, data share)`` key.  A node-level dynamic event re-sizes the
allocation policy (changing every share) and can re-prepare
applications behind the estimator's back, so
``MemoryAwareCoLocationScheduler.on_cluster_change`` drops the memo
wholesale.  These tests poison the memo — every entry overwritten with
an absurd footprint — right before each change lands on churn20's
scripted outages, and prove the poison is (a) gone immediately after
the hook and (b) invisible in the final trajectory: the poisoned run
matches a clean run event for event.
"""

import pytest

from repro.cluster.events import EventKind
from repro.cluster.simulator import ClusterSimulator
from repro.scenarios import load_scenario
from repro.scheduling import make_oracle_scheduler
from repro.spark.driver import DynamicAllocationPolicy

SEED = 3


def run_churn20(poison: bool):
    spec = load_scenario("churn20")
    jobs = spec.make_mixes(n_mixes=1, seed=SEED)[0]
    cluster = spec.build_cluster()
    policy = DynamicAllocationPolicy(max_executors=len(cluster))
    scheduler = make_oracle_scheduler(allocation_policy=policy)

    changes = []
    original = scheduler.on_cluster_change

    def hooked(ctx, event):
        if poison:
            # Overwrite every live memo entry with a footprint no node
            # could ever fit, plus a marker key: if any of these values
            # were consulted after the change, no executor would place
            # and the trajectory below would diverge from the clean run.
            for key in list(scheduler._predicted_gb):
                scheduler._predicted_gb[key] = 1e9
            scheduler._predicted_gb[("poisoned", 1.0)] = 1e9
        original(ctx, event)
        changes.append(dict(scheduler._predicted_gb))

    scheduler.on_cluster_change = hooked
    simulator = ClusterSimulator(cluster, scheduler, seed=SEED,
                                 max_time_min=spec.max_time_min,
                                 faults=spec.faults)
    result = simulator.run(jobs)
    return result, changes


def test_cluster_change_empties_the_memo():
    result, changes = run_churn20(poison=True)
    # churn20 scripts outages at t=45/60min and joins at t=90/150min,
    # so the hook must have fired several times.
    assert len(changes) >= 4
    for snapshot in changes:
        assert snapshot == {}, (
            "footprint memo survived on_cluster_change: "
            f"{sorted(snapshot)[:5]}")
    kinds = [e.kind for e in result.events.events]
    assert EventKind.NODE_DOWN in kinds


def test_poisoned_memo_never_reaches_a_placement():
    clean_result, _ = run_churn20(poison=False)
    poisoned_result, changes = run_churn20(poison=True)
    assert changes
    clean = [(e.kind, e.time, getattr(e, "app", None),
              getattr(e, "node_id", None))
             for e in clean_result.events.events]
    poisoned = [(e.kind, e.time, getattr(e, "app", None),
                 getattr(e, "node_id", None))
                for e in poisoned_result.events.events]
    assert poisoned == clean, (
        "a stale (poisoned) footprint leaked into placement after a "
        "cluster change")
    for name, app in clean_result.apps.items():
        assert poisoned_result.apps[name].finish_time == app.finish_time
    assert poisoned_result.makespan_min == pytest.approx(
        clean_result.makespan_min, abs=0.0)
