"""Spawn-delta ``NodeFeatures`` refresh and the per-epoch app tallies.

``SchedulingContext.node_features`` builds a new snapshot from the old
one plus the spawns made through the context when those spawns are the
only state changes since the old snapshot; anything else rebuilds every
column.  A hypothesis sweep drives random spawns, reads, node failures,
recoveries, stragglers and finishes, and checks each read against a
fresh ``NodeFeatures(sim)`` column for column, and that no snapshot
handed out earlier ever changes.

The two regression tests pin the reasons ``app_tallies`` is never cached
against the state version: an arrival and an epoch advance both change
what the tallies must report without moving the version.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSimulator
from repro.cluster.simulator import NodeFeatures
from repro.spark.executor import ExecutorState
from repro.workloads import Job

COLUMNS = ("version", "node_ids", "ram_gb", "free_gb", "reserved_cpu", "up",
           "n_active", "speed", "n_apps", "_node_of", "_app_of")
N_NODES = 5
BENCHMARKS = ("HB.Sort", "HB.Join", "BDB.Grep")


class Idle:
    """Places nothing: the tests spawn through the context themselves."""

    def schedule(self, ctx):
        pass


def columns(features) -> dict:
    return {name: np.array(getattr(features, name), copy=True)
            for name in COLUMNS}


def assert_columns_equal(got: dict, want: dict, where: str) -> None:
    for name in COLUMNS:
        assert got[name].dtype == want[name].dtype, f"{where}: {name} dtype"
        np.testing.assert_array_equal(got[name], want[name],
                                      err_msg=f"{where}: {name}")


def walked(app) -> tuple[float, int]:
    """In-flight GB and active count from the executor list, added left to
    right as ``SparkApplication.remaining_gb`` adds."""
    in_flight = 0.0
    for e in app.executors:
        if e.state is ExecutorState.RUNNING:
            in_flight += e.remaining_gb
    return in_flight, len(app.active_executors)


def assert_tallies_exact(sim, ctx) -> None:
    apps = sim.submission_order
    in_flight, active = ctx.app_tallies(apps)
    assert list(zip(in_flight, active)) == [walked(app) for app in apps]


def started(jobs, step_mode="event"):
    cluster = Cluster.homogeneous(N_NODES)
    sim = ClusterSimulator(cluster, Idle(), step_mode=step_mode)
    ctx = sim.start(jobs)
    sim.process_arrivals(ctx, 0.0)
    return sim, ctx


def kill_node(sim, node) -> None:
    """Fail ``node`` the way the fault controller does."""
    for executor in node.active_executors():
        lost = executor.interrupt()
        sim.apps[executor.app_name].return_unassigned(lost)
        node.remove_executor(executor)
    node.mark_down()


def finish_one(node) -> None:
    """Complete the oldest active executor on ``node``, as the engine does."""
    active = node.active_executors()
    if active:
        executor = active[0]
        executor.processed_gb = executor.assigned_gb
        executor.state = ExecutorState.FINISHED
        node.remove_executor(executor)


OPS = st.one_of(
    st.tuples(st.just("spawn"), st.integers(0, len(BENCHMARKS) - 1),
              st.integers(0, N_NODES - 1), st.floats(0.5, 30.0),
              st.floats(0.1, 40.0), st.booleans()),
    st.just(("read",)),
    st.tuples(st.just("down"), st.integers(0, N_NODES - 1)),
    st.tuples(st.just("up"), st.integers(0, N_NODES - 1)),
    st.tuples(st.just("straggle"), st.integers(0, N_NODES - 1),
              st.sampled_from((0.5, 0.25, 1.0))),
    st.tuples(st.just("finish"), st.integers(0, N_NODES - 1)),
)


@given(st.lists(OPS, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_refreshed_snapshot_equals_a_fresh_build(ops):
    jobs = [Job(name, 150.0, order=i) for i, name in enumerate(BENCHMARKS)]
    sim, ctx = started(jobs)
    apps = sim.submission_order
    held: list[tuple[NodeFeatures, dict]] = []
    for op in [*ops, ("read",)]:
        kind = op[0]
        if kind == "spawn":
            _, app_i, node_i, budget, data, enforce = op
            ctx.spawn_executor(apps[app_i], node_i, budget, data,
                               enforce_admission=enforce)
        elif kind == "down":
            kill_node(sim, sim.cluster.node(op[1]))
        elif kind == "up":
            sim.cluster.node(op[1]).mark_up()
        elif kind == "straggle":
            sim.cluster.node(op[1]).set_speed(op[2])
        elif kind == "finish":
            finish_one(sim.cluster.node(op[1]))
        else:
            features = ctx.node_features()
            got = columns(features)
            assert_columns_equal(got, columns(NodeFeatures(sim)), "read")
            assert ctx.node_features() is features
            for app in apps:
                np.testing.assert_array_equal(
                    features.hosts_app(app),
                    [any(e.app_name == app.name for e in node.active_executors())
                     for node in sim.cluster.nodes])
            held.append((features, got))
            assert_tallies_exact(sim, ctx)
        for snapshot, frozen in held:
            assert_columns_equal(columns(snapshot), frozen, "held snapshot")


def test_spawns_alone_refresh_only_the_touched_rows(monkeypatch):
    jobs = [Job(name, 150.0, order=i) for i, name in enumerate(BENCHMARKS)]
    sim, ctx = started(jobs)
    apps = sim.submission_order
    calls = []
    with_spawns = NodeFeatures.with_spawns

    def spy(self, spawned):
        calls.append(list(spawned))
        return with_spawns(self, spawned)

    monkeypatch.setattr(NodeFeatures, "with_spawns", spy)
    first = ctx.node_features()
    before = columns(first)
    for app_i, node_id in ((0, 2), (1, 2), (0, 4)):
        assert ctx.spawn_executor(apps[app_i], node_id, 10.0, 20.0,
                                  enforce_admission=False) is not None
    second = ctx.node_features()
    assert calls == [[(2, 0), (2, 1), (4, 0)]]
    assert second is not first
    assert_columns_equal(columns(first), before, "first snapshot")
    assert_columns_equal(columns(second), columns(NodeFeatures(sim)), "refresh")
    assert second.n_apps.tolist() == [0, 0, 2, 0, 1]
    # A change that is not a spawn through the context rebuilds in full.
    sim.cluster.node(4).set_speed(0.5)
    assert ctx.spawn_executor(apps[2], 1, 10.0, 20.0,
                              enforce_admission=False) is not None
    third = ctx.node_features()
    assert len(calls) == 1
    assert_columns_equal(columns(third), columns(NodeFeatures(sim)), "rebuild")


def test_tallies_cover_an_app_that_arrives_after_the_snapshot():
    jobs = [Job("HB.Sort", 150.0, order=0),
            Job("HB.Join", 150.0, submit_time_min=1.0, order=1)]
    sim, ctx = started(jobs)
    first = sim.submission_order[0]
    assert ctx.spawn_executor(first, 0, 10.0, 20.0) is not None
    features = ctx.node_features()
    version = sim.cluster.state.version
    sim.process_arrivals(ctx, 1.0)
    late = sim.submission_order[1]
    # The trap: an arrival changes the app set but not the state version,
    # so the node snapshot is (rightly) reused while tallies must not be.
    assert sim.cluster.state.version == version
    assert ctx.node_features() is features
    assert ctx.app_tallies([late]) == ([0.0], [0])
    assert_tallies_exact(sim, ctx)
    assert ctx.spawn_executor(late, 0, 10.0, 20.0) is not None
    refreshed = ctx.node_features()
    assert_columns_equal(columns(refreshed), columns(NodeFeatures(sim)),
                         "after the late spawn")
    assert refreshed.hosts_app(late).tolist() == [True] + [False] * (N_NODES - 1)
    assert_tallies_exact(sim, ctx)


@pytest.mark.parametrize("step_mode", ["event", "fixed"])
def test_tallies_follow_progress_that_moves_no_version(step_mode):
    jobs = [Job("HB.Sort", 400.0, order=0), Job("BDB.Grep", 400.0, order=1)]
    cluster = Cluster.homogeneous(N_NODES)
    sim = ClusterSimulator(cluster, Idle(), step_mode=step_mode)
    ctx = sim.start(jobs)
    epochs = sim.engine.epochs(ctx)
    try:
        next(epochs)
        for node_id, app in enumerate(sim.submission_order):
            assert ctx.spawn_executor(app, node_id, 30.0, 150.0) is not None
        tallies = ctx.app_tallies(sim.submission_order)
        version = sim.cluster.state.version
        next(epochs)
        # The trap: the engine advanced processed_gb in place and nothing
        # finished, so the version stands still while the data shrank.
        assert sim.cluster.state.version == version
        assert ctx.app_tallies(sim.submission_order) != tallies
        assert_tallies_exact(sim, ctx)
    finally:
        epochs.close()
