"""The co-location pass walks the scheme's declared order.

``MemoryAwareCoLocationScheduler`` ranks the nodes
once per ``schedule()`` call and, after each of its own spawns, re-ranks
only the node the spawn landed on.  A hypothesis sweep drives the pass's
offers and direct spawns on a cluster with a down node, a straggler and
applications of different CPU loads.  After every step, each
application's walk must be ``features.ranked(score_batch(...))`` on a
freshly built snapshot: the same nodes, in the same order, with the same
free memory.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterSimulator
from repro.cluster.simulator import NodeFeatures
from repro.scheduling import MemoryAwareCoLocationScheduler, OracleEstimator
from repro.scheduling.colocation import _Ranking
from repro.workloads import Job

N_NODES = 6
#: CPU loads 0.12, 0.28, 0.45 and 0.52: a node's CPU can admit some of
#: these applications and refuse others.
BENCHMARKS = ("BDB.Grep", "HB.Join", "SP.Gmm", "SP.B.MatrixMult")

OPS = st.one_of(
    st.tuples(st.just("offer"), st.integers(0, len(BENCHMARKS) - 1)),
    st.tuples(st.just("spawn"), st.integers(0, len(BENCHMARKS) - 1),
              st.integers(0, N_NODES - 1), st.floats(0.5, 40.0),
              st.floats(0.1, 20.0)),
    # Leaves about ``slack`` GB free: around the ``min_free_gb`` bar.
    st.tuples(st.just("fill"), st.integers(0, len(BENCHMARKS) - 1),
              st.integers(0, N_NODES - 1), st.floats(0.0, 2.0),
              st.floats(0.1, 20.0)),
)


def assert_walks_declared_order(sim, ctx, scheduler, ranking, apps, where):
    fresh = NodeFeatures(sim)
    for app in apps:
        want = fresh.ranked(scheduler.score_batch(ctx, app, fresh))
        walk = list(ranking.walk(scheduler.estimator.cpu_load(app.name)))
        assert [slot for _, slot, _ in walk] == want.tolist(), (
            f"{where}: {app.name} walks {walk}")
        assert [free for _, _, free in walk] == fresh.free_gb[want].tolist()
        assert [position for position, _, _ in walk] == [
            [slot for _, slot in ranking.entries].index(slot)
            for _, slot, _ in walk]


@given(ops=st.lists(OPS, min_size=1, max_size=30),
       down=st.integers(0, N_NODES - 1), straggler=st.integers(0, N_NODES - 1),
       resize=st.booleans())
@settings(max_examples=60, deadline=None)
def test_walk_follows_score_batch_after_every_spawn(ops, down, straggler,
                                                    resize):
    scheduler = MemoryAwareCoLocationScheduler(OracleEstimator(),
                                               resize_to_fit=resize)
    sim = ClusterSimulator(Cluster.homogeneous(N_NODES), scheduler)
    ctx = sim.start([Job(name, 150.0, order=i)
                     for i, name in enumerate(BENCHMARKS)])
    sim.process_arrivals(ctx, 0.0)
    sim.cluster.node(down).mark_down()
    sim.cluster.node(straggler).set_speed(0.5)
    apps = sim.submission_order
    ranking = _Ranking(ctx.node_features(), sim.cluster.state,
                       scheduler.min_free_gb)
    in_flight, active = ctx.app_tallies(apps)
    assert_walks_declared_order(sim, ctx, scheduler, ranking, apps, "start")
    spawns = 0
    for op in ops:
        if op[0] == "offer":
            spawns += scheduler._place_tallied(ctx, apps, op[1], in_flight,
                                               active, ranking)
        else:
            kind, k, pick, budget, data = op
            walk = list(ranking.walk(scheduler.estimator.cpu_load(
                apps[k].name)))
            if not walk:
                continue
            position, slot, free_gb = walk[pick % len(walk)]
            if kind == "fill":
                budget = free_gb - budget
            executor = ctx.spawn_executor(apps[k], ranking.node_ids[slot],
                                          budget, data)
            if executor is None:
                continue
            ranking.spawned(position)
            in_flight[k] += executor.assigned_gb
            active[k] += 1
            spawns += 1
        assert_walks_declared_order(sim, ctx, scheduler, ranking, apps,
                                    f"after {op}")
    assert spawns == len(sim.cluster.state.active_slots())
