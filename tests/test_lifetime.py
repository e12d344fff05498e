"""A finished run is freed by reference counting alone.

The cluster state refers to its nodes and applications weakly, the
end-of-run hook unbinds the engine and the fault controller from the
simulator, and the meta scheme's context monitor refers to the bus
weakly, so no reference cycle ties a completed run's object graph
together.  Each check runs the path once to warm first-use caches, then
runs it again with the cyclic collector off: a full collection afterwards
must find nothing.  A run that ends with executors still placed (an
abandoned episode, a horizon cut) evicts them at the end-of-run hook, so
it leaves nothing either.  Training must hold one batch of decision logs
at a time.
"""

import gc
import weakref

import pytest

from repro.api import ExperimentPlan, Session
from repro.cluster import Cluster, ClusterSimulator
from repro.env import GreedyPolicy, SchedulingEnv, make_policy, rollout
from repro.env.train import LearnedPolicy, ReinforceLearner, TrainConfig
from repro.env.train.scheme import load_policy_model
from repro.env.train.workers import EpisodeCollector, EpisodeSpec, collect_episode
from repro.scheduling import PairwiseScheduler
from repro.scheduling.registry import scheme_names
from repro.workloads import Job

SCENARIOS = ("L5", "churn20", "regime_shift")


def cyclic_garbage(run) -> int:
    """Objects the cyclic collector finds after a warmed-up ``run()``."""
    run()
    # Start from an empty heap, whatever garbage earlier code left.
    while gc.collect():
        pass
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def session():
    with Session() as shared:
        yield shared


@pytest.mark.parametrize("scheme", scheme_names())
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_stream_cell_leaves_no_cyclic_garbage(session, scenario, scheme):
    plan = ExperimentPlan(schemes=(scheme,), scenarios=(scenario,),
                          n_mixes=1, seed=11)
    assert cyclic_garbage(lambda: list(session.stream(plan))) == 0


def test_training_episode_leaves_no_cyclic_garbage():
    model = load_policy_model()
    spec = EpisodeSpec(episode_seed=11, sample_seed=(11, 0, 0))
    assert cyclic_garbage(
        lambda: collect_episode("churn20", model, spec)) == 0


def test_learned_rollout_leaves_no_cyclic_garbage():
    policy = LearnedPolicy(model=load_policy_model())
    assert cyclic_garbage(lambda: rollout("churn20", policy, seed=11)) == 0


def test_native_adapter_rollout_leaves_no_cyclic_garbage(session):
    policy = make_policy("pairwise", suite=session.suite)
    assert cyclic_garbage(lambda: rollout("churn20", policy, seed=11)) == 0


def test_closed_episode_leaves_no_cyclic_garbage():
    def run():
        env = SchedulingEnv("churn20")
        policy = GreedyPolicy()
        policy.reset(11)
        observation = env.reset(seed=11,
                                scheduler_factory=policy.make_scheduler)
        for _ in range(30):
            observation, _, done, _ = env.step(policy.act(observation))
        assert not done, "the episode must be abandoned with work placed"
        env.close()

    assert cyclic_garbage(run) == 0


def truncated_pairwise_run():
    """Two 200 GB sorts on four nodes, cut at five minutes."""
    sim = ClusterSimulator(Cluster.homogeneous(4), PairwiseScheduler(),
                           max_time_min=5)
    return sim.run([Job("HB.Sort", 200.0, order=0),
                    Job("HB.Sort", 200.0, order=1)])


def test_truncated_run_leaves_no_cyclic_garbage():
    assert cyclic_garbage(truncated_pairwise_run) == 0


def test_end_of_run_eviction_keeps_each_apps_progress(monkeypatch):
    detach = ClusterSimulator.detach_run_subscribers
    before = {}

    def spy(sim):
        before.update((name, (app.processed_gb, app.remaining_gb))
                      for name, app in sim.apps.items())
        detach(sim)

    monkeypatch.setattr(ClusterSimulator, "detach_run_subscribers", spy)
    result = truncated_pairwise_run()
    placed = [executor for app in result.apps.values()
              for executor in app.executors if executor.is_active]
    assert placed, "the cut must leave executors placed"
    assert all(executor._node is None and executor._state is None
               for executor in placed)
    assert {name: (app.processed_gb, app.remaining_gb)
            for name, app in result.apps.items()} == before


def test_abandoned_start_is_freed_by_one_collection():
    """Without the end-of-run hook, a placed executor and its node form a
    cycle; nothing hides the nodes from the collector, so one collection
    frees the whole run."""
    def run():
        sim = ClusterSimulator(Cluster.homogeneous(6), PairwiseScheduler())
        ctx = sim.start([Job("HB.Sort", 200.0, order=0),
                         Job("BDB.Grep", 100.0, order=1)])
        sim.process_arrivals(ctx, 0.0)
        apps = sim.submission_order
        for slot in range(4):
            assert ctx.spawn_executor(apps[slot % 2], slot, 10.0, 5.0,
                                      enforce_admission=False)

    run()
    while gc.collect():
        pass
    gc.disable()
    try:
        run()
        assert gc.collect() > 0, "the abandoned run must hold a cycle"
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_training_holds_one_batch_at_a_time(monkeypatch):
    """Iteration i's trajectories are dead when iteration i+1 collects.

    The weak references go to each decision log's own buffers: matrices
    built while iterating a log die at once, so they would prove nothing.
    """
    collect = EpisodeCollector.collect
    previous: list[weakref.ref] = []
    batches = 0
    decisions = 0

    def spy(self, model, specs):
        nonlocal batches, decisions
        assert [ref for ref in previous if ref() is not None] == [], (
            "the previous batch is still alive")
        trajectories = collect(self, model, specs)
        previous[:] = [weakref.ref(t) for t in trajectories]
        previous.extend(weakref.ref(buffer) for t in trajectories
                        for buffer in (t.decisions.rows, t.decisions.ids))
        decisions += sum(len(t.decisions) for t in trajectories)
        batches += 1
        return trajectories

    monkeypatch.setattr(EpisodeCollector, "collect", spy)
    learner = ReinforceLearner("L1", TrainConfig(
        iters=3, episodes_per_iter=2, seed=0, hidden=(8,), eval_every=1))
    # With the collector off, only reference counting can free a batch.
    gc.disable()
    try:
        learner.train()
    finally:
        gc.enable()
    assert batches == 3
    assert decisions > 0, "the batches recorded no decisions"
