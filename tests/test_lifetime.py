"""A finished run is freed by reference counting alone.

The cluster state refers to its nodes and applications weakly, the
end-of-run hook unbinds the engine and the fault controller from the
simulator, and the meta scheme's context monitor refers to the bus
weakly, so no reference cycle ties a completed run's object graph
together.  Each check runs the path once to warm first-use caches, then
runs it again with the cyclic collector off: a full collection afterwards
must find nothing.  Training must hold one batch of decision matrices at
a time.
"""

import gc
import weakref

import pytest

from repro.api import ExperimentPlan, Session
from repro.env import make_policy, rollout
from repro.env.train import LearnedPolicy, ReinforceLearner, TrainConfig
from repro.env.train.scheme import load_policy_model
from repro.env.train.workers import EpisodeCollector, EpisodeSpec, collect_episode
from repro.scheduling.registry import scheme_names

SCENARIOS = ("L5", "churn20", "regime_shift")


def cyclic_garbage(run) -> int:
    """Objects the cyclic collector finds after a warmed-up ``run()``."""
    run()
    # Start from an empty heap.  Garbage left by earlier code can need
    # more than one pass: a cycle whose members are also referenced from
    # a numpy object array (which the collector does not traverse) is
    # found only after the pass that frees the array's owner.
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


def test_training_holds_one_batch_at_a_time(monkeypatch):
    """Iteration i's trajectories are dead when iteration i+1 collects."""
    collect = EpisodeCollector.collect
    previous: list[weakref.ref] = []
    batches = 0

    def spy(self, model, specs):
        nonlocal batches
        assert [ref for ref in previous if ref() is not None] == [], (
            "the previous batch is still alive")
        trajectories = collect(self, model, specs)
        previous[:] = [weakref.ref(t) for t in trajectories]
        previous.extend(weakref.ref(features) for t in trajectories
                        for features, _ in t.decisions)
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
    assert len(previous) > 2, "the batch recorded no decisions"
