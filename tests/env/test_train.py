"""Tests for the training subsystem: learner, checkpoints, the scheme.

The expensive guarantees (engine parity of the committed checkpoint
across every golden scenario) already ride in the invariant sweep and
the golden traces — ``learned`` is registered, so those suites exercise
it automatically.  This file covers the training loop
itself: convergence on a small budget, checkpoint round-trips,
end-to-end determinism, and the env/native serving parity.
"""

import math

import pytest

from repro.api import ExperimentPlan, Session
from repro.env import GreedyPolicy, RandomPolicy, rollout
from repro.env.train import (
    DEFAULT_CHECKPOINT,
    LearnedPolicy,
    PolicyNetwork,
    ReinforceLearner,
    TrainConfig,
    TrainResult,
)

#: Small-budget config used by the convergence and determinism tests:
#: sharpening from the start (negative entropy coefficient) so the
#: argmax eval moves within a handful of iterations.
SMOKE = dict(iters=4, episodes_per_iter=4, seed=3, hidden=(16,),
             lr=0.05, lr_min=0.02, entropy_beta=-0.02,
             entropy_beta_min=-0.08, eval_every=1)


class TestLearnerConvergence:
    def test_smoke_training_improves_on_untrained_eval(self, tmp_path):
        learner = ReinforceLearner("churn20", TrainConfig(**SMOKE))
        untrained = learner.evaluate()
        result = learner.train(checkpoint=tmp_path / "smoke.npz")
        assert len(result.curve) == SMOKE["iters"]
        assert result.best_eval_stp > untrained, (
            "training must beat the iteration-0 (untrained) greedy eval")
        # The learner keeps the best iterate, so the in-memory model
        # now reproduces best_eval_stp exactly.
        assert learner.evaluate() == pytest.approx(result.best_eval_stp)

    def test_train_result_round_trips_as_json(self, tmp_path):
        learner = ReinforceLearner("L1", TrainConfig(
            iters=2, episodes_per_iter=2, seed=0, hidden=(8,), eval_every=1))
        result = learner.train(checkpoint=tmp_path / "l1.npz")
        path = tmp_path / "curve.json"
        result.to_json(path=path)
        assert TrainResult.from_json(path) == result


class TestCheckpointRoundTrip:
    def test_save_load_is_bit_identical(self, tmp_path):
        model = PolicyNetwork(hidden=(16, 8), seed=5,
                              metadata={"scenario": "L1"})
        path = model.save(tmp_path / "model.npz")
        clone = PolicyNetwork.load(path)
        assert clone.parameters_equal(model)
        assert clone.hidden == model.hidden
        assert clone.metadata == model.metadata
        # Save the clone again: identical parameters both directions.
        reclone = PolicyNetwork.load(clone.save(tmp_path / "clone.npz"))
        assert reclone.parameters_equal(model)

    def test_loaded_checkpoint_serves_identical_actions(self, tmp_path):
        model = PolicyNetwork(hidden=(16,), seed=5)
        path = model.save(tmp_path / "model.npz")
        original = rollout("L1", LearnedPolicy(model=model), seed=7)
        served = rollout("L1", LearnedPolicy(path), seed=7)
        assert served == original

    def test_format_and_shape_validation(self, tmp_path):
        model = PolicyNetwork(hidden=(8,), seed=0)
        path = model.save(tmp_path / "model.npz")
        loaded = PolicyNetwork.load(path)
        loaded.hidden = (8, 8)  # now claims a layer the file lacks
        with pytest.raises(KeyError):
            PolicyNetwork.load(loaded.save(tmp_path / "lied.npz"))


class TestDeterminism:
    def test_same_seed_reproduces_curve_and_checkpoint(self, tmp_path):
        first = ReinforceLearner("churn20", TrainConfig(**SMOKE))
        second = ReinforceLearner("churn20", TrainConfig(**SMOKE))
        result_a = first.train(checkpoint=tmp_path / "a.npz")
        result_b = second.train(checkpoint=tmp_path / "b.npz")
        assert result_a.curve == result_b.curve
        assert first.model.parameters_equal(second.model)
        assert PolicyNetwork.load(tmp_path / "a.npz").parameters_equal(
            PolicyNetwork.load(tmp_path / "b.npz"))

    def test_worker_count_does_not_change_the_curve(self, tmp_path):
        config = dict(SMOKE, iters=2, episodes_per_iter=2)
        inline = ReinforceLearner("L1", TrainConfig(**config))
        pooled = ReinforceLearner("L1", TrainConfig(**config, workers=2))
        assert (inline.train().curve == pooled.train().curve)


class TestLearnedSchemeIntegration:
    def test_default_checkpoint_is_committed(self):
        assert DEFAULT_CHECKPOINT.exists(), (
            "the packaged default checkpoint must ship with the repo")
        model = PolicyNetwork.load(DEFAULT_CHECKPOINT)
        assert model.metadata.get("scenario") == "churn20"

    def test_learned_runs_in_a_grid_next_to_pairwise(self):
        plan = ExperimentPlan(schemes=("pairwise", "learned"),
                              scenarios=("L1",), n_mixes=1, seed=7)
        with Session() as session:
            results = session.run(plan)
        by_scheme = {r.scheme: r for r in results}
        assert set(by_scheme) == {"pairwise", "learned"}
        assert by_scheme["learned"].stp_geomean > 0

    def test_env_serving_matches_native_scheme(self):
        from types import SimpleNamespace

        from repro.cluster.simulator import ClusterSimulator
        from repro.metrics.throughput import evaluate_schedule
        from repro.scenarios import load_scenario
        from repro.scheduling.registry import build_scheduler
        from repro.spark.driver import DynamicAllocationPolicy

        spec = load_scenario("L1")
        jobs = spec.make_mixes(n_mixes=1, seed=7)[0]
        cluster = spec.build_cluster()
        policy = DynamicAllocationPolicy(max_executors=len(cluster))
        scheduler = build_scheduler("learned", SimpleNamespace(),
                                    allocation_policy=policy)
        simulator = ClusterSimulator(cluster, scheduler, seed=7,
                                     max_time_min=spec.max_time_min,
                                     faults=spec.faults)
        native = evaluate_schedule(simulator.run(jobs), jobs, policy)
        episode = rollout("L1", LearnedPolicy(), seed=7)
        assert episode.stp == native.stp


class TestTrainConfigValidation:
    """A bad hyperparameter fails at construction, naming its field."""

    @pytest.mark.parametrize("field, value", [
        ("lr", math.nan),
        ("lr_min", math.inf),
        ("entropy_beta", math.nan),
        ("entropy_beta_min", True),
        ("grad_clip", math.nan),
        ("grad_clip", -1.0),
        ("iters", True),
        ("episodes_per_iter", 2.0),
        ("eval_every", True),
        ("max_steps", 0),
        ("max_steps", 1.5),
        ("workers", 0),
        ("workers", True),
        ("seed", 1.5),
        ("eval_seed", True),
        ("episode_seeds", (11, 12.5)),
        ("episode_seeds", ()),
        ("hidden", (0,)),
        ("hidden", (32, -1)),
        ("hidden", (32.0,)),
        ("reward", "nope"),
    ])
    def test_bad_value_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
        payload = TrainConfig().to_dict()
        payload[field] = value
        with pytest.raises(ValueError, match=field):
            TrainConfig.from_dict(payload)

    def test_committed_curve_still_loads(self):
        curve = TrainResult.from_json(
            DEFAULT_CHECKPOINT.with_name("default_curve.json"))
        assert curve.config.iters == len(curve.curve) == 150
        assert curve.config.hidden == (32, 32)


class TestBaselineResetContracts:
    def test_random_policy_reset_is_idempotent_per_seed(self):
        policy = RandomPolicy(seed=3)
        policy.reset(11)
        once = policy._rng.bit_generator.state
        policy.reset(11)
        policy.reset(11)  # re-seeding again must not advance the stream
        assert policy._rng.bit_generator.state == once
        # And the action stream depends only on the seed, not history.
        episode_a = rollout("L1", policy, seed=11)
        episode_b = rollout("L1", policy, seed=11)
        assert episode_a == episode_b

    def test_greedy_policy_reset_is_a_documented_noop(self):
        policy = GreedyPolicy()
        before = vars(policy).copy()
        policy.reset(0)
        policy.reset(1)
        assert vars(policy) == before
