"""Fast rollout path: bit-for-bit parity pins and regression guards.

The fast collection configuration — ``obs_mode="features"`` (array-backed
observations), the candidate row cache, and the gemm gradient
accumulation — is only allowed to be fast: episodes must reproduce the
dataclass/row-at-a-time oracles exactly (observations, decision traces,
rewards, STP), and gradient accumulation to numerical precision.  This
file is where those contracts are pinned.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env import FeatureObservation, SchedulingEnv, rollout
from repro.env.policies import PolicyAdapter
from repro.env.train import LearnedPolicy, ReinforceLearner, TrainConfig
from repro.env.train.features import (
    CandidateRowCache,
    EpochSnapshot,
    FeatureConfig,
    JobCand,
    candidate_features,
    snapshot_from_observation,
)
from repro.env.train.learner import UPDATE_MODES, IterationStats
from repro.env.train.workers import EpisodeCollector, EpisodeSpec


def run_learned(scenario: str, seed: int, obs_mode: str, *,
                sample_seed=None):
    """One learned-policy episode; returns (steps, stp, rewards, trace)."""
    rng = (np.random.default_rng(sample_seed)
           if sample_seed is not None else None)
    policy = LearnedPolicy(record_trace=True, sample_rng=rng,
                           row_cache=(obs_mode == "features"))
    result = rollout(scenario, policy, seed=seed,
                     record_rewards=True, obs_mode=obs_mode,
                     record_utilization=(obs_mode == "dataclass"))
    return result.steps, result.stp, tuple(result.rewards), policy.trace


def assert_traces_equal(oracle, fast):
    assert len(oracle) == len(fast)
    for i, ((f_o, c_o), (f_f, c_f)) in enumerate(zip(oracle, fast)):
        assert c_o == c_f, f"decision {i}: chosen row differs"
        assert f_o.shape == f_f.shape, f"decision {i}: matrix shape differs"
        assert np.array_equal(f_o, f_f), (
            f"decision {i}: candidate feature matrices differ")


class TestFastObservationParity:
    """features + row cache == dataclass oracle, bit for bit."""

    @pytest.mark.parametrize("seed", [11, 12])
    def test_greedy_episode_is_bit_identical(self, seed):
        steps_o, stp_o, rewards_o, trace_o = run_learned(
            "churn20", seed, "dataclass")
        steps_f, stp_f, rewards_f, trace_f = run_learned(
            "churn20", seed, "features")
        assert steps_o == steps_f
        assert stp_o == stp_f
        assert rewards_o == rewards_f
        assert_traces_equal(trace_o, trace_f)

    def test_sampled_episode_is_bit_identical(self):
        sample_seed = (3, 0, 1)
        steps_o, stp_o, rewards_o, trace_o = run_learned(
            "churn20", 11, "dataclass", sample_seed=sample_seed)
        steps_f, stp_f, rewards_f, trace_f = run_learned(
            "churn20", 11, "features", sample_seed=sample_seed)
        assert steps_o == steps_f
        assert stp_o == stp_f
        assert rewards_o == rewards_f
        assert_traces_equal(trace_o, trace_f)

    def test_native_scheme_sees_no_behaviour_change(self):
        # PolicyAdapter epochs are scheme-bound — the observation is
        # pure overhead — so the fast mode must not move the episode.
        results = {}
        for obs_mode in ("dataclass", "features"):
            result = rollout("churn20", PolicyAdapter("pairwise"), seed=11,
                             obs_mode=obs_mode,
                             record_utilization=(obs_mode == "dataclass"))
            results[obs_mode] = (result.steps, result.stp)
        assert results["dataclass"] == results["features"]

    def test_features_mode_returns_feature_observations(self):
        env = SchedulingEnv("churn20", obs_mode="features",
                            record_utilization=False)
        policy = LearnedPolicy()
        policy.reset(11)
        observation = env.reset(seed=11,
                                scheduler_factory=policy.make_scheduler)
        assert isinstance(observation, FeatureObservation)
        assert isinstance(observation.snapshot, EpochSnapshot)


class TestSpeedColumnInvalidation:
    """Regression: straggler onset must invalidate cached NodeFeatures.

    ``Node.speed_factor``'s setter writes the kernel's speed column in
    place; before the fix it did not move the state version, so a
    version-cached ``NodeFeatures`` snapshot (and with it the fast
    path's ``snapshot_from_state``) kept serving the pre-onset speed —
    mega-tier learned episodes diverged between observation modes.
    """

    def test_set_speed_moves_the_state_version(self):
        env = SchedulingEnv("churn20")
        policy = LearnedPolicy()
        policy.reset(11)
        env.reset(seed=11, scheduler_factory=policy.make_scheduler)
        ctx = env._context
        before = ctx.node_features()
        node = next(n for n in ctx.cluster.nodes if n.is_up)
        slot = int(np.flatnonzero(before.node_ids == node.node_id)[0])
        assert before.speed[slot] == 1.0
        node.set_speed(0.4)
        after = ctx.node_features()
        assert after is not before, (
            "speed change must invalidate the cached NodeFeatures")
        assert after.speed[slot] == 0.4


class TestSnapshotProperties:
    """Hypothesis: the two snapshot builders agree under random draws."""

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=6, deadline=None)
    def test_feature_and_dataclass_snapshots_match_under_faults(self, seed):
        # Drive a full churn20 episode (node failures/recoveries drawn
        # from ``seed``) and, at every wake-point, build the snapshot
        # both ways: from the typed observation and from the kernel's
        # state columns.  Rows must be bit-identical.
        policy = LearnedPolicy(sample_rng=np.random.default_rng(seed))
        env = SchedulingEnv("churn20")
        policy.reset(seed)
        observation = env.reset(seed=seed,
                                scheduler_factory=policy.make_scheduler)
        done = False
        while not done:
            live_policy = policy._scheduler.allocation_policy
            oracle = snapshot_from_observation(observation, live_policy)
            fast = env._observer.build_features(
                env._context, env._now, env._epoch, live_policy).snapshot
            assert oracle.jobs == fast.jobs
            for column in ("node_ids", "ram_gb", "free_gb", "cpu_free",
                           "execs", "speed"):
                assert np.array_equal(getattr(oracle, column),
                                      getattr(fast, column)), column
            assert oracle.total_ram == fast.total_ram
            observation, _, done, _ = env.step(policy.act(observation))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_row_cache_matches_uncached_matrix_bitwise(self, data):
        # Random snapshot, random bookings: after every mutation the
        # cache-assembled candidate matrix must equal the full rebuild
        # bit for bit (the row-oracle rule).
        n_nodes = data.draw(st.integers(min_value=1, max_value=5))
        floats = st.floats(min_value=0.0, max_value=128.0,
                           allow_nan=False, allow_infinity=False)
        ram = np.array(data.draw(st.lists(
            st.floats(min_value=1.0, max_value=128.0, allow_nan=False),
            min_size=n_nodes, max_size=n_nodes)))
        free = np.minimum(np.array(data.draw(st.lists(
            floats, min_size=n_nodes, max_size=n_nodes))), ram)
        snapshot = EpochSnapshot(
            jobs=[], node_ids=np.arange(n_nodes, dtype=np.int64),
            ram_gb=ram, free_gb=free.copy(),
            cpu_free=np.array(data.draw(st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=n_nodes, max_size=n_nodes))),
            execs=np.array(data.draw(st.lists(
                st.integers(min_value=0, max_value=4),
                min_size=n_nodes, max_size=n_nodes)), dtype=np.int64),
            speed=np.array(data.draw(st.lists(
                st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
                min_size=n_nodes, max_size=n_nodes))))
        job = JobCand(
            name="j", input_gb=data.draw(
                st.floats(min_value=1.0, max_value=500.0, allow_nan=False)),
            unassigned_gb=data.draw(
                st.floats(min_value=0.0, max_value=500.0, allow_nan=False)),
            cpu_load=data.draw(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
            active=data.draw(st.integers(min_value=0, max_value=8)),
            desired=data.draw(st.integers(min_value=0, max_value=8)))
        config = FeatureConfig()
        cache = CandidateRowCache(snapshot, config)
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            expected = candidate_features(snapshot, job, config)
            got = cache.candidate_features(job)
            for want, have in zip(expected, got):
                assert want.dtype == have.dtype
                assert np.array_equal(want, have)
            slot = data.draw(st.integers(min_value=0, max_value=n_nodes - 1))
            snapshot.book(slot,
                          budget_gb=data.draw(st.floats(
                              min_value=0.0, max_value=float(
                                  max(snapshot.free_gb[slot], 0.0)),
                              allow_nan=False)),
                          cpu_load=data.draw(st.floats(
                              min_value=0.0, max_value=0.5,
                              allow_nan=False)))
            cache.invalidate(slot)


class _BrokenPool:
    """Stand-in for a ProcessPoolExecutor whose workers have died."""

    def __init__(self):
        self.shutdowns = 0

    def submit(self, fn, *args):
        from concurrent.futures.process import BrokenProcessPool
        raise BrokenProcessPool("a child process terminated abruptly")

    def shutdown(self):
        self.shutdowns += 1


class TestCollectorFaultHandling:
    def test_broken_pool_raises_actionable_error_and_closes(self):
        collector = EpisodeCollector("churn20", workers=2)
        learner = ReinforceLearner("churn20", TrainConfig(
            iters=1, episodes_per_iter=1, seed=0, hidden=(8,)))
        model = learner.model
        broken = _BrokenPool()
        collector._pool = broken
        collector._armed_blob = pickle.dumps(
            model, protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(RuntimeError, match="workers=1 to collect inline"):
            collector.collect(model, [EpisodeSpec(11, (0, 0, 0))])
        assert collector._pool is None, "broken pool must be abandoned"
        assert broken.shutdowns == 1

    def test_weights_rearm_only_when_they_change(self):
        collector = EpisodeCollector("churn20", workers=2)
        learner = ReinforceLearner("churn20", TrainConfig(
            iters=1, episodes_per_iter=1, seed=0, hidden=(8,)))
        model = learner.model
        pool_a = collector._arm_pool(model)
        assert collector._arm_pool(model) is pool_a, (
            "unchanged weights must reuse the armed pool")
        model.weights[0][0, 0] += 1.0
        pool_b = collector._arm_pool(model)
        assert pool_b is not pool_a, "changed weights must re-arm the pool"
        collector.close()


class TestGemmUpdate:
    """The batched backward pass against the row-at-a-time oracle."""

    def test_gemm_and_rows_agree_to_numerical_precision(self):
        # Not bit-identical (BLAS matmuls are not bit-stable across
        # batching — the footprint_batch rule), so the contract is
        # allclose on the final weights of a short run.
        results = {}
        for update_mode in UPDATE_MODES:
            learner = ReinforceLearner("churn20", TrainConfig(
                iters=2, episodes_per_iter=3, seed=5, hidden=(16,),
                eval_every=1, update_mode=update_mode))
            learner.train()
            results[update_mode] = learner.model
        for rows_w, gemm_w in zip(results["rows"].weights,
                                  results["gemm"].weights):
            np.testing.assert_allclose(gemm_w, rows_w, rtol=1e-7, atol=1e-9)
        for rows_b, gemm_b in zip(results["rows"].biases,
                                  results["gemm"].biases):
            np.testing.assert_allclose(gemm_b, rows_b, rtol=1e-7, atol=1e-9)

    def test_config_round_trips_and_validates(self):
        config = TrainConfig(update_mode="rows", obs_mode="dataclass")
        assert TrainConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ValueError):
            TrainConfig(update_mode="nope")
        with pytest.raises(ValueError):
            TrainConfig(obs_mode="nope")

    def test_legacy_payloads_pin_the_rows_oracle(self):
        # Payloads written before update_mode existed were produced by
        # the row-at-a-time loop; re-deriving them must keep using it so
        # historical checkpoints reproduce bit-for-bit.
        payload = TrainConfig().to_dict()
        del payload["update_mode"]
        assert TrainConfig.from_dict(payload).update_mode == "rows"

    def test_iteration_timings_do_not_break_curve_equality(self):
        a = IterationStats(iteration=1, mean_return=1.0, min_return=0.5,
                           max_return=1.5, mean_entropy=0.1, grad_norm=0.2,
                           lr=0.01, entropy_beta=0.0,
                           collect_s=1.0, update_s=2.0)
        b = IterationStats(iteration=1, mean_return=1.0, min_return=0.5,
                           max_return=1.5, mean_entropy=0.1, grad_norm=0.2,
                           lr=0.01, entropy_beta=0.0,
                           collect_s=9.0, eval_s=3.0)
        assert a == b, "timing fields are observability, not identity"
