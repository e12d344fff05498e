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
from repro.env.train import (
    LearnedPolicy,
    PolicyNetwork,
    ReinforceLearner,
    TrainConfig,
    scheme,
)
from repro.env.train.features import (
    N_FEATURES,
    CandidateRowCache,
    EpochSnapshot,
    FeatureConfig,
    JobCand,
    candidate_features,
    snapshot_from_observation,
)
from repro.env.train.learner import UPDATE_MODES, IterationStats
from repro.env.train.workers import (
    EpisodeCollector,
    EpisodeSpec,
    collect_episode,
)


def run_learned(scenario: str, seed: int, obs_mode: str, *,
                sample_seed=None, model=None):
    """One learned-policy episode; returns (episode document, trace).

    The document is ``EpisodeResult.to_dict()``: steps, rewards, STP,
    ANTT, makespan, utilisation and every per-job record.
    """
    rng = (np.random.default_rng(sample_seed)
           if sample_seed is not None else None)
    policy = LearnedPolicy(model=model, record_trace=True, sample_rng=rng,
                           row_cache=(obs_mode == "features"))
    result = rollout(scenario, policy, seed=seed,
                     record_rewards=True, obs_mode=obs_mode)
    return result.to_dict(), policy.trace


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
        episode_o, trace_o = run_learned("churn20", seed, "dataclass")
        episode_f, trace_f = run_learned("churn20", seed, "features")
        assert episode_o == episode_f
        assert_traces_equal(trace_o, trace_f)

    def test_sampled_episode_is_bit_identical(self, monkeypatch):
        # The committed checkpoint, then an untrained network.  The
        # untrained one starves jobs now and then, so the anti-starvation
        # fallback books a node outside the policy's choices; the row
        # cache must refresh that node like any other.
        fallbacks = []
        placement = scheme._anti_starvation_placement

        def counted(*args):
            booked = placement(*args)
            if booked is not None:
                fallbacks.append(booked)
            return booked

        monkeypatch.setattr(scheme, "_anti_starvation_placement", counted)
        for model, sample_seed in ((None, (3, 0, 1)),
                                   (PolicyNetwork(seed=0), (3, 0, 16))):
            fallbacks.clear()
            episode_o, trace_o = run_learned(
                "churn20", 11, "dataclass", sample_seed=sample_seed,
                model=model)
            oracle_fallbacks = len(fallbacks)
            episode_f, trace_f = run_learned(
                "churn20", 11, "features", sample_seed=sample_seed,
                model=model)
            assert len(fallbacks) == 2 * oracle_fallbacks
            if model is not None:
                assert oracle_fallbacks, "the case must exercise the fallback"
            assert episode_o == episode_f
            assert_traces_equal(trace_o, trace_f)

    def test_native_scheme_sees_no_behaviour_change(self):
        # PolicyAdapter epochs are scheme-bound — the observation is
        # pure overhead — so the fast mode must not move the episode.
        results = {}
        for obs_mode in ("dataclass", "features"):
            result = rollout("churn20", PolicyAdapter("pairwise"), seed=11,
                             obs_mode=obs_mode)
            results[obs_mode] = result.to_dict()
        assert results["dataclass"] == results["features"]

    def test_features_mode_returns_feature_observations(self):
        env = SchedulingEnv("churn20", obs_mode="features")
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


def reference_accumulate_gemm(model, trajectories, episode_advantages, beta,
                              chunk_rows):
    """The gemm accumulation as first written, one fresh array per op.

    Same chunks, same BLAS operand shapes; the learner's version writes
    into reused buffers and in place, and must return these bits.
    """
    grads = model.zero_grads()
    decisions, choices, advantages = [], [], []
    for advantage, trajectory in zip(episode_advantages, trajectories):
        for features, choice in trajectory.decisions:
            decisions.append(features)
            choices.append(choice)
            advantages.append(float(advantage))
    weights, biases = model.weights, model.biases
    entropy_sum = 0.0
    start = 0
    while start < len(decisions):
        stop = start
        rows = 0
        while stop < len(decisions) and (
                rows == 0 or rows + decisions[stop].shape[0] <= chunk_rows):
            rows += decisions[stop].shape[0]
            stop += 1
        chunk = decisions[start:stop]
        lengths = np.array([f.shape[0] for f in chunk], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        adv = np.asarray(advantages[start:stop], dtype=np.float64)
        choice_pos = offsets + np.asarray(choices[start:stop], dtype=np.int64)
        stacked = np.concatenate(chunk, axis=0)
        acts = [stacked]
        h = stacked
        for w, b in zip(weights[:-1], biases[:-1]):
            z = h @ w
            z += b
            np.tanh(z, out=z)
            h = z
            acts.append(h)
        logits = h @ weights[-1][:, 0]
        logits += biases[-1][0]
        rep = np.repeat(np.arange(len(chunk)), lengths)
        shifted = logits
        shifted -= np.maximum.reduceat(logits, offsets)[rep]
        probs = np.exp(shifted)
        seg_sum = np.add.reduceat(probs, offsets)
        probs /= seg_sum[rep]
        logp = shifted
        logp -= np.log(seg_sum)[rep]
        entropy = -np.add.reduceat(probs * logp, offsets)
        entropy_sum += float(entropy.sum())
        dlogits = adv[rep] * probs
        dlogits[choice_pos] -= adv
        entropy_term = logp
        entropy_term += entropy[rep]
        entropy_term *= probs
        entropy_term *= beta
        dlogits += entropy_term
        delta = dlogits[:, None]
        for layer in range(len(weights) - 1, -1, -1):
            a = acts[layer]
            dw, db = grads[layer]
            dw += a.T @ delta
            db += delta.sum(axis=0)
            if layer > 0:
                next_delta = delta @ weights[layer].T
                next_delta *= 1.0 - a * a
                delta = next_delta
        start = stop
    return entropy_sum / len(decisions), len(decisions), grads


@pytest.fixture(scope="module")
def churn20_iteration():
    """A learner and the trajectories of its first churn20 iteration."""
    config = TrainConfig(iters=1, seed=11)
    learner = ReinforceLearner("churn20", config)
    trajectories = [
        collect_episode(learner.spec, learner.model,
                        EpisodeSpec(seed, (config.seed, 0, episode)))
        for episode, seed in enumerate(config.resolved_episode_seeds())]
    return learner, trajectories


class TestGemmUpdateBits:
    """The gemm accumulation keeps the bits of its allocate-per-op form."""

    @pytest.mark.parametrize("chunk_rows", [None, 50],
                             ids=["default_chunks", "one_decision_chunks"])
    @pytest.mark.parametrize("beta", [0.005, -0.08])
    def test_gradients_and_entropy_are_bit_identical(self, churn20_iteration,
                                                     monkeypatch, beta,
                                                     chunk_rows):
        learner, trajectories = churn20_iteration
        if chunk_rows is not None:
            # Most decisions exceed 50 rows, so each is a chunk of its own.
            monkeypatch.setattr(learner, "GEMM_CHUNK_ROWS", chunk_rows)
        rows = sum(f.shape[0] for t in trajectories for f, _ in t.decisions)
        assert rows > 2 * learner.GEMM_CHUNK_ROWS, "needs several chunks"
        advantages = np.linspace(-1.5, 1.25, len(trajectories))
        want_entropy, want_n, want = reference_accumulate_gemm(
            learner.model, trajectories, advantages, beta,
            learner.GEMM_CHUNK_ROWS)
        grads = learner.model.zero_grads()
        entropy, n_decisions = learner._accumulate_gemm(
            trajectories, advantages, beta, grads)
        assert n_decisions == want_n
        assert entropy == want_entropy
        for layer, ((dw, db), (want_dw, want_db)) in enumerate(
                zip(grads, want)):
            assert np.array_equal(dw, want_dw), f"dW{layer} differs"
            assert np.array_equal(db, want_db), f"db{layer} differs"


class TestDecisionLog:
    """The log rebuilds every matrix the policy scored, bit for bit."""

    @pytest.mark.parametrize("row_cache", [True, False],
                             ids=["row_cache", "row_oracle"])
    def test_logged_matrices_are_the_scored_matrices(self, monkeypatch,
                                                     row_cache):
        scored = []
        sample_action = PolicyNetwork.sample_action

        def spy(model, features, rng):
            choice = sample_action(model, features, rng)
            scored.append((features.copy(), choice))
            return choice

        monkeypatch.setattr(PolicyNetwork, "sample_action", spy)
        policy = LearnedPolicy(record_trace=True, row_cache=row_cache,
                               sample_rng=np.random.default_rng((11, 0, 0)))
        rollout("churn20", policy, seed=11, obs_mode="features")
        log = policy.trace
        assert len(log) == len(scored) > 100
        # The pooled path ships logs pickled.
        for logged in (log, pickle.loads(pickle.dumps(log))):
            assert len(logged) == len(scored)
            for i, ((want, want_choice), (have, choice)) in enumerate(
                    zip(scored, logged)):
                assert choice == want_choice, f"decision {i}: choice differs"
                assert have.shape == want.shape
                assert have.tobytes() == want.tobytes(), (
                    f"decision {i}: matrix differs")

    def test_logs_hold_a_quarter_of_the_matrix_bytes(self,
                                                     churn20_iteration):
        _, trajectories = churn20_iteration
        matrices = sum(features.nbytes for t in trajectories
                       for features, _ in t.decisions)
        assert sum(t.decisions.nbytes for t in trajectories) <= (
            0.25 * matrices)
        assert len(pickle.dumps(trajectories)) <= 0.25 * matrices


class TestSampleAction:
    def test_draw_past_the_last_cumulative_probability_picks_the_last(self):
        # Rounding can leave the cumulative probabilities ending just
        # below 1.0; a uniform draw at or above that end must still
        # select a candidate: the last one.
        model = PolicyNetwork(seed=0)
        features = np.random.default_rng(0).random((5, N_FEATURES))
        last = model.distribution(features).cumsum()[-1]
        assert last < 1.0, "the case needs a cumulative sum ending below 1"

        class Draw:
            def __init__(self, value):
                self.value = value

            def random(self):
                return self.value

        for value in (float(last), float(np.nextafter(1.0, 0.0))):
            assert model.sample_action(features, Draw(value)) == 4
