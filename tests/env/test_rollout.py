"""Tests for the episode runner, baselines, and EpisodeResult round-trip."""

import pytest

from repro.api import Session
from repro.env import (
    EpisodeResult,
    GreedyPolicy,
    RandomPolicy,
    make_policy,
    rollout,
)


class TestBaselinePolicies:
    def test_random_policy_completes_l1_and_reward_equals_stp(self):
        episode = rollout("L1", RandomPolicy(), seed=11)
        assert episode.policy == "random"
        assert episode.steps > 0
        assert episode.total_reward == pytest.approx(episode.stp)
        assert len(episode.jobs) == 2
        assert all(record.turnaround_min > 0 for record in episode.jobs)

    def test_random_policy_is_seed_deterministic(self):
        first = rollout("L1", RandomPolicy(), seed=11)
        again = rollout("L1", RandomPolicy(), seed=11)
        assert first == again

    def test_random_policy_handles_churn20_faults(self):
        episode = rollout("churn20", RandomPolicy(), seed=3)
        assert episode.faults is not None
        assert episode.faults.node_failures > 0
        assert episode.stp > 0

    def test_greedy_policy_is_deterministic_and_completes(self):
        first = rollout("L1", GreedyPolicy(), seed=11)
        again = rollout("L1", GreedyPolicy(), seed=11)
        assert first == again
        assert first.policy == "greedy"

    def test_max_steps_guards_stalling_policies(self):
        class Idler(RandomPolicy):
            def act(self, observation):
                from repro.env import Action

                return Action.noop()

        with pytest.raises(RuntimeError, match="max_steps"):
            rollout("L1", Idler(), seed=11, max_steps=10)

    def test_make_policy_resolves_names(self):
        assert make_policy("random").name == "random"
        assert make_policy("greedy").name == "greedy"
        assert make_policy("oracle").name == "oracle"
        from repro.scheduling.registry import UnknownSchemeError

        with pytest.raises(UnknownSchemeError, match="warp"):
            make_policy("warp")


class TestEpisodeResultRoundTrip:
    def test_json_round_trip_is_exact(self, tmp_path):
        episode = rollout("churn20", RandomPolicy(), seed=3)
        path = tmp_path / "episode.json"
        episode.to_json(path=path)
        assert EpisodeResult.from_json(path) == episode
        assert EpisodeResult.from_json(episode.to_json()) == episode

    def test_episodes_recorded_with_an_engine_still_load(self):
        # Episodes written while rollouts chose an engine carry that key;
        # the option is gone, so loading drops it.
        episode = rollout("L1", GreedyPolicy(), seed=11)
        payload = dict(episode.to_dict(), engine="fixed")
        assert EpisodeResult.from_dict(payload) == episode

    def test_session_rollout_uses_session_artefacts(self):
        with Session() as session:
            episode = session.rollout("L1", policy="random", seed=11)
            assert episode.scenario == "L1"
            # Baseline policies never require training.
            assert session.suite.materialised() == frozenset()

    def test_session_rollout_rejects_non_policies(self):
        with Session() as session:
            with pytest.raises(TypeError, match="Policy"):
                session.rollout("L1", policy=42)

    def test_retired_record_utilization_option_is_rejected(self):
        from repro.env import SchedulingEnv

        with pytest.raises(TypeError, match="record_utilization"):
            SchedulingEnv("L1", record_utilization=False)
        with pytest.raises(TypeError, match="record_utilization"):
            rollout("L1", RandomPolicy(), record_utilization=False)
        with Session() as session:
            with pytest.raises(TypeError, match="record_utilization"):
                session.rollout("L1", record_utilization=False)

    def test_record_rewards_keeps_the_trace_and_round_trips(self):
        episode = rollout("L1", GreedyPolicy(), seed=11,
                          record_rewards=True)
        assert episode.rewards is not None
        assert len(episode.rewards) == episode.steps
        assert sum(episode.rewards) == pytest.approx(episode.total_reward)
        assert EpisodeResult.from_json(episode.to_json()) == episode
        # The trace stays opt-in: without the flag, no rewards field.
        bare = rollout("L1", GreedyPolicy(), seed=11)
        assert bare.rewards is None
        assert "rewards" not in bare.to_dict()

    def test_antt_delta_reward_round_trips(self):
        episode = rollout("L1", GreedyPolicy(), seed=11,
                          reward="antt_delta")
        assert episode.reward_kind == "antt_delta"
        assert episode.total_reward == pytest.approx(-episode.antt)
        assert EpisodeResult.from_json(episode.to_json()) == episode
