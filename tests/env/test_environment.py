"""Tests for the scheduling environment: reset, stepping, validation."""

import pytest

from repro.cluster.faults import FaultEvent, FaultSpec
from repro.env import (
    Action,
    InvalidActionError,
    Placement,
    SchedulingEnv,
)
from repro.scenarios import ScenarioSpec

#: A tiny deterministic scenario: two known apps on four small nodes.
TINY = ScenarioSpec(name="tiny_env", jobs=(("HB.Sort", 20.0),
                                           ("HB.WordCount", 10.0)),
                    topology="smallmem24")

#: Same workload, with node 0 scripted to fail before the first epoch.
TINY_DOWN = ScenarioSpec(
    name="tiny_env_down",
    jobs=(("HB.Sort", 20.0),),
    topology="smallmem24",
    faults=FaultSpec(timeline=(
        FaultEvent(time_min=0.0, action="node_down", node_id=0),
    )),
)


class TestReset:
    def test_reset_returns_first_wake_observation(self):
        env = SchedulingEnv(TINY)
        obs = env.reset(seed=3)
        assert obs.time_min == 0.0
        assert obs.epoch == 0
        assert [job.name for job in obs.jobs] == ["HB.Sort", "HB.WordCount"]
        assert all(job.ready and job.unassigned_gb == job.input_gb
                   for job in obs.jobs)
        assert len(obs.nodes) == 24
        assert all(node.is_up and node.active_executors == 0
                   for node in obs.nodes)
        assert obs.pending_arrivals == 0

    def test_reset_is_deterministic_for_a_seed(self):
        # Same seed => structurally identical first observation, even on
        # the stochastic fault scenario.
        env_a = SchedulingEnv("churn20")
        env_b = SchedulingEnv("churn20")
        first = env_a.reset(seed=5)
        again = env_b.reset(seed=5)
        assert first.to_dict() == again.to_dict()

    def test_different_seeds_draw_different_workloads(self):
        # On a closed-batch random-mix scenario the first observation
        # already exposes the drawn mix, so seeds must differ there.
        # (Open-arrival scenarios like churn20 legitimately share the
        # empty t=0 snapshot across seeds.)
        env = SchedulingEnv("L5")
        first = env.reset(seed=5)
        other = env.reset(seed=6)
        assert other.to_dict() != first.to_dict()
        assert first.to_dict() == env.reset(seed=5).to_dict()

    def test_reset_mid_episode_starts_over(self):
        env = SchedulingEnv(TINY)
        obs = env.reset(seed=3)
        env.step(Action.noop())
        fresh = env.reset(seed=3)
        assert fresh.to_dict() == obs.to_dict()
        assert env.steps == 0 and env.total_reward == 0.0

    def test_unknown_scenario_and_reward_are_rejected(self):
        with pytest.raises(KeyError):
            SchedulingEnv("L99")
        with pytest.raises(ValueError, match="reward"):
            SchedulingEnv(TINY, reward="profit")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
    def test_non_finite_or_boolean_time_step_is_rejected(self, value):
        with pytest.raises(ValueError, match="time_step_min"):
            SchedulingEnv(TINY, time_step_min=value)


class TestStepping:
    def test_step_before_reset_is_an_error(self):
        env = SchedulingEnv(TINY)
        with pytest.raises(RuntimeError, match="reset"):
            env.step(Action.noop())

    def test_step_takes_actions_only(self):
        env = SchedulingEnv(TINY)
        env.reset(seed=3)
        with pytest.raises(TypeError, match="Action"):
            env.step([("HB.Sort", 0, 8.0, 8.0)])

    def test_noop_steps_advance_time_monotonically(self):
        env = SchedulingEnv(TINY)
        obs = env.reset(seed=3)
        for _ in range(5):
            later, reward, done, info = env.step(Action.noop())
            assert not done and reward == 0.0
            assert later.time_min > obs.time_min - 1e-9
            assert info["placements"] == 0
            obs = later

    def test_placements_spawn_executors_and_episode_completes(self):
        env = SchedulingEnv(TINY)
        obs = env.reset(seed=3)
        action = Action((Placement("HB.Sort", 0, 12.0, 20.0),
                         Placement("HB.WordCount", 1, 12.0, 10.0)))
        obs, _, done, info = env.step(action)
        assert info["placements"] == 2
        # The kernel has already advanced to the next wake-point, so an
        # executor may have finished — but every gigabyte is assigned.
        assert all(job.unassigned_gb == 0.0 for job in obs.jobs)
        steps = 0
        while not done:
            obs, _, done, info = env.step(Action.noop())
            steps += 1
            assert steps < 500, "episode did not converge"
        assert not info["truncated"]
        assert env.done
        evaluation = env.evaluation()
        assert evaluation.stp > 0
        assert obs.jobs == ()  # nothing unfinished in the final snapshot

    def test_reward_stream_sums_to_final_stp(self):
        env = SchedulingEnv(TINY, reward="stp_delta")
        env.reset(seed=3)
        done = False
        rewards = []
        while not done:
            action = Action((Placement("HB.Sort", 0, 12.0, 20.0),
                             Placement("HB.WordCount", 1, 12.0, 10.0))
                            if env.steps == 0 else ())
            _, reward, done, _ = env.step(action)
            rewards.append(reward)
        assert sum(rewards) == pytest.approx(env.evaluation().stp)
        assert env.total_reward == pytest.approx(env.evaluation().stp)

    def test_antt_delta_reward_sums_to_negative_antt(self):
        env = SchedulingEnv(TINY, reward="antt_delta")
        env.reset(seed=3)
        done = False
        while not done:
            action = Action((Placement("HB.Sort", 0, 12.0, 20.0),
                             Placement("HB.WordCount", 1, 12.0, 10.0))
                            if env.steps == 0 else ())
            _, _, done, _ = env.step(action)
        assert env.total_reward == pytest.approx(-env.evaluation().antt)

    def test_step_after_done_is_an_error(self):
        env = SchedulingEnv(TINY)
        env.reset(seed=3)
        done = False
        while not done:
            action = Action((Placement("HB.Sort", 0, 12.0, 20.0),
                             Placement("HB.WordCount", 1, 12.0, 10.0))
                            if env.steps == 0 else ())
            _, _, done, _ = env.step(action)
        with pytest.raises(RuntimeError, match="over"):
            env.step(Action.noop())


class TestActionValidation:
    def _ready_env(self):
        env = SchedulingEnv(TINY)
        obs = env.reset(seed=3)
        return env, obs

    def test_unknown_app_is_rejected(self):
        env, _ = self._ready_env()
        with pytest.raises(InvalidActionError, match="unknown application"):
            env.step(Action((Placement("HB.NoSuchApp", 0, 4.0, 4.0),)))

    def test_unknown_node_is_rejected(self):
        env, _ = self._ready_env()
        with pytest.raises(InvalidActionError, match="unknown node"):
            env.step(Action((Placement("HB.Sort", 99, 4.0, 4.0),)))

    def test_over_capacity_memory_is_rejected(self):
        env, obs = self._ready_env()
        ram = obs.nodes[0].free_memory_gb
        with pytest.raises(InvalidActionError, match="over-capacity"):
            env.step(Action((Placement("HB.Sort", 0, ram + 1.0, 4.0),)))

    def test_batch_exceeding_capacity_is_rejected_atomically(self):
        env, obs = self._ready_env()
        ram = obs.nodes[0].free_memory_gb
        # Each placement fits alone; together they overflow node 0.
        batch = Action((Placement("HB.Sort", 0, 0.75 * ram, 4.0),
                        Placement("HB.WordCount", 0, 0.75 * ram, 4.0)))
        with pytest.raises(InvalidActionError, match="after earlier"):
            env.step(batch)
        # Nothing was applied: capacity untouched, and the batch minus
        # the offending placement still goes through.
        assert env.step(Action((Placement("HB.Sort", 0, 0.75 * ram, 4.0),))
                        )[3]["placements"] == 1

    def test_down_node_is_rejected(self):
        env = SchedulingEnv(TINY_DOWN)
        obs = env.reset(seed=3)
        assert not obs.nodes[0].is_up  # scripted failure fired at t=0
        with pytest.raises(InvalidActionError, match="down"):
            env.step(Action((Placement("HB.Sort", 0, 4.0, 4.0),)))

    def test_app_with_no_data_left_is_rejected(self):
        env, _ = self._ready_env()
        env.step(Action((Placement("HB.Sort", 0, 12.0, 20.0),)))
        with pytest.raises(InvalidActionError, match="no unassigned data"):
            env.step(Action((Placement("HB.Sort", 1, 4.0, 4.0),)))

    def test_invalid_placement_shapes_are_rejected_eagerly(self):
        with pytest.raises(ValueError, match="memory_gb"):
            Placement("HB.Sort", 0, 0.0, 4.0)
        with pytest.raises(ValueError, match="data_gb"):
            Placement("HB.Sort", 0, 4.0, -1.0)
        with pytest.raises(ValueError, match="not both"):
            Action((Placement("HB.Sort", 0, 4.0, 4.0),),
                   scheduler=object())


class TestObservationTelemetry:
    def test_fault_telemetry_streams_into_observations(self):
        spec = ScenarioSpec(
            name="tiny_env_faulty",
            jobs=(("HB.Sort", 20.0),),
            topology="smallmem24",
            faults=FaultSpec(timeline=(
                FaultEvent(time_min=1.0, action="node_down", node_id=0,
                           duration_min=5.0),
            )),
        )
        env = SchedulingEnv(spec)
        obs = env.reset(seed=3)
        assert obs.telemetry.node_failures == 0
        # Step past t=1.0 so the scripted failure fires.
        for _ in range(8):
            obs, _, done, _ = env.step(Action.noop())
            if done or obs.telemetry.node_failures:
                break
        assert obs.telemetry.node_failures == 1

    def test_oom_rerun_total_adds_left_to_right(self, python312_sum):
        # Three apps awaiting an isolated re-run: left to right the total
        # is 0.6000000000000001, a compensated sum() gives 0.6.
        env = SchedulingEnv(TINY)
        env.reset(seed=3)
        env._sim.oom_retry_gb.update({"a": 0.1, "b": 0.2, "c": 0.3})
        assert sum([0.1, 0.2, 0.3]) == 0.6
        observation = env._observer.build(env._context, env._now, env._epoch)
        assert observation.oom_rerun_gb == 0.1 + 0.2 + 0.3
