"""Episode rollouts: drive a policy through the environment end to end.

:func:`rollout` is the canonical episode runner used by
:meth:`repro.api.Session.rollout` and the ``env-rollout`` CLI mode: it
resets the environment (mounting the policy's native scheduler when it
has one), loops ``act``/``step`` until the kernel reports the episode
done, and folds the outcome into a typed, JSON-round-trippable
:class:`EpisodeResult` — the environment-layer sibling of
:class:`repro.api.CellResult`, carrying the same headline metrics and
per-job records plus the decision-process accounting (steps, rewards).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.api.results import JobRecord, job_records
from repro.cluster.faults import FaultSummary
from repro.env.environment import SchedulingEnv
from repro.env.policies import Policy

__all__ = ["EpisodeResult", "rollout"]


@dataclass(frozen=True)
class EpisodeResult:
    """Outcome of one environment episode (JSON round-trippable).

    The headline metrics (``stp``, ``antt``, …) stream off the same
    event-bus subscriber the experiment session layer uses, so for a
    :class:`~repro.env.PolicyAdapter` episode they equal the native
    engine path's values bit-for-bit.  ``total_reward`` is the sum of
    per-step rewards: the final STP for ``stp_delta`` episodes, ``-ANTT``
    for ``antt_delta``.
    """

    scenario: str
    policy: str
    seed: int
    engine: str
    reward_kind: str
    steps: int
    total_reward: float
    stp: float
    antt: float
    antt_reduction_percent: float
    makespan_min: float
    mean_utilization_percent: float
    jobs: tuple[JobRecord, ...]
    faults: FaultSummary | None = None
    #: Optional per-step reward trace (``record_rewards=True`` episodes);
    #: sums to ``total_reward``.  Training curves and eval episodes share
    #: this one telemetry shape.
    rewards: tuple[float, ...] | None = None

    @classmethod
    def from_env(cls, env: SchedulingEnv, policy_name: str, *,
                 rewards: tuple[float, ...] | None = None) -> "EpisodeResult":
        """Fold a completed environment episode into a typed record."""
        evaluation = env.evaluation()  # raises on horizon truncation
        result = env.result()
        return cls(
            scenario=env.spec.name,
            policy=policy_name,
            seed=env.seed,
            engine=env.engine,
            reward_kind=env.reward_kind,
            steps=env.steps,
            total_reward=env.total_reward,
            stp=evaluation.stp,
            antt=evaluation.antt,
            antt_reduction_percent=evaluation.antt_reduction_percent,
            makespan_min=evaluation.makespan_min,
            mean_utilization_percent=evaluation.mean_utilization_percent,
            jobs=job_records(result, env.jobs, env.allocation_policy),
            faults=result.fault_summary,
            rewards=rewards,
        )

    def to_dict(self) -> dict:
        """JSON-ready dict form (the ``faults`` key appears only when set)."""
        payload = {
            "scenario": self.scenario,
            "policy": self.policy,
            "seed": self.seed,
            "engine": self.engine,
            "reward_kind": self.reward_kind,
            "steps": self.steps,
            "total_reward": self.total_reward,
            "stp": self.stp,
            "antt": self.antt,
            "antt_reduction_percent": self.antt_reduction_percent,
            "makespan_min": self.makespan_min,
            "mean_utilization_percent": self.mean_utilization_percent,
            "jobs": [record.to_dict() for record in self.jobs],
        }
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        if self.rewards is not None:
            payload["rewards"] = list(self.rewards)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "EpisodeResult":
        """Inverse of :meth:`to_dict`."""
        kwargs = dict(payload)
        kwargs["jobs"] = tuple(JobRecord.from_dict(record)
                               for record in kwargs["jobs"])
        if kwargs.get("faults") is not None:
            kwargs["faults"] = FaultSummary.from_dict(kwargs["faults"])
        if kwargs.get("rewards") is not None:
            kwargs["rewards"] = tuple(kwargs["rewards"])
        return cls(**kwargs)

    def to_json(self, path: str | Path | None = None, *,
                indent: int = 2) -> str:
        """Serialise to JSON, optionally writing the document to a file.

        ``json.dumps`` renders floats with ``repr``, which Python
        round-trips bit-for-bit, so ``from_json(to_json(x)) == x``.
        """
        text = json.dumps(self.to_dict(), indent=indent) + "\n"
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "EpisodeResult":
        """Load an episode from a JSON string or file path."""
        if isinstance(source, Path):
            text = source.read_text()
        elif source.lstrip().startswith("{"):
            text = source
        else:
            text = Path(source).read_text()
        return cls.from_dict(json.loads(text))


def rollout(scenario, policy: Policy, *, seed: int = 11,
            engine: str = "event", reward: str = "stp_delta",
            time_step_min: float = 0.5,
            max_steps: int | None = None,
            record_rewards: bool = False,
            obs_mode: str = "dataclass",
            record_utilization: bool = True) -> EpisodeResult:
    """Run one full episode of ``policy`` on ``scenario``.

    ``max_steps`` bounds the number of decision epochs (a safety net for
    policies that never place anything under the fixed-step engine,
    where every grid step is an epoch); exceeding it raises
    ``RuntimeError`` naming the scenario and step count.
    ``record_rewards`` keeps the per-step reward trace on the result
    (``EpisodeResult.rewards``) — the learner's training signal and the
    eval episode then share one telemetry shape.  ``obs_mode`` and
    ``record_utilization`` are forwarded to :class:`SchedulingEnv`:
    ``obs_mode="features"`` with ``record_utilization=False`` is the
    fast collection path (decision traces, rewards and STP are
    bit-identical to the defaults; only the episode's utilization metric
    switches to the streaming reduction).
    """
    env = SchedulingEnv(scenario, engine=engine, reward=reward,
                        time_step_min=time_step_min,
                        obs_mode=obs_mode,
                        record_utilization=record_utilization)
    policy.reset(seed)
    observation = env.reset(seed=seed,
                            scheduler_factory=policy.make_scheduler)
    rewards: list[float] | None = [] if record_rewards else None
    done = False
    while not done:
        if max_steps is not None and env.steps >= max_steps:
            env.close()
            raise RuntimeError(
                f"episode on {env.spec.name!r} exceeded max_steps="
                f"{max_steps} without completing; the policy may never "
                "be placing work")
        observation, step_reward, done, _ = env.step(policy.act(observation))
        if rewards is not None:
            rewards.append(step_reward)
    return EpisodeResult.from_env(
        env, policy.name,
        rewards=tuple(rewards) if rewards is not None else None)
