"""The gym-style scheduling environment over the event-bus kernel.

This package re-layers the event-driven engine's epoch loop as a
``reset``/``step`` decision process: the simulation pauses at every
scheduler wake-point, the caller chooses executor placements (a
structured, capacity-validated :class:`Action`), and the kernel resumes
to the next wake-point.  Every scheduling scheme — built-in, plugin,
learned, or external — becomes a policy over the same observable state:

* :class:`SchedulingEnv` — ``reset(seed) -> Observation``,
  ``step(Action) -> (Observation, reward, done, info)``;
* :class:`Observation` / :class:`JobView` / :class:`NodeView` /
  :class:`BusTelemetry` — typed snapshots of the paused simulation,
  fault telemetry streamed off the event bus;
* :class:`Action` / :class:`Placement` — structured decisions validated
  atomically against live capacity (:class:`InvalidActionError`);
* :class:`PolicyAdapter` — mounts any registered scheme and reproduces
  the native engine path bit-for-bit (the proof that the environment is
  a re-layering of the kernel, not a fork);
* :class:`RandomPolicy` / :class:`GreedyPolicy` — the baseline floor;
* :func:`rollout` / :class:`EpisodeResult` — one-call episode runner
  with a typed, JSON-round-trippable outcome (also available as
  :meth:`repro.api.Session.rollout`);
* :mod:`repro.env.train` — the training subsystem: a pure-numpy
  REINFORCE learner (:class:`ReinforceLearner`/:class:`TrainConfig`/
  :class:`TrainResult`) over this environment, and the
  :class:`LearnedPolicy` side of the ``learned`` scheme it produces.

Quickstart::

    from repro.env import SchedulingEnv, RandomPolicy

    env = SchedulingEnv("churn20")
    policy = RandomPolicy(seed=7)
    obs = env.reset(seed=7)
    done = False
    while not done:
        obs, reward, done, info = env.step(policy.act(obs))
    print(env.episode_result("random").to_json())
"""

from repro.env.actions import Action, InvalidActionError, Placement
from repro.env.environment import (
    OBS_MODES,
    REWARD_KINDS,
    EpisodeNotDoneError,
    SchedulingEnv,
)
from repro.env.observations import (
    BusTelemetry,
    FeatureObservation,
    JobView,
    NodeView,
    Observation,
    ObservationBuilder,
)
from repro.env.policies import (
    POLICY_BASELINES,
    GreedyPolicy,
    Policy,
    PolicyAdapter,
    RandomPolicy,
    make_policy,
)
from repro.env.rollout import EpisodeResult, rollout
from repro.env.train import (
    LearnedPolicy,
    ReinforceLearner,
    TrainConfig,
    TrainResult,
)

__all__ = [
    # environment
    "SchedulingEnv",
    "REWARD_KINDS",
    "OBS_MODES",
    "EpisodeNotDoneError",
    # observations
    "Observation",
    "FeatureObservation",
    "JobView",
    "NodeView",
    "BusTelemetry",
    "ObservationBuilder",
    # actions
    "Action",
    "Placement",
    "InvalidActionError",
    # policies
    "Policy",
    "RandomPolicy",
    "GreedyPolicy",
    "PolicyAdapter",
    "POLICY_BASELINES",
    "make_policy",
    # rollout
    "rollout",
    "EpisodeResult",
    # training subsystem entry points (full surface: repro.env.train)
    "ReinforceLearner",
    "TrainConfig",
    "TrainResult",
    "LearnedPolicy",
]
