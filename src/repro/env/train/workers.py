"""Vectorized rollout collection for the learner.

A training iteration needs a *batch* of sampled episodes; this module
turns (model, seed list) into :class:`Trajectory` records — per-step
rewards plus the decision log the backward pass consumes — either
inline or fanned out over a ``ProcessPoolExecutor``
(the same worker-pool shape :class:`repro.api.Session` uses for grid
cells: pool reused across iterations, scenario shipped once through the
initializer).

Collection runs the environment's fast observation path by default
(``obs_mode="features"``): decision traces, rewards and the whole
episode result are bit-identical to the dataclass oracle path (pinned
by the fast-path parity tests).

Policy weights are broadcast **once per change**, not once per task:
:meth:`EpisodeCollector.collect` pickles the network a single time and
re-arms the pool through the initializer only when the bytes differ from
what the workers already hold, so per-task payloads shrink to the tiny
:class:`EpisodeSpec`.

Determinism does not depend on worker count: episodes are fully
described by ``(episode_seed, sample_seed)``, futures are consumed in
submission order, and the learner derives both seeds from its own
config, so ``workers=8`` reproduces ``workers=1`` exactly.
"""

from __future__ import annotations

import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from repro.env.rollout import rollout

from .features import DecisionLog
from .model import PolicyNetwork
from .scheme import LearnedPolicy

__all__ = ["Trajectory", "EpisodeSpec", "collect_episode", "EpisodeCollector"]


@dataclass(frozen=True)
class EpisodeSpec:
    """Seeds fully describing one sampled training episode.

    ``episode_seed`` drives the environment (job mix, faults);
    ``sample_seed`` drives the policy's action sampling.  Tuples are
    valid numpy seeds, so the learner can use structured
    ``(train_seed, iteration, episode)`` triples without collision
    worries.
    """

    episode_seed: int
    sample_seed: tuple[int, ...]


@dataclass
class Trajectory:
    """One sampled episode, ready for the REINFORCE update.

    ``decisions`` logs every recorded sub-decision's candidate rows and
    chosen row, and iterates as ``(features, choice)`` pairs;
    ``step_marks[t]`` is the decision count after environment step ``t``,
    which is how per-step rewards map onto the decisions that caused
    them (reward-to-go).
    """

    episode_seed: int
    rewards: np.ndarray
    decisions: DecisionLog
    step_marks: list[int]
    stp: float
    total_reward: float


def collect_episode(scenario, model: PolicyNetwork, spec: EpisodeSpec, *,
                    reward: str = "stp_delta",
                    max_steps: int | None = 20000,
                    obs_mode: str = "features") -> Trajectory:
    """Sample one full episode and package it for the learner.

    ``obs_mode="features"`` (the default) runs the array-backed fast
    observation path; the trajectory is bit-identical to
    ``obs_mode="dataclass"``, the row-level oracle.
    """
    policy = LearnedPolicy(
        model=model, record_trace=True,
        sample_rng=np.random.default_rng(spec.sample_seed))
    result = rollout(scenario, policy, seed=spec.episode_seed, reward=reward,
                     max_steps=max_steps, record_rewards=True,
                     obs_mode=obs_mode)
    policy.trace.trim()
    return Trajectory(
        episode_seed=spec.episode_seed,
        rewards=np.asarray(result.rewards, dtype=np.float64),
        decisions=policy.trace,
        step_marks=policy.step_marks,
        stp=result.stp,
        total_reward=result.total_reward,
    )


# Worker-process state installed by the pool initializer (one scenario,
# rollout configuration and armed policy network per pool), mirroring
# repro.api.session's _init_worker idiom.
_WORKER_STATE: dict = {}


def _init_worker(scenario, reward: str, max_steps: int | None,
                 obs_mode: str, model_blob: bytes) -> None:
    _WORKER_STATE["args"] = (scenario, reward, max_steps, obs_mode)
    _WORKER_STATE["model"] = pickle.loads(model_blob)


def _worker_episode(spec: EpisodeSpec) -> Trajectory:
    scenario, reward, max_steps, obs_mode = _WORKER_STATE["args"]
    return collect_episode(scenario, _WORKER_STATE["model"], spec,
                           reward=reward, max_steps=max_steps,
                           obs_mode=obs_mode)


class EpisodeCollector:
    """Batch episode collection, inline or over a reusable process pool.

    ``workers=1`` (the default) runs in-process — no pickling, easiest
    to debug, what tests use.  With more workers a pool is created
    lazily on the first :meth:`collect` and reused across iterations;
    the policy network rides in through the pool initializer, so the
    pool is rebuilt (cheap under ``fork``) exactly when the weights
    change and each task ships only its :class:`EpisodeSpec`.  Call
    :meth:`close` (or use as a context manager) when done.
    """

    def __init__(self, scenario, *, reward: str = "stp_delta",
                 max_steps: int | None = 20000, workers: int = 1,
                 obs_mode: str = "features") -> None:
        self.scenario = scenario
        self.reward = reward
        self.max_steps = max_steps
        self.workers = max(1, int(workers))
        self.obs_mode = obs_mode
        self._pool: ProcessPoolExecutor | None = None
        self._armed_blob: bytes | None = None

    def _arm_pool(self, model: PolicyNetwork) -> ProcessPoolExecutor:
        """The live pool whose workers hold ``model``'s current weights."""
        blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        if self._pool is None or blob != self._armed_blob:
            self.close()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_init_worker,
                initargs=(self.scenario, self.reward, self.max_steps,
                          self.obs_mode, blob))
            self._armed_blob = blob
        return self._pool

    def collect(self, model: PolicyNetwork,
                specs: list[EpisodeSpec]) -> list[Trajectory]:
        """Sample one trajectory per spec, in spec order."""
        if self.workers == 1:
            return [collect_episode(self.scenario, model, spec,
                                    reward=self.reward,
                                    max_steps=self.max_steps,
                                    obs_mode=self.obs_mode)
                    for spec in specs]
        pool = self._arm_pool(model)
        try:
            futures = [pool.submit(_worker_episode, spec) for spec in specs]
            return [future.result() for future in futures]
        except BrokenProcessPool as error:
            # A worker died (OOM-killed, segfaulted, ...): the pool is
            # unusable, so abandon it — the next collect() builds a
            # fresh one — and surface a clear, actionable error instead
            # of the executor's opaque one (Session.stream's idiom).
            if pool is self._pool:
                self.close()
            raise RuntimeError(
                f"episode collection worker died while sampling "
                f"{len(specs)} episodes on {self.scenario!r} "
                f"(workers={self.workers}); the pool was shut down — "
                f"rerun, or use workers=1 to collect inline") from error

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._armed_blob = None

    def __enter__(self) -> "EpisodeCollector":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
