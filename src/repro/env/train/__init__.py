"""Learned-scheduler training subsystem: numpy policy gradients.

Everything needed to *train* a scheduling policy in the PR 5 gym and
*serve* it as a first-class scheme — torch-free, numpy only:

* :mod:`~repro.env.train.features` — the featurizer shared bit-for-bit
  between training (environment observations) and inference (the native
  scheduling context).
* :mod:`~repro.env.train.model` — the :class:`PolicyNetwork` MLP with
  manual backward and ``.npz`` checkpointing.
* :mod:`~repro.env.train.learner` / :mod:`~repro.env.train.workers` —
  the :class:`ReinforceLearner` loop over multi-seed rollout workers.
* :mod:`~repro.env.train.scheme` — the ``learned`` scheme
  (:class:`LearnedScheduler`) and the environment-side
  :class:`LearnedPolicy`, both running one shared decision function.

Quickstart::

    from repro.env.train import ReinforceLearner, TrainConfig

    learner = ReinforceLearner("churn20", TrainConfig(iters=100, seed=11))
    result = learner.train(checkpoint="my_policy.npz")
    # then: Session().rollout("churn20", policy="learned:my_policy.npz")
    # or natively: ExperimentPlan(..., schemes=("pairwise", "learned"))
"""

from repro.env.train.features import (
    FEATURE_NAMES,
    N_FEATURES,
    CandidateRowCache,
    EpochSnapshot,
    FeatureConfig,
    candidate_features,
    snapshot_from_observation,
    snapshot_from_state,
)
from repro.env.train.learner import (
    UPDATE_MODES,
    Adam,
    IterationStats,
    ReinforceLearner,
    TrainConfig,
    TrainResult,
)
from repro.env.train.model import CHECKPOINT_FORMAT, PolicyNetwork
from repro.env.train.scheme import (
    CHECKPOINT_ENV_VAR,
    DEFAULT_CHECKPOINT,
    LearnedPolicy,
    LearnedScheduler,
    build_learned_scheduler,
    clear_model_cache,
    decide_epoch,
    load_policy_model,
    resolve_checkpoint,
)
from repro.env.train.workers import (
    EpisodeCollector,
    EpisodeSpec,
    Trajectory,
    collect_episode,
)

__all__ = [
    # featurizer
    "FeatureConfig", "FEATURE_NAMES", "N_FEATURES", "EpochSnapshot",
    "candidate_features", "CandidateRowCache",
    "snapshot_from_observation", "snapshot_from_state",
    # model
    "PolicyNetwork", "CHECKPOINT_FORMAT",
    # learner
    "ReinforceLearner", "TrainConfig", "TrainResult", "IterationStats",
    "Adam", "UPDATE_MODES",
    # workers
    "EpisodeCollector", "EpisodeSpec", "Trajectory", "collect_episode",
    # serving
    "LearnedScheduler", "LearnedPolicy", "decide_epoch",
    "build_learned_scheduler", "load_policy_model", "resolve_checkpoint",
    "clear_model_cache", "DEFAULT_CHECKPOINT", "CHECKPOINT_ENV_VAR",
]
