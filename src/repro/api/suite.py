"""The shared trained-artefact provider behind every scheduling scheme.

:class:`SchedulerSuite` owns the two offline trained artefacts of the
paper — the training dataset and the mixture of experts fitted on it —
and hands them to scheme builders registered in
:mod:`repro.scheduling.registry`.  Training the models once and sharing
them across every simulated mix mirrors the paper's one-off offline
training cost (Section 3.3) and keeps the experiment grid fast.

Training is *lazy* and in-process: a suite used only for
prediction-free schemes (isolated, pairwise, oracle, online search) never
trains at all, and the full suite trains in well under a second.  The
suite is picklable, which is how a :class:`repro.api.Session` ships the
trained models into worker processes.
"""

from __future__ import annotations

from repro.core.moe import MixtureOfExperts
from repro.core.training import TrainingDataset, collect_training_data
from repro.scheduling.registry import (
    build_scheduler,
    required_artefacts,
    scheme_info,
)
from repro.spark.driver import DynamicAllocationPolicy

__all__ = ["SchedulerSuite"]


class SchedulerSuite:
    """Lazily trained scheduler artefacts shared across an experiment grid.

    Scheme construction is delegated to the plugin registry
    (:mod:`repro.scheduling.registry`); the suite's job is purely to
    own — and train on demand — the artefacts those builders consume.
    """

    def __init__(self, dataset: TrainingDataset | None = None,
                 moe: MixtureOfExperts | None = None) -> None:
        self._dataset = dataset
        self._moe = moe

    @property
    def dataset(self) -> TrainingDataset:
        """The offline training dataset, collected on first use."""
        if self._dataset is None:
            self._dataset = collect_training_data()
        return self._dataset

    @property
    def moe(self) -> MixtureOfExperts:
        """The trained mixture of experts, fitted on first use."""
        if self._moe is None:
            self._moe = MixtureOfExperts.from_dataset(self.dataset)
        return self._moe

    def is_trained(self) -> bool:
        """Whether both trained artefacts are materialised."""
        return self._dataset is not None and self._moe is not None

    def materialised(self) -> frozenset[str]:
        """Which artefact kinds are currently materialised."""
        kinds = set()
        if self._dataset is not None:
            kinds.add("dataset")
        if self._moe is not None:
            kinds.add("moe")
        return frozenset(kinds)

    def ensure_trained(self, schemes=None) -> None:
        """Materialise the trained artefacts the given schemes need.

        With ``schemes=None`` everything is trained.  Called before the
        suite is pickled into worker processes, so workers receive trained
        models rather than each re-training their own.
        """
        if schemes is None:
            self.moe
            return
        needed = required_artefacts(schemes)
        if "dataset" in needed:
            self.dataset
        if "moe" in needed:
            self.moe

    def factory(self, scheme: str,
                allocation_policy: DynamicAllocationPolicy | None = None):
        """Return a zero-argument factory building a fresh scheduler.

        The scheme is resolved through the plugin registry — an unknown
        name raises :class:`repro.scheduling.registry.UnknownSchemeError`
        immediately, before any training or simulation starts.

        ``allocation_policy`` overrides the schedulers' Spark-like dynamic
        allocation; the scenario runner derives it from the actual topology
        so executor targets track the cluster size instead of assuming the
        paper's 40 nodes.
        """
        scheme_info(scheme)  # eager name validation
        kwargs = ({} if allocation_policy is None
                  else {"allocation_policy": allocation_policy})
        return lambda: build_scheduler(scheme, self, **kwargs)
