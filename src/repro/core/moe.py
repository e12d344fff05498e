"""The mixture-of-experts facade used at runtime deployment (Section 4).

:class:`MixtureOfExperts` packages the trained artefacts — the feature
pipeline, the expert selector and the per-program fitted functions — behind
the two operations the runtime needs:

* given a profiling report of an unseen application, predict which memory
  function family describes it and calibrate that function's coefficients
  from the report's two calibration measurements;
* expose the selector's confidence (distance to the nearest training
  program) so a scheduler can fall back to a conservative policy for
  applications unlike anything in the training set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.calibration import calibrate_memory_function
from repro.core.expert_selector import ExpertSelector, SelectorPrediction
from repro.core.feature_pipeline import FeaturePipeline
from repro.core.memory_functions import MemoryFunction
from repro.core.training import (
    TrainingDataset,
    collect_training_data,
    leave_one_out_training_set,
)
from repro.profiling.counters import FeatureVector
from repro.profiling.profiler import ProfileReport, Profiler
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.suites import TRAINING_BENCHMARKS

__all__ = ["MemoryPrediction", "MixtureOfExperts"]


@dataclass(frozen=True)
class MemoryPrediction:
    """The runtime system's complete view of one application's memory needs."""

    app_name: str
    function: MemoryFunction
    selection: SelectorPrediction
    cpu_load: float

    @property
    def family(self) -> str:
        """Predicted memory-function family."""
        return self.selection.family

    @property
    def confident(self) -> bool:
        """Whether the selector considered the application close to training data."""
        return self.selection.confident

    def footprint_gb(self, data_gb: float) -> float:
        """Predicted executor footprint for ``data_gb`` of cached input."""
        return float(self.function.predict_footprint_gb(data_gb))

    def data_for_budget_gb(self, budget_gb: float) -> float:
        """Largest data share predicted to fit in ``budget_gb`` of memory."""
        return self.function.data_for_budget_gb(budget_gb)


class MixtureOfExperts:
    """Trained mixture-of-experts memory predictor."""

    def __init__(self, dataset: TrainingDataset, pipeline: FeaturePipeline,
                 selector: ExpertSelector) -> None:
        self.dataset = dataset
        self.pipeline = pipeline
        self.selector = selector
        # Leave-one-out predictors by target name (see for_target).
        self._reduced: dict[str, MixtureOfExperts] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset: TrainingDataset,
                     variance_to_keep: float = 0.95,
                     max_components: int = 5,
                     n_neighbors: int = 1) -> "MixtureOfExperts":
        """Build the pipeline and selector from an existing training dataset."""
        pipeline = FeaturePipeline(variance_to_keep=variance_to_keep,
                                   max_components=max_components)
        transformed = pipeline.fit_transform(
            [example.features for example in dataset.examples]
        )
        selector = ExpertSelector(n_neighbors=n_neighbors)
        selector.fit(transformed, dataset.families(), dataset.names())
        return cls(dataset=dataset, pipeline=pipeline, selector=selector)

    @classmethod
    def train(cls, specs=TRAINING_BENCHMARKS, profiler: Profiler | None = None,
              seed: int = 0, **kwargs) -> "MixtureOfExperts":
        """Run offline training end to end and return the trained predictor."""
        dataset = collect_training_data(specs=specs, profiler=profiler, seed=seed)
        return cls.from_dataset(dataset, **kwargs)

    def excluding(self, programs) -> "MixtureOfExperts":
        """A predictor retrained without the given training programs.

        Used to honour the leave-one-out protocol when the application
        under evaluation is itself part of the training suites.
        """
        return MixtureOfExperts.from_dataset(self.dataset.excluding(programs))

    def for_target(self, target: BenchmarkSpec) -> "MixtureOfExperts":
        """The leave-one-out predictor appropriate for evaluating ``target``.

        The fits are deterministic, so each reduced predictor is built
        once and memoised by target name.  A target the training set
        does not cover gets ``self``, which is not memoised: the mixture
        never holds a reference to itself.
        """
        predictor = self._reduced.get(target.name)
        if predictor is None:
            reduced = leave_one_out_training_set(self.dataset, target)
            if len(reduced) == len(self.dataset):
                return self
            predictor = MixtureOfExperts.from_dataset(reduced)
            self._reduced[target.name] = predictor
        return predictor

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_family(self, features: FeatureVector) -> SelectorPrediction:
        """Select the memory-function family for the given raw features."""
        transformed = self.pipeline.transform([features])
        return self.selector.predict_one(transformed)

    def predict_from_report(self, report: ProfileReport,
                            min_footprint_gb: float = 0.25) -> MemoryPrediction:
        """Full runtime prediction: select the family, then calibrate it."""
        selection = self.predict_family(report.features)
        function = calibrate_memory_function(selection.family, report.calibration,
                                             min_footprint_gb=min_footprint_gb)
        return MemoryPrediction(app_name=report.app_name, function=function,
                                selection=selection, cpu_load=report.cpu_load)

    def predict_footprint_gb(self, report: ProfileReport, data_gb: float) -> float:
        """Convenience wrapper: predicted footprint for one data size."""
        return self.predict_from_report(report).footprint_gb(data_gb)
