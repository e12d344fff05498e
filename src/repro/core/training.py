"""Offline training-data collection (Sections 3.3 and 5.2).

For every training program the framework:

1. extracts the 22 raw features from a small profiling run;
2. runs the program with a range of input sizes and records the observed
   executor memory footprints;
3. fits every memory-function family to the observed curve and records the
   best one as the program's label.

The resulting dataset is what the feature pipeline and the expert selector
are trained on.  The module also implements the paper's leave-one-out
protocol: when a training-suite benchmark is evaluated, it *and any
equivalent implementation in another suite* are excluded from the training
set (e.g. testing HiBench Sort excludes BigDataBench Sort).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.memory_functions import MemoryFunction, fit_best_family
from repro.profiling.counters import FeatureVector, synthesize_features
from repro.profiling.profiler import Profiler
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.suites import TRAINING_BENCHMARKS, equivalent_benchmarks

__all__ = [
    "DEFAULT_TRAINING_SEED",
    "TrainingExample",
    "TrainingDataset",
    "collect_training_data",
    "leave_one_out_training_set",
    "default_training_input_sizes_gb",
]

#: Seed of the offline profiling runs' observation noise.
DEFAULT_TRAINING_SEED = 0


def default_training_input_sizes_gb() -> np.ndarray:
    """Per-executor cached-data sizes used for offline footprint profiling.

    The paper profiles training programs with inputs from ~300 MB to ~1 TB;
    what the memory function models is the data cached by one executor, so
    the profiling grid spans from a few hundred megabytes up to the largest
    share a single executor would realistically cache.  Below ~0.5 GB the
    footprint is dominated by the fixed JVM/Spark base heap rather than the
    cached data, so smaller samples carry no information about the
    data-dependent behaviour being modelled.
    """
    return np.logspace(np.log10(0.5), np.log10(60.0), 12)


@dataclass(frozen=True)
class TrainingExample:
    """One training program: its features, its label and its fitted expert."""

    program: str
    features: FeatureVector
    family: str
    fitted_function: MemoryFunction
    profile_sizes_gb: tuple[float, ...]
    profile_footprints_gb: tuple[float, ...]


@dataclass
class TrainingDataset:
    """A collection of training examples plus convenience accessors."""

    examples: list[TrainingExample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.examples)

    def names(self) -> list[str]:
        """Training program names, in collection order."""
        return [example.program for example in self.examples]

    def families(self) -> list[str]:
        """Memory-function family label of each training program."""
        return [example.family for example in self.examples]

    def feature_matrix(self) -> np.ndarray:
        """Raw 22-dimensional feature matrix (one row per program)."""
        return np.vstack([example.features.as_array() for example in self.examples])

    def example_for(self, program: str) -> TrainingExample:
        """Look up the example of a specific training program."""
        for example in self.examples:
            if example.program == program:
                return example
        raise KeyError(f"{program!r} is not in the training dataset")

    def excluding(self, programs) -> "TrainingDataset":
        """A copy of the dataset without the given program names."""
        excluded = set(programs)
        remaining = [e for e in self.examples if e.program not in excluded]
        if not remaining:
            raise ValueError("excluding these programs would empty the dataset")
        return TrainingDataset(examples=remaining)


def collect_training_data(
    specs: tuple[BenchmarkSpec, ...] | list[BenchmarkSpec] = TRAINING_BENCHMARKS,
    profiler: Profiler | None = None,
    input_sizes_gb: np.ndarray | None = None,
    seed: int = DEFAULT_TRAINING_SEED,
) -> TrainingDataset:
    """Run the offline training pipeline over the given training programs.

    Parameters
    ----------
    specs:
        Training benchmark specifications (defaults to the paper's 16
        HiBench + BigDataBench programs).
    profiler:
        Profiler used for feature extraction; a default one is created when
        omitted.
    input_sizes_gb:
        Per-executor cached-data sizes to profile the footprint curve on.
    seed:
        Seed for the observation noise of the offline profiling runs.
    """
    if not specs:
        raise ValueError("collect_training_data needs at least one benchmark")
    profiler = profiler or Profiler(seed=seed)
    sizes = (default_training_input_sizes_gb()
             if input_sizes_gb is None else np.asarray(input_sizes_gb, dtype=float))
    rng = np.random.default_rng(seed)
    examples: list[TrainingExample] = []
    for spec in specs:
        features = synthesize_features(spec, rng=rng,
                                       noise=profiler.measurement_noise)
        footprints = np.array([
            spec.observed_footprint_gb(size, rng=rng,
                                       noise=profiler.measurement_noise)
            for size in sizes
        ])
        fitted = fit_best_family(sizes, footprints,
                                 min_footprint_gb=spec.min_footprint_gb)
        examples.append(TrainingExample(
            program=spec.name,
            features=features,
            family=fitted.family,
            fitted_function=fitted,
            profile_sizes_gb=tuple(float(s) for s in sizes),
            profile_footprints_gb=tuple(float(f) for f in footprints),
        ))
    return TrainingDataset(examples=examples)


def leave_one_out_training_set(dataset: TrainingDataset,
                               target: BenchmarkSpec) -> TrainingDataset:
    """The training set to use when evaluating ``target`` (Section 5.2).

    Excludes the target program itself and every benchmark implementing the
    same algorithm in another suite.  Benchmarks that never appear in the
    dataset (e.g. Spark-Perf/Spark-Bench programs) leave the dataset
    unchanged.
    """
    to_exclude = {target.name}
    to_exclude.update(spec.name for spec in equivalent_benchmarks(target))
    present = to_exclude & set(dataset.names())
    if not present:
        return dataset
    return dataset.excluding(present)
