"""Tests for offline training and the MixtureOfExperts facade."""

import numpy as np
import pytest

from repro.core.moe import MixtureOfExperts
from repro.core.training import (
    collect_training_data,
    default_training_input_sizes_gb,
    leave_one_out_training_set,
)
from repro.profiling.profiler import Profiler
from repro.workloads.suites import ALL_BENCHMARKS, TRAINING_BENCHMARKS, benchmark_by_name


#: ``(m, b)`` of each exponential-labelled program at the default
#: training seed, as a bounded trust-region least-squares fit found them.
#: Quasar serves these functions at runtime, so the fit must keep them.
EXPONENTIAL_COEFFICIENTS = {
    "HB.Sort": (5.7590732465971435, 4.4612690389634935),
    "HB.TeraSort": (6.408676316905461, 2.9057117814533524),
    "HB.WordCount": (4.095989682396944, 3.6591493118808964),
    "HB.Scan": (3.196685461806034, 5.017389461849578),
    "HB.Aggregation": (4.8114682648509906, 2.941777357738821),
    "HB.Join": (5.282903477880658, 2.4523415829388426),
    "BDB.WordCount": (3.698322156500539, 4.281650750393321),
    "BDB.Grep": (2.900949497336641, 5.000740618888059),
}


@pytest.fixture(scope="module")
def dataset():
    return collect_training_data(seed=0)


@pytest.fixture(scope="module")
def moe(dataset):
    return MixtureOfExperts.from_dataset(dataset)


class TestTrainingDataset:
    def test_trains_on_the_16_hibench_bigdatabench_programs(self, dataset):
        assert len(dataset) == 16
        assert set(dataset.names()) == {s.name for s in TRAINING_BENCHMARKS}

    def test_every_family_is_represented(self, dataset):
        assert set(dataset.families()) == {
            "power_law", "exponential", "napierian_log"
        }

    def test_offline_labels_match_ground_truth(self, dataset):
        for spec in TRAINING_BENCHMARKS:
            assert dataset.example_for(spec.name).family == spec.memory_behavior.value

    def test_exponential_coefficients_are_kept(self, dataset):
        exponential = {example.program for example in dataset.examples
                       if example.family == "exponential"}
        assert exponential == set(EXPONENTIAL_COEFFICIENTS)
        for program, (m, b) in EXPONENTIAL_COEFFICIENTS.items():
            fitted = dataset.example_for(program).fitted_function.coefficients
            assert fitted == pytest.approx((m, b), rel=1e-6), program

    def test_feature_matrix_shape(self, dataset):
        assert dataset.feature_matrix().shape == (16, 22)

    def test_profile_curves_recorded(self, dataset):
        example = dataset.example_for("HB.Sort")
        assert len(example.profile_sizes_gb) == len(default_training_input_sizes_gb())
        assert all(f > 0 for f in example.profile_footprints_gb)

    def test_excluding_removes_programs(self, dataset):
        reduced = dataset.excluding(["HB.Sort", "BDB.Sort"])
        assert len(reduced) == 14
        with pytest.raises(KeyError):
            reduced.example_for("HB.Sort")

    def test_excluding_everything_raises(self, dataset):
        with pytest.raises(ValueError):
            dataset.excluding(dataset.names())

    def test_empty_spec_list_raises(self):
        with pytest.raises(ValueError):
            collect_training_data(specs=[])

    def test_leave_one_out_excludes_equivalent_benchmarks(self, dataset):
        target = benchmark_by_name("HB.Sort")
        reduced = leave_one_out_training_set(dataset, target)
        assert "HB.Sort" not in reduced.names()
        assert "BDB.Sort" not in reduced.names()

    def test_leave_one_out_no_op_for_unseen_benchmark(self, dataset):
        target = benchmark_by_name("SP.Gmm")
        assert leave_one_out_training_set(dataset, target) is dataset


class TestMixtureOfExperts:
    def test_predicts_correct_family_for_every_benchmark(self, moe):
        profiler = Profiler(seed=3)
        for spec in ALL_BENCHMARKS:
            report = profiler.profile(spec.name, spec, 280.0)
            prediction = moe.for_target(spec).predict_from_report(report)
            assert prediction.family == spec.memory_behavior.value, spec.name

    def test_footprint_error_is_small(self, moe):
        # Section 6.9: average prediction error around 5 %.
        profiler = Profiler(seed=5)
        errors = []
        for spec in ALL_BENCHMARKS:
            report = profiler.profile(spec.name, spec, 280.0)
            prediction = moe.for_target(spec).predict_from_report(report)
            truth = spec.true_footprint_gb(25.0)
            errors.append(abs(prediction.footprint_gb(25.0) - truth) / truth)
        assert float(np.mean(errors)) < 0.06
        assert float(np.max(errors)) < 0.20

    def test_prediction_confidence_and_nearest_program(self, moe):
        profiler = Profiler(seed=1)
        spec = benchmark_by_name("SP.Kmeans")
        report = profiler.profile(spec.name, spec, 100.0)
        prediction = moe.predict_from_report(report)
        assert prediction.confident
        assert prediction.selection.nearest_program in moe.dataset.names()

    def test_budget_inversion_round_trips(self, moe):
        profiler = Profiler(seed=2)
        spec = benchmark_by_name("BDB.PageRank")
        report = profiler.profile(spec.name, spec, 200.0)
        prediction = moe.for_target(spec).predict_from_report(report)
        data = prediction.data_for_budget_gb(24.0)
        assert prediction.footprint_gb(data) <= 24.0 + 1e-6

    def test_excluding_retrains_without_programs(self, moe):
        reduced = moe.excluding(["HB.Sort"])
        assert "HB.Sort" not in reduced.dataset.names()
        assert len(reduced.dataset) == len(moe.dataset) - 1

    def test_for_target_returns_same_instance_for_unseen_program(self, moe):
        assert moe.for_target(benchmark_by_name("SB.SVM")) is moe

    def test_train_classmethod_end_to_end(self):
        small = MixtureOfExperts.train(specs=TRAINING_BENCHMARKS[:6], seed=1)
        assert len(small.dataset) == 6
