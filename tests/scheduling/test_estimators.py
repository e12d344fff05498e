"""Tests for the memory estimators behind the co-location schedulers."""

import numpy as np
import pytest

from repro.core.moe import MixtureOfExperts
from repro.core.training import collect_training_data
from repro.scheduling.base import ProfilingCost
from repro.scheduling.estimators import (
    ANNUnifiedEstimator,
    MoEEstimator,
    OracleEstimator,
    QuasarEstimator,
    UnifiedFamilyEstimator,
)
from repro.spark.application import SparkApplication
from repro.workloads.suites import benchmark_by_name


@pytest.fixture(scope="module")
def dataset():
    return collect_training_data(seed=0)


@pytest.fixture(scope="module")
def moe(dataset):
    return MixtureOfExperts.from_dataset(dataset)


def make_app(benchmark="BDB.PageRank", input_gb=200.0):
    spec = benchmark_by_name(benchmark)
    return SparkApplication(name=benchmark, spec=spec, input_gb=input_gb), spec


class TestProfilingCost:
    def test_total_sums_phases(self):
        cost = ProfilingCost(feature_extraction_min=0.5, calibration_min=1.0)
        assert cost.total_min == pytest.approx(1.5)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            ProfilingCost(feature_extraction_min=-1.0)


class TestOracleEstimator:
    def test_exact_footprints_and_free_profiling(self):
        estimator = OracleEstimator()
        app, spec = make_app()
        cost = estimator.prepare(app, spec)
        assert cost.total_min == 0.0
        assert estimator.footprint_gb(app.name, 20.0) == pytest.approx(
            spec.true_footprint_gb(20.0))
        assert estimator.cpu_load(app.name) == spec.cpu_load

    def test_budget_inversion_exact(self):
        estimator = OracleEstimator()
        app, spec = make_app()
        estimator.prepare(app, spec)
        data = estimator.data_for_budget_gb(app.name, 20.0)
        assert spec.true_footprint_gb(data) <= 20.0 + 1e-6


class TestMoEEstimator:
    def test_prepare_charges_profiling_and_predicts(self, moe):
        estimator = MoEEstimator(moe=moe)
        app, spec = make_app()
        cost = estimator.prepare(app, spec)
        assert cost.feature_extraction_min > 0
        assert cost.calibration_min > 0
        predicted = estimator.footprint_gb(app.name, 25.0)
        assert predicted == pytest.approx(spec.true_footprint_gb(25.0), rel=0.15)
        assert 0 < estimator.cpu_load(app.name) <= 1.0

    def test_leave_one_out_models_are_cached(self, moe, monkeypatch):
        moe._reduced.pop("HB.Sort", None)
        estimator = MoEEstimator(moe=moe)
        app, spec = make_app("HB.Sort", 50.0)
        estimator.prepare(app, spec)
        # prepare fits the reduced predictor and memoises it on the shared
        # mixture, and the prediction comes from that reduced predictor.
        loo = moe._reduced.get("HB.Sort")
        assert loo is not None
        assert "HB.Sort" not in loo.dataset.names()
        selection = estimator._predictions["HB.Sort"].selection
        assert selection.nearest_program in loo.dataset.names()
        # A second estimator (the next grid cell) reuses that fit.
        fit, fits = MixtureOfExperts.from_dataset, []
        monkeypatch.setattr(MixtureOfExperts, "from_dataset", classmethod(
            lambda cls, *args, **kwargs: fits.append(args) or fit(*args, **kwargs)))
        again = MoEEstimator(moe=moe)
        again.prepare(make_app("HB.Sort", 50.0)[0], spec)
        assert fits == []
        assert moe._reduced["HB.Sort"] is loo

    def test_generic_budget_inversion_respects_prediction(self, moe):
        estimator = MoEEstimator(moe=moe)
        app, spec = make_app()
        estimator.prepare(app, spec)
        data = estimator.data_for_budget_gb(app.name, 18.0)
        assert estimator.footprint_gb(app.name, data) <= 18.0 + 1e-6


class TestUnifiedAndQuasarEstimators:
    def test_unified_family_uses_fixed_family(self):
        estimator = UnifiedFamilyEstimator("exponential")
        app, spec = make_app("BDB.PageRank", 200.0)
        estimator.prepare(app, spec)
        # An exponential fitted to a logarithmic application saturates:
        # predictions at large sizes under-estimate the true footprint.
        assert estimator.footprint_gb(app.name, 40.0) < spec.true_footprint_gb(40.0)

    def test_unified_family_validates_name(self):
        with pytest.raises(KeyError):
            UnifiedFamilyEstimator("not-a-family")

    def test_ann_estimator_reasonable_for_training_like_programs(self, dataset):
        estimator = ANNUnifiedEstimator(dataset=dataset, n_iter=800)
        app, spec = make_app("HB.PageRank", 200.0)
        cost = estimator.prepare(app, spec)
        assert cost.calibration_min == 0.0  # the ANN needs no calibration runs
        predicted = estimator.footprint_gb(app.name, 20.0)
        assert predicted == pytest.approx(spec.true_footprint_gb(20.0), rel=0.5)

    def test_quasar_matches_a_training_program_and_quantizes(self, dataset):
        estimator = QuasarEstimator(dataset=dataset)
        app, spec = make_app("SP.Kmeans", 100.0)
        estimator.prepare(app, spec)
        matched = estimator.matched_program(app.name)
        assert matched in dataset.names()
        footprint = estimator.footprint_gb(app.name, 25.0)
        assert footprint % estimator.allocation_quantum_gb == pytest.approx(0.0)
        assert footprint >= spec.true_footprint_gb(25.0) * 0.5

    def test_quasar_requires_training_data(self, dataset):
        with pytest.raises(ValueError):
            QuasarEstimator(dataset=dataset.__class__(examples=[]))

    def test_quasar_rejects_bad_quantum(self, dataset):
        with pytest.raises(ValueError):
            QuasarEstimator(dataset=dataset, allocation_quantum_gb=0.0)


class TestFootprintBatch:
    """One-shot batched inference must be bit-identical to per-row calls.

    ``footprint_batch`` is the contract behind the co-location
    dispatcher's per-epoch prefetch: any ulp of drift between a batched
    prediction and the equivalent ``footprint_gb`` call would fork a
    placement against the scalar parity oracle, so equality here is
    exact (``==``), never approximate.
    """

    QUERIES = [("BDB.PageRank", 20.0), ("HB.PageRank", 3.5),
               ("SP.Kmeans", 0.25), ("BDB.PageRank", 7.75),
               ("HB.Sort", 40.0)]

    def prepared(self, estimator):
        names, datas = [], []
        for benchmark, data_gb in self.QUERIES:
            app, spec = make_app(benchmark, 200.0)
            estimator.prepare(app, spec)
            names.append(app.name)
            datas.append(data_gb)
        return names, np.asarray(datas, dtype=np.float64)

    def assert_batch_matches_rows(self, estimator):
        names, datas = self.prepared(estimator)
        batched = estimator.footprint_batch(names, datas)
        assert batched.dtype == np.float64
        assert batched.shape == (len(names),)
        for i, (name, data_gb) in enumerate(zip(names, datas)):
            assert batched[i] == estimator.footprint_gb(name, float(data_gb)), (
                f"{type(estimator).__name__}: batched footprint for "
                f"{name!r}@{data_gb}GB drifted from the scalar call")

    def test_oracle_batch_is_bit_identical(self):
        self.assert_batch_matches_rows(OracleEstimator())

    def test_moe_batch_is_bit_identical(self, moe):
        self.assert_batch_matches_rows(MoEEstimator(moe=moe))

    def test_quasar_batch_is_bit_identical(self, dataset):
        self.assert_batch_matches_rows(QuasarEstimator(dataset=dataset))

    def test_unified_family_batch_is_bit_identical(self):
        self.assert_batch_matches_rows(UnifiedFamilyEstimator("exponential"))

    def test_ann_batch_is_bit_identical(self, dataset):
        # The override that actually amortizes the feature pipeline — the
        # forward pass stays row-at-a-time because BLAS matrix-matrix
        # products are not bit-stable against row-vector products.
        self.assert_batch_matches_rows(
            ANNUnifiedEstimator(dataset=dataset, n_iter=800))

    def test_empty_batch(self, dataset):
        for estimator in (OracleEstimator(),
                          ANNUnifiedEstimator(dataset=dataset, n_iter=800)):
            out = estimator.footprint_batch([], np.zeros(0))
            assert out.shape == (0,)
