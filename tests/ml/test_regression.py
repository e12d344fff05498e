"""Tests for the memory-function regression families (paper Table 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.training import default_training_input_sizes_gb
from repro.ml import (
    ExponentialSaturationRegression,
    LinearRegression,
    NapierianLogRegression,
    PowerLawRegression,
)

#: The offline profiling grid every training curve is sampled on.
TRAINING_GRID = default_training_input_sizes_gb()


def assert_within_exponential_bounds(model, y):
    y_max = float(np.max(y))
    assert np.isfinite(model.m) and np.isfinite(model.b)
    assert 0.7 * y_max <= model.m <= 1e3 * y_max
    assert 1e-9 <= model.b <= 1e9


class TestLinearRegression:
    def test_recovers_exact_line(self):
        x = np.linspace(1, 100, 20)
        model = LinearRegression().fit(x, 2.5 * x + 3.0)
        assert model.m == pytest.approx(2.5)
        assert model.b == pytest.approx(3.0)

    def test_two_point_calibration_matches_fit(self):
        calibrated = LinearRegression().calibrate(5.0, 13.0, 10.0, 23.0)
        assert calibrated.predict(20.0) == pytest.approx(43.0)

    def test_calibration_rejects_identical_points(self):
        with pytest.raises(ValueError):
            LinearRegression().calibrate(5.0, 1.0, 5.0, 2.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LinearRegression().predict(1.0)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.array([1.0]), np.array([2.0]))

    @given(
        st.floats(0.1, 50.0),
        st.floats(0.0, 100.0),
        st.floats(1.0, 500.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_calibration_reproduces_generating_line(self, m, b, x):
        model = LinearRegression().calibrate(1.0, m * 1.0 + b, 7.0, m * 7.0 + b)
        assert model.predict(x) == pytest.approx(m * x + b, rel=1e-6, abs=1e-6)


class TestPowerLawRegression:
    def test_recovers_power_law(self):
        x = np.logspace(-1, 3, 30)
        model = PowerLawRegression().fit(x, 4.0 * x ** 0.7)
        assert model.m == pytest.approx(4.0, rel=1e-6)
        assert model.b == pytest.approx(0.7, rel=1e-6)

    def test_two_point_calibration(self):
        model = PowerLawRegression().calibrate(1.0, 4.0, 16.0, 4.0 * 16.0 ** 0.5)
        assert model.b == pytest.approx(0.5, rel=1e-9)
        assert model.predict(9.0) == pytest.approx(12.0, rel=1e-9)

    def test_rejects_non_positive_samples(self):
        with pytest.raises(ValueError):
            PowerLawRegression().fit(np.array([0.0, 1.0]), np.array([1.0, 2.0]))

    def test_calibration_rejects_non_positive_points(self):
        with pytest.raises(ValueError):
            PowerLawRegression().calibrate(0.0, 1.0, 2.0, 3.0)


class TestExponentialSaturationRegression:
    def test_fits_paper_sort_curve(self):
        # Paper Figure 3a: Sort follows y = 5.768 * (1 - exp(-4.479 x)).
        x = np.array([0.001, 0.01, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0])
        y = 5.768 * (1.0 - np.exp(-4.479 * x))
        model = ExponentialSaturationRegression().fit(x, y)
        predictions = model.predict(x)
        assert np.allclose(predictions, y, rtol=0.08)

    def test_calibration_recovers_parameters(self):
        truth = ExponentialSaturationRegression(m=8.0, b=0.5)
        x1, x2 = 1.0, 3.0
        model = ExponentialSaturationRegression().calibrate(
            x1, float(truth.predict(x1)), x2, float(truth.predict(x2))
        )
        assert model.m == pytest.approx(8.0, rel=1e-3)
        assert model.b == pytest.approx(0.5, rel=1e-3)

    def test_prediction_saturates_at_m(self):
        model = ExponentialSaturationRegression(m=6.0, b=2.0)
        assert model.predict(1e6) == pytest.approx(6.0)

    def test_prediction_is_monotone_increasing(self):
        model = ExponentialSaturationRegression(m=6.0, b=2.0)
        x = np.linspace(0, 10, 50)
        assert np.all(np.diff(model.predict(x)) >= 0)

    def test_calibration_rejects_identical_points(self):
        with pytest.raises(ValueError):
            ExponentialSaturationRegression().calibrate(1.0, 2.0, 1.0, 2.0)

    @pytest.mark.parametrize("x, y, reason", [
        ([1.0], [2.0], "two samples"),
        ([1.0, 2.0], [1.0, 0.0], "positive"),
        ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0], "finite"),
        ([1.0, 2.0, np.inf], [1.0, 2.0, 3.0], "finite"),
        ([1.0, 2.0, 3.0], [1.0, np.nan, 3.0], "finite"),
        ([1.0, 2.0, 3.0], [1.0, 2.0, np.inf], "finite"),
        ([1.0, 2.0, 3.0], [1.0, 2.0], "shape"),
        ([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0, 3.0, 4.0], "shape"),
    ], ids=["one-sample", "zero-footprint", "nan-size", "inf-size",
            "nan-footprint", "inf-footprint", "short-footprints", "2d-sizes"])
    def test_fit_rejects_malformed_samples(self, x, y, reason):
        with pytest.raises(ValueError, match=reason):
            ExponentialSaturationRegression().fit(np.array(x), np.array(y))

    def test_decreasing_curve_beats_the_old_local_minimum(self):
        # On y = 10/x a local bounded trust-region fit started from the
        # small-x slope stops at a local minimum: m = 14 (the lower
        # bound), b ≈ 53.0, RMSE 11.037.
        y = 10.0 / TRAINING_GRID
        model = ExponentialSaturationRegression().fit(TRAINING_GRID, y)
        assert_within_exponential_bounds(model, y)
        assert model.error(TRAINING_GRID, y) < 11.037

    def test_flat_curve_fits_inside_the_bounds(self):
        y = np.full_like(TRAINING_GRID, 3.0)
        model = ExponentialSaturationRegression().fit(TRAINING_GRID, y)
        assert_within_exponential_bounds(model, y)
        assert model.error(TRAINING_GRID, y) < 1e-9

    @given(st.floats(1.0, 50.0), st.floats(0.05, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_property_noise_free_fit_round_trips(self, m, b):
        y = m * (1.0 - np.exp(-b * TRAINING_GRID))
        model = ExponentialSaturationRegression().fit(TRAINING_GRID, y)
        assert model.m == pytest.approx(m, rel=1e-9)
        assert model.b == pytest.approx(b, rel=1e-9)

    @given(st.floats(2.0, 40.0), st.floats(0.05, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_property_calibration_round_trips(self, m, b):
        truth = ExponentialSaturationRegression(m=m, b=b)
        x1, x2 = 0.5, 2.0
        model = ExponentialSaturationRegression().calibrate(
            x1, float(truth.predict(x1)), x2, float(truth.predict(x2))
        )
        for x in (0.25, 1.0, 4.0):
            assert model.predict(x) == pytest.approx(truth.predict(x), rel=1e-2)


class TestNapierianLogRegression:
    def test_fits_paper_pagerank_curve(self):
        # Paper Figure 3b: PageRank follows y = 16.333 + ln(x) * 1.79.
        x = np.logspace(-2, 3, 25)
        y = 16.333 + np.log(x) * 1.79
        model = NapierianLogRegression().fit(x, y)
        assert model.m == pytest.approx(16.333, rel=1e-6)
        assert model.b == pytest.approx(1.79, rel=1e-6)

    def test_two_point_calibration(self):
        truth = NapierianLogRegression(m=16.333, b=1.79)
        model = NapierianLogRegression().calibrate(
            1.0, float(truth.predict(1.0)), 100.0, float(truth.predict(100.0))
        )
        assert model.predict(10.0) == pytest.approx(truth.predict(10.0), rel=1e-9)

    def test_rejects_non_positive_input_sizes(self):
        with pytest.raises(ValueError):
            NapierianLogRegression().fit(np.array([-1.0, 2.0]), np.array([1.0, 2.0]))

    def test_error_reports_rmse(self):
        model = NapierianLogRegression(m=1.0, b=0.0)
        x = np.array([1.0, 2.0, 3.0])
        assert model.error(x, np.array([2.0, 2.0, 2.0])) == pytest.approx(1.0)
