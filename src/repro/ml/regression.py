"""Regression families used as memory-function "experts".

Table 1 of the paper lists the modelling techniques used to describe how an
application's memory footprint grows with its input size:

* (piecewise) linear regression, written by the paper as ``y = m * x^b``
  (a power law, which degenerates to a straight line when ``b = 1``);
* exponential (saturating) regression ``y = m * (1 - exp(-b * x))``;
* Napierian logarithmic regression ``y = m + ln(x) * b``.

Each family exposes the same small interface: ``fit`` from observed
``(x, y)`` samples, ``predict`` footprints for new input sizes, and
``calibrate`` the two coefficients from exactly two profiling measurements
(the paper's runtime calibration uses 5 % and 10 % of the input items).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegressionModel",
    "LinearRegression",
    "PowerLawRegression",
    "ExponentialSaturationRegression",
    "NapierianLogRegression",
    "fit_least_squares",
]


def fit_least_squares(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Solve an ordinary least-squares problem ``design @ coeffs ≈ target``."""
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    coeffs, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    return coeffs


@dataclass
class RegressionModel:
    """Base class for the two-parameter memory-function families.

    Attributes
    ----------
    m, b:
        The two coefficients of the family.  ``None`` until fitted or
        calibrated.
    """

    m: float | None = None
    b: float | None = None

    #: short machine-readable family name, overridden by subclasses
    name: str = "base"

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RegressionModel":
        """Fit the coefficients from many observed samples."""
        raise NotImplementedError

    def predict(self, x) -> np.ndarray:
        """Predict the footprint for one or many input sizes."""
        raise NotImplementedError

    def calibrate(self, x1: float, y1: float, x2: float, y2: float) -> "RegressionModel":
        """Instantiate the coefficients from exactly two measurements.

        This mirrors the paper's runtime model calibration, which profiles
        the application on two small, different-sized subsets of the input
        and solves the function equation for ``m`` and ``b``.
        """
        raise NotImplementedError

    def _require_fitted(self) -> None:
        if self.m is None or self.b is None:
            raise RuntimeError(f"{type(self).__name__} has not been fitted")

    def error(self, x: np.ndarray, y: np.ndarray) -> float:
        """Root-mean-squared error of the fit on the given samples."""
        predictions = self.predict(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        return float(np.sqrt(np.mean((predictions - y) ** 2)))


class LinearRegression(RegressionModel):
    """Straight-line model ``y = m * x + b``.

    The degenerate member of the paper's "(piecewise) linear" family; it is
    also used as the building block of the piecewise/power-law variant.
    """

    name = "linear"

    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size < 2:
            raise ValueError("linear regression needs at least two samples")
        design = np.column_stack([x, np.ones_like(x)])
        slope, intercept = fit_least_squares(design, y)
        self.m, self.b = float(slope), float(intercept)
        return self

    def predict(self, x):
        self._require_fitted()
        x = np.asarray(x, dtype=float)
        return self.m * x + self.b

    def calibrate(self, x1, y1, x2, y2):
        if x1 == x2:
            raise ValueError("calibration points must have distinct input sizes")
        self.m = (y2 - y1) / (x2 - x1)
        self.b = y1 - self.m * x1
        return self


class PowerLawRegression(RegressionModel):
    """Power-law model ``y = m * x ** b`` (the paper's Table 1 linear family).

    Fitting is done in log-log space, which turns the power law into a
    straight line; calibration from two points solves the same system
    exactly.
    """

    name = "power_law"

    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(x <= 0) or np.any(y <= 0):
            raise ValueError("power-law regression requires positive samples")
        if x.size < 2:
            raise ValueError("power-law regression needs at least two samples")
        design = np.column_stack([np.log(x), np.ones_like(x)])
        exponent, log_scale = fit_least_squares(design, np.log(y))
        self.b = float(exponent)
        self.m = float(np.exp(log_scale))
        return self

    def predict(self, x):
        self._require_fitted()
        x = np.asarray(x, dtype=float)
        return self.m * np.power(np.clip(x, 1e-12, None), self.b)

    def calibrate(self, x1, y1, x2, y2):
        if min(x1, x2, y1, y2) <= 0:
            raise ValueError("power-law calibration requires positive measurements")
        if x1 == x2:
            raise ValueError("calibration points must have distinct input sizes")
        self.b = float(np.log(y2 / y1) / np.log(x2 / x1))
        self.m = float(y1 / (x1 ** self.b))
        return self


#: Log grid over the bounds of the exponential family's ``b`` that
#: brackets the best fit; neighbouring points are 0.23 apart in ``log b``.
_EXP_LOG_B_GRID = np.linspace(np.log(1e-9), np.log(1e9), 181)
#: Golden-section steps refining that bracket; they shrink it by
#: 0.618**60 ≈ 3e-13, to about the float resolution of ``log b``.
_EXP_GOLDEN_STEPS = 60
_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class ExponentialSaturationRegression(RegressionModel):
    """Saturating exponential ``y = m * (1 - exp(-b * x))``.

    The paper fits this family to applications such as Sort, whose footprint
    grows quickly and then saturates near the executor heap limit
    (Figure 3a: ``m = 5.768``, ``b = 4.479``).
    """

    name = "exponential"

    def fit(self, x, y):
        """Least-squares fit with ``m`` in ``[0.7, 1e3] × max(y)`` and
        ``b`` in ``[1e-9, 1e9]``.

        For a fixed ``b`` the best ``m`` is ``g·y / g·g`` with
        ``g = 1 - exp(-b x)``, clipped to its bounds, so the fit is a 1-D
        search over ``log b``: a log grid brackets the best point and
        golden-section search refines it.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape:
            raise ValueError("sizes and footprints must have the same shape")
        if x.size < 2:
            raise ValueError("exponential regression needs at least two samples")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("exponential regression requires finite samples")
        if np.any(y <= 0):
            raise ValueError("exponential regression requires positive footprints")
        y_max = float(y.max())

        def solve(log_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """The best ``m`` and its squared residual for each ``log b``."""
            g = -np.expm1(-np.exp(log_b)[:, None] * x)
            m = np.clip(g @ y / (g * g).sum(axis=1), 0.7 * y_max, 1e3 * y_max)
            residual = m[:, None] * g - y
            return m, (residual * residual).sum(axis=1)

        def sse(log_b: float) -> float:
            return float(solve(np.array([log_b]))[1][0])

        grid = _EXP_LOG_B_GRID
        best = int(np.argmin(solve(grid)[1]))
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
        c, d = hi - _INV_GOLDEN * (hi - lo), lo + _INV_GOLDEN * (hi - lo)
        fc, fd = sse(c), sse(d)
        for _ in range(_EXP_GOLDEN_STEPS):
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - _INV_GOLDEN * (hi - lo)
                fc = sse(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + _INV_GOLDEN * (hi - lo)
                fd = sse(d)
        log_b = c if fc < fd else d
        self.m = float(solve(np.array([log_b]))[0][0])
        self.b = float(np.exp(log_b))
        return self

    def predict(self, x):
        self._require_fitted()
        x = np.asarray(x, dtype=float)
        return self.m * (1.0 - np.exp(-self.b * np.clip(x, 0.0, None)))

    def calibrate(self, x1, y1, x2, y2):
        if x1 == x2:
            raise ValueError("calibration points must have distinct input sizes")
        if min(y1, y2) <= 0:
            raise ValueError("exponential calibration requires positive footprints")
        # Solve m*(1-exp(-b*x1)) = y1 and m*(1-exp(-b*x2)) = y2 numerically
        # for b via bisection on the ratio equation, then back out m.
        if x1 > x2:
            x1, x2, y1, y2 = x2, x1, y2, y1
        target_ratio = y2 / y1

        def ratio(b: float) -> float:
            return (1.0 - np.exp(-b * x2)) / (1.0 - np.exp(-b * x1))

        lo, hi = 1e-9, 1.0
        # Expand until the bracket contains the target (ratio is decreasing
        # in b and tends to x2/x1 as b -> 0, to 1 as b -> inf).
        max_ratio = x2 / x1
        target_ratio = min(target_ratio, max_ratio * (1 - 1e-12))
        target_ratio = max(target_ratio, 1.0 + 1e-12)
        while ratio(hi) > target_ratio and hi < 1e9:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if ratio(mid) > target_ratio:
                lo = mid
            else:
                hi = mid
        self.b = float(0.5 * (lo + hi))
        self.m = float(y1 / (1.0 - np.exp(-self.b * x1)))
        return self


class NapierianLogRegression(RegressionModel):
    """Napierian logarithmic model ``y = m + ln(x) * b``.

    The paper fits this family to applications such as PageRank
    (Figure 3b: ``m = 16.333``, ``b = 1.79``).
    """

    name = "napierian_log"

    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(x <= 0):
            raise ValueError("logarithmic regression requires positive input sizes")
        if x.size < 2:
            raise ValueError("logarithmic regression needs at least two samples")
        design = np.column_stack([np.ones_like(x), np.log(x)])
        intercept, slope = fit_least_squares(design, y)
        self.m, self.b = float(intercept), float(slope)
        return self

    def predict(self, x):
        self._require_fitted()
        x = np.asarray(x, dtype=float)
        return self.m + np.log(np.clip(x, 1e-12, None)) * self.b

    def calibrate(self, x1, y1, x2, y2):
        if min(x1, x2) <= 0:
            raise ValueError("logarithmic calibration requires positive input sizes")
        if x1 == x2:
            raise ValueError("calibration points must have distinct input sizes")
        self.b = (y2 - y1) / (np.log(x2) - np.log(x1))
        self.m = y1 - self.b * np.log(x1)
        return self
