"""Unit tests for the arrival processes (inter-arrival statistics)."""

import numpy as np
import pytest

from repro.workloads import Job
from repro.workloads.arrivals import (
    ARRIVAL_KINDS,
    DEFAULT_DIURNAL_PROFILE,
    ArrivalSpec,
)

JOBS = [Job("HB.Sort", 10.0, order=0), Job("BDB.Grep", 20.0, order=1),
        Job("HB.Scan", 5.0, order=2)]


class TestBatch:
    def test_all_jobs_arrive_at_time_zero(self):
        times = ArrivalSpec(kind="batch").arrival_times(50, np.random.default_rng(1))
        assert np.all(times == 0.0)

    def test_apply_returns_jobs_unchanged_bit_for_bit(self):
        # The seed Table-3 scenarios flow through this path; equality must
        # be exact, not approximate.
        spec = ArrivalSpec(kind="batch")
        assert spec.apply(JOBS, np.random.default_rng(1)) == JOBS


class TestPoisson:
    def test_interarrival_mean_matches_rate(self):
        rate = 0.25  # one job every 4 minutes
        spec = ArrivalSpec(kind="poisson", rate_per_min=rate)
        times = spec.arrival_times(4000, np.random.default_rng(7))
        gaps = np.diff(np.concatenate([[0.0], times]))
        assert gaps.mean() == pytest.approx(1.0 / rate, rel=0.05)
        # Exponential gaps: std ~ mean (coefficient of variation ~ 1).
        assert gaps.std() == pytest.approx(gaps.mean(), rel=0.1)

    def test_times_are_non_decreasing_and_reproducible(self):
        spec = ArrivalSpec(kind="poisson", rate_per_min=0.1)
        a = spec.arrival_times(100, np.random.default_rng(3))
        b = spec.arrival_times(100, np.random.default_rng(3))
        assert np.all(np.diff(a) >= 0)
        assert np.array_equal(a, b)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSpec(kind="poisson", rate_per_min=0.0)


class TestBursty:
    def test_every_arrival_lands_inside_an_on_window(self):
        spec = ArrivalSpec(kind="bursty", rate_per_min=0.5,
                           on_min=15.0, off_min=45.0)
        times = spec.arrival_times(500, np.random.default_rng(5))
        cycle = 15.0 + 45.0
        position = times % cycle
        assert np.all(position <= 15.0 + 1e-9)

    def test_on_rate_matches_requested_rate(self):
        spec = ArrivalSpec(kind="bursty", rate_per_min=0.5,
                           on_min=20.0, off_min=40.0)
        times = spec.arrival_times(3000, np.random.default_rng(9))
        # Strip the OFF gaps back out: the on-axis process is plain Poisson.
        cycles = np.floor(times / 60.0)
        on_axis = times - cycles * 40.0
        gaps = np.diff(np.concatenate([[0.0], on_axis]))
        assert gaps.mean() == pytest.approx(2.0, rel=0.05)

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSpec(kind="bursty", on_min=0.0)
        with pytest.raises(ValueError):
            ArrivalSpec(kind="bursty", off_min=-1.0)


class TestDiurnal:
    def test_arrivals_concentrate_in_high_intensity_buckets(self):
        profile = (1.0, 1.0, 10.0, 10.0)  # second half of the period is 10x
        spec = ArrivalSpec(kind="diurnal", rate_per_min=0.5,
                           period_min=100.0, profile=profile)
        times = spec.arrival_times(2000, np.random.default_rng(11))
        in_peak = np.sum((times % 100.0) >= 50.0)
        assert in_peak / 2000 == pytest.approx(10.0 / 11.0, abs=0.05)

    def test_mean_rate_matches_requested_rate(self):
        spec = ArrivalSpec(kind="diurnal", rate_per_min=0.2, period_min=60.0,
                           profile=(1.0, 3.0, 2.0))
        n = 3000
        times = spec.arrival_times(n, np.random.default_rng(13))
        assert n / times[-1] == pytest.approx(0.2, rel=0.1)

    def test_default_profile_is_a_day(self):
        assert len(DEFAULT_DIURNAL_PROFILE) == 24
        spec = ArrivalSpec(kind="diurnal", rate_per_min=0.1)
        assert spec.period_min == 1440.0

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSpec(kind="diurnal", profile=())
        with pytest.raises(ValueError):
            ArrivalSpec(kind="diurnal", profile=(0.0, 0.0))
        with pytest.raises(ValueError):
            ArrivalSpec(kind="diurnal", profile=(1.0, -1.0))


class TestSpecInterface:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSpec(kind="carrier_pigeon")

    def test_apply_preserves_benchmarks_and_order(self):
        spec = ArrivalSpec(kind="poisson", rate_per_min=0.1)
        stamped = spec.apply(JOBS, np.random.default_rng(2))
        assert [j.benchmark for j in stamped] == [j.benchmark for j in JOBS]
        assert [j.order for j in stamped] == [0, 1, 2]
        times = [j.submit_time_min for j in stamped]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    @pytest.mark.parametrize("kind", ARRIVAL_KINDS)
    def test_dict_round_trip(self, kind):
        spec = ArrivalSpec(kind=kind, rate_per_min=0.3, on_min=5.0,
                           off_min=10.0, period_min=120.0, profile=(1.0, 2.0))
        restored = ArrivalSpec.from_dict(spec.to_dict())
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        assert np.array_equal(spec.arrival_times(20, rng_a),
                              restored.arrival_times(20, rng_b))

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ArrivalSpec.from_dict({"kind": "poisson", "rate_per_hour": 6})

    def test_zero_jobs_is_fine(self):
        spec = ArrivalSpec(kind="poisson", rate_per_min=1.0)
        assert spec.arrival_times(0, np.random.default_rng(0)).size == 0


class TestBoundaryValidation:
    """Non-finite and boolean numbers fail at construction, naming the
    field, from the constructor and from ``from_dict``.  Before, a NaN
    rate drew NaN arrival times and an infinite one drew all zeros."""

    NAN, INF = float("nan"), float("inf")
    BAD = [
        ("rate_per_min", {"kind": "poisson", "rate_per_min": NAN}),
        ("rate_per_min", {"kind": "poisson", "rate_per_min": INF}),
        ("rate_per_min", {"kind": "poisson", "rate_per_min": True}),
        ("on_min", {"kind": "bursty", "on_min": NAN}),
        ("off_min", {"kind": "bursty", "off_min": INF}),
        ("period_min", {"kind": "diurnal", "period_min": NAN}),
        ("profile", {"kind": "diurnal", "profile": (1.0, NAN)}),
    ]

    @pytest.mark.parametrize("field,fields", BAD,
                             ids=[f"{f}-{i}" for i, (f, _) in enumerate(BAD)])
    def test_constructor_rejects(self, field, fields):
        with pytest.raises(ValueError, match=field):
            ArrivalSpec(**fields)

    @pytest.mark.parametrize("field,fields", BAD,
                             ids=[f"{f}-{i}" for i, (f, _) in enumerate(BAD)])
    def test_from_dict_rejects(self, field, fields):
        with pytest.raises(ValueError, match=field):
            ArrivalSpec.from_dict(fields)
