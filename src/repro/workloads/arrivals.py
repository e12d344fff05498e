"""Arrival processes: when the jobs of a scenario enter the queue.

The paper's Table-3 scenarios are *closed batches* — every application is
submitted together at t=0 and the schedulers compete on draining the
backlog.  Open systems look different: jobs trickle in over time, arrive in
bursts, or follow a daily load curve, and a scheduler that wins on batch
drain can lose on arrival absorption.  This module provides the arrival
processes the scenario subsystem (:mod:`repro.scenarios`) composes with a
workload source and a cluster topology:

``batch``
    Everything at t=0 (the seed behaviour; the identity process).
``poisson``
    Open arrivals with exponential inter-arrival times at a constant mean
    rate — the standard open-system model.
``bursty``
    An on/off (interrupted Poisson) process: arrivals come at the burst
    rate during ON windows and not at all during OFF windows, stressing a
    scheduler's burst absorption.
``diurnal``
    A non-homogeneous Poisson process whose intensity replays a relative
    load profile over a repeating period (by default a 24-hour curve with a
    business-hours peak), the shape production traces exhibit.

Every process is driven by a caller-supplied :class:`numpy.random.Generator`
so one seeded generator can reproduce a full scenario exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro._checks import require_finite
from repro.workloads.mixes import Job

__all__ = [
    "ARRIVAL_KINDS",
    "DEFAULT_DIURNAL_PROFILE",
    "ArrivalSpec",
    "batch_arrival_times",
    "poisson_arrival_times",
    "bursty_arrival_times",
    "diurnal_arrival_times",
]

#: Arrival-process kinds understood by :class:`ArrivalSpec`.
ARRIVAL_KINDS: tuple[str, ...] = ("batch", "poisson", "bursty", "diurnal")

#: Relative load per hour of a 24-hour day: low overnight, ramping through
#: the morning to a mid-day plateau, easing off in the evening.  Only the
#: *shape* matters — the diurnal process rescales it to the requested mean
#: rate.
DEFAULT_DIURNAL_PROFILE: tuple[float, ...] = (
    1.0, 1.0, 1.0, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 10.0, 10.0, 9.0,
    8.0, 9.0, 10.0, 10.0, 9.0, 8.0, 6.0, 4.0, 3.0, 2.0, 1.5, 1.0,
)


def batch_arrival_times(n: int, rng: np.random.Generator) -> np.ndarray:
    """All ``n`` jobs at t=0 — the paper's closed-batch submission."""
    del rng  # deterministic; accepted for interface uniformity
    return np.zeros(n)


def poisson_arrival_times(n: int, rng: np.random.Generator,
                          rate_per_min: float) -> np.ndarray:
    """Open Poisson arrivals: exponential inter-arrival times, mean 1/rate."""
    if rate_per_min <= 0:
        raise ValueError("rate_per_min must be positive")
    return np.cumsum(rng.exponential(1.0 / rate_per_min, size=n))


def bursty_arrival_times(n: int, rng: np.random.Generator,
                         rate_per_min: float, on_min: float,
                         off_min: float) -> np.ndarray:
    """On/off arrivals: Poisson at ``rate_per_min`` during ON windows only.

    The process is an interrupted Poisson process with deterministic window
    lengths: arrivals are drawn on the concatenated ON-time axis and then
    mapped back to wall-clock time by inserting the OFF gaps, so every
    arrival lands inside an ON window by construction.
    """
    if rate_per_min <= 0:
        raise ValueError("rate_per_min must be positive")
    if on_min <= 0:
        raise ValueError("on_min must be positive")
    if off_min < 0:
        raise ValueError("off_min cannot be negative")
    on_axis = np.cumsum(rng.exponential(1.0 / rate_per_min, size=n))
    cycles = np.floor(on_axis / on_min)
    return on_axis + cycles * off_min


def diurnal_arrival_times(n: int, rng: np.random.Generator,
                          rate_per_min: float, period_min: float,
                          profile: tuple[float, ...]) -> np.ndarray:
    """Non-homogeneous Poisson arrivals replaying a periodic load profile.

    ``profile`` holds the relative intensity of equal-length buckets tiling
    one period; it is rescaled so the *mean* rate over a full period equals
    ``rate_per_min``.  Sampling uses thinning: candidates are drawn from a
    homogeneous process at the peak rate and accepted with probability
    intensity(t)/peak.
    """
    if rate_per_min <= 0:
        raise ValueError("rate_per_min must be positive")
    if period_min <= 0:
        raise ValueError("period_min must be positive")
    weights = np.asarray(profile, dtype=float)
    if weights.size < 1 or np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("profile needs non-negative weights, not all zero")
    intensity = weights * (rate_per_min / weights.mean())
    peak = float(intensity.max())
    bucket_min = period_min / weights.size
    times = np.empty(n)
    accepted = 0
    t = 0.0
    while accepted < n:
        t += rng.exponential(1.0 / peak)
        bucket = int((t % period_min) / bucket_min)
        if rng.uniform() * peak <= intensity[bucket]:
            times[accepted] = t
            accepted += 1
    return times


@dataclass(frozen=True)
class ArrivalSpec:
    """Declarative description of an arrival process.

    Parameters
    ----------
    kind:
        One of :data:`ARRIVAL_KINDS`.
    rate_per_min:
        Mean arrival rate (``poisson``/``diurnal``) or in-burst rate
        (``bursty``), in jobs per simulated minute.  Ignored by ``batch``.
    on_min, off_min:
        ON/OFF window lengths of the ``bursty`` process.
    period_min:
        Length of one ``diurnal`` cycle (default: a 24-hour day).
    profile:
        Relative intensities of the ``diurnal`` buckets tiling one period
        (default: :data:`DEFAULT_DIURNAL_PROFILE`).
    """

    kind: str = "batch"
    rate_per_min: float = 0.1
    on_min: float = 15.0
    off_min: float = 45.0
    period_min: float = 1440.0
    profile: tuple[float, ...] = DEFAULT_DIURNAL_PROFILE

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(f"unknown arrival kind {self.kind!r}; "
                             f"expected one of {ARRIVAL_KINDS}")
        for name in ("rate_per_min", "on_min", "off_min", "period_min"):
            require_finite(name, getattr(self, name))
        for weight in self.profile:
            require_finite("profile", weight)
        # Draw once eagerly so a bad parameterisation fails at spec
        # construction, not in the middle of an experiment grid.
        self.arrival_times(1, np.random.default_rng(0))

    def arrival_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``n`` non-decreasing submission times (minutes)."""
        if n < 0:
            raise ValueError("n cannot be negative")
        if n == 0:
            return np.zeros(0)
        if self.kind == "batch":
            return batch_arrival_times(n, rng)
        if self.kind == "poisson":
            return poisson_arrival_times(n, rng, self.rate_per_min)
        if self.kind == "bursty":
            return bursty_arrival_times(n, rng, self.rate_per_min,
                                        self.on_min, self.off_min)
        return diurnal_arrival_times(n, rng, self.rate_per_min,
                                     self.period_min, self.profile)

    def apply(self, jobs: list[Job], rng: np.random.Generator) -> list[Job]:
        """Stamp submission times onto ``jobs`` (in submission order).

        Batch mode returns the jobs unchanged — bit-for-bit, so the seed
        Table-3 scenarios are reproduced exactly through the scenario path.
        """
        if self.kind == "batch":
            return list(jobs)
        times = self.arrival_times(len(jobs), rng)
        return [dataclasses.replace(job, submit_time_min=float(t))
                for job, t in zip(jobs, times)]

    # ------------------------------------------------------------------
    # Declarative (JSON) form
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict, omitting parameters the kind does not use."""
        payload: dict = {"kind": self.kind}
        if self.kind in ("poisson", "bursty", "diurnal"):
            payload["rate_per_min"] = self.rate_per_min
        if self.kind == "bursty":
            payload["on_min"] = self.on_min
            payload["off_min"] = self.off_min
        if self.kind == "diurnal":
            payload["period_min"] = self.period_min
            payload["profile"] = list(self.profile)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ArrivalSpec":
        """Build a spec from its dict form (unknown keys rejected)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown arrival parameters: {sorted(unknown)}")
        kwargs = dict(payload)
        if "profile" in kwargs:
            kwargs["profile"] = tuple(kwargs["profile"])
        return cls(**kwargs)
