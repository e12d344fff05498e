"""Typed experiment results: per-job records, grid cells, aggregates.

Three layers of result granularity, each JSON round-trippable:

* :class:`JobRecord` — one job in one simulated schedule: turnaround,
  queueing wait, profiling delay and slowdown against the isolated
  reference (``C_cl / C_is``, the per-job normalised turnaround).
* :class:`CellResult` — one (scenario, scheme, mix, seed) grid cell:
  the headline schedule metrics plus every job's record.  This is what
  :meth:`repro.api.Session.stream` yields as cells complete.
* :class:`ScenarioResult` — the per-(scenario, scheme) aggregate across
  mixes, with across-mix dispersion (std/min/max) alongside the paper's
  geomean/mean headline numbers.

:func:`fold_cells` turns a stream of cells into the aggregate rows, and
:func:`overall_geomean` reduces those rows across scenarios exactly as
Section 5.2 does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.cluster.events import SchemeSwitch
from repro.cluster.faults import FaultSummary
from repro.cluster.simulator import SimulationResult
from repro.metrics.throughput import matched_apps
from repro.ml.metrics import geometric_mean
from repro.spark.driver import DynamicAllocationPolicy
from repro.workloads.mixes import Job

__all__ = [
    "JobRecord",
    "CellResult",
    "ScenarioResult",
    "job_records",
    "fold_cells",
    "overall_geomean",
    "cells_to_json",
    "cells_from_json",
    "results_to_json",
    "results_from_json",
]


@dataclass(frozen=True)
class JobRecord:
    """Per-job outcome of one simulated schedule.

    Times are simulated minutes.  ``wait_min`` is the queueing delay
    between submission and the first executor starting; the profiling
    delay (feature extraction plus calibration) is *included* in the
    turnaround, exactly as user-perceived delay is in the paper's ANTT.
    ``slowdown`` is ``C_cl / C_is`` — the job's turnaround over its
    isolated execution time — so 1.0 means no co-location penalty at all.
    """

    name: str
    benchmark: str
    input_gb: float
    submit_time_min: float
    start_time_min: float
    finish_time_min: float
    turnaround_min: float
    wait_min: float
    profiling_delay_min: float
    slowdown: float

    def to_dict(self) -> dict:
        """JSON-ready dict form."""
        return {
            "name": self.name,
            "benchmark": self.benchmark,
            "input_gb": self.input_gb,
            "submit_time_min": self.submit_time_min,
            "start_time_min": self.start_time_min,
            "finish_time_min": self.finish_time_min,
            "turnaround_min": self.turnaround_min,
            "wait_min": self.wait_min,
            "profiling_delay_min": self.profiling_delay_min,
            "slowdown": self.slowdown,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(**payload)


def job_records(result: SimulationResult, jobs: Sequence[Job],
                policy: DynamicAllocationPolicy | None = None
                ) -> tuple[JobRecord, ...]:
    """Extract every job's record from a completed simulation."""
    records = []
    for job, app, reference in matched_apps(result, list(jobs), policy):
        turnaround = app.turnaround_min()
        records.append(JobRecord(
            name=app.name,
            benchmark=job.benchmark,
            input_gb=job.input_gb,
            submit_time_min=app.submit_time,
            start_time_min=app.start_time,
            finish_time_min=app.finish_time,
            turnaround_min=turnaround,
            wait_min=app.start_time - app.submit_time,
            profiling_delay_min=(app.feature_extraction_min
                                 + app.calibration_min),
            slowdown=turnaround / reference,
        ))
    return tuple(records)


@dataclass(frozen=True)
class CellResult:
    """Metrics of one (scenario, scheme, mix, seed) grid cell.

    Hashable and comparable, so streams obtained under different worker
    counts can be compared as sets — completion order is the only thing a
    worker count may change.
    """

    scenario: str
    scheme: str
    mix_index: int
    seed: int
    stp: float
    antt: float
    antt_reduction_percent: float
    makespan_min: float
    mean_utilization_percent: float
    jobs: tuple[JobRecord, ...]
    #: Fault/recovery telemetry of the cell's schedule; ``None`` when the
    #: scenario declared no dynamic-cluster behaviour (the seed shape).
    faults: FaultSummary | None = None
    #: Scheme hot-swaps an adaptive policy performed during the schedule;
    #: empty for every fixed scheme (the seed shape).
    switches: tuple[SchemeSwitch, ...] = ()

    def to_dict(self) -> dict:
        """JSON-ready dict form (the ``faults`` key appears only when set)."""
        payload = {
            "scenario": self.scenario,
            "scheme": self.scheme,
            "mix_index": self.mix_index,
            "seed": self.seed,
            "stp": self.stp,
            "antt": self.antt,
            "antt_reduction_percent": self.antt_reduction_percent,
            "makespan_min": self.makespan_min,
            "mean_utilization_percent": self.mean_utilization_percent,
            "jobs": [record.to_dict() for record in self.jobs],
        }
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        if self.switches:
            payload["switches"] = [s.to_dict() for s in self.switches]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CellResult":
        """Inverse of :meth:`to_dict`.

        Documents written while cells recorded their simulation engine
        still load; the retired ``engine`` key is dropped.
        """
        kwargs = dict(payload)
        kwargs.pop("engine", None)
        kwargs["jobs"] = tuple(JobRecord.from_dict(record)
                               for record in kwargs["jobs"])
        if kwargs.get("faults") is not None:
            kwargs["faults"] = FaultSummary.from_dict(kwargs["faults"])
        kwargs["switches"] = tuple(SchemeSwitch.from_dict(s)
                                   for s in kwargs.get("switches", ()))
        return cls(**kwargs)


@dataclass
class ScenarioResult:
    """Aggregated metrics of one scheme on one scenario.

    The headline aggregates (STP geomean, mean ANTT reduction) match the
    paper's Section 5.2 reduction; the ``*_std``/``*_min``/``*_max``
    fields expose the across-mix dispersion that a geomean-only summary
    hides.
    """

    scheme: str
    scenario: str
    stp_geomean: float
    stp_min: float
    stp_max: float
    antt_reduction_mean: float
    makespan_mean_min: float
    utilization_mean_percent: float
    stp_std: float = 0.0
    antt_reduction_std: float = 0.0
    antt_reduction_min: float = 0.0
    antt_reduction_max: float = 0.0
    n_mixes: int = 0
    #: Across-mix fault/recovery telemetry (only meaningful when the
    #: scenario declared dynamic-cluster behaviour; ``faulty`` says so).
    faulty: bool = False
    availability_mean_percent: float = 100.0
    node_failures_mean: float = 0.0
    preemptions_mean: float = 0.0
    jobs_disrupted_mean: float = 0.0
    work_lost_gb_mean: float = 0.0
    rerun_time_mean_min: float = 0.0
    #: Scheme hot-swap telemetry (only meaningful for adaptive policies
    #: that actually switched at least once; ``adaptive`` says so).
    adaptive: bool = False
    switches_mean: float = 0.0
    schemes_used: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """JSON-ready dict form."""
        payload = {
            "scheme": self.scheme,
            "scenario": self.scenario,
            "stp_geomean": self.stp_geomean,
            "stp_min": self.stp_min,
            "stp_max": self.stp_max,
            "antt_reduction_mean": self.antt_reduction_mean,
            "makespan_mean_min": self.makespan_mean_min,
            "utilization_mean_percent": self.utilization_mean_percent,
            "stp_std": self.stp_std,
            "antt_reduction_std": self.antt_reduction_std,
            "antt_reduction_min": self.antt_reduction_min,
            "antt_reduction_max": self.antt_reduction_max,
            "n_mixes": self.n_mixes,
        }
        if self.faulty:
            payload.update({
                "faulty": True,
                "availability_mean_percent": self.availability_mean_percent,
                "node_failures_mean": self.node_failures_mean,
                "preemptions_mean": self.preemptions_mean,
                "jobs_disrupted_mean": self.jobs_disrupted_mean,
                "work_lost_gb_mean": self.work_lost_gb_mean,
                "rerun_time_mean_min": self.rerun_time_mean_min,
            })
        if self.adaptive:
            payload.update({
                "adaptive": True,
                "switches_mean": self.switches_mean,
                "schemes_used": list(self.schemes_used),
            })
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioResult":
        """Inverse of :meth:`to_dict`."""
        kwargs = dict(payload)
        if "schemes_used" in kwargs:
            kwargs["schemes_used"] = tuple(kwargs["schemes_used"])
        return cls(**kwargs)


def fold_cells(cells: Iterable[CellResult],
               scenario_order: Sequence[str] | None = None,
               scheme_order: Sequence[str] | None = None
               ) -> list[ScenarioResult]:
    """Aggregate streamed cells into per-(scenario, scheme) rows.

    Rows come out scenario-major; ``scenario_order``/``scheme_order`` pin
    the ordering (a plan's orders, typically) so the fold is deterministic
    even when the cells arrived in completion order.  Without explicit
    orders, first appearance in ``cells`` decides.  Within a row, mixes
    are aggregated in mix-index order, which keeps the floating-point
    reductions identical to the sequential runner's.
    """
    cells = list(cells)
    if scenario_order is None:
        scenario_order = list(dict.fromkeys(c.scenario for c in cells))
    if scheme_order is None:
        scheme_order = list(dict.fromkeys(c.scheme for c in cells))
    grouped: dict[tuple[str, str], list[CellResult]] = {}
    for cell in cells:
        grouped.setdefault((cell.scenario, cell.scheme), []).append(cell)

    results: list[ScenarioResult] = []
    for scenario in scenario_order:
        for scheme in scheme_order:
            row = grouped.get((scenario, scheme))
            if not row:
                continue
            row.sort(key=lambda c: c.mix_index)
            stps = [c.stp for c in row]
            antt_reds = [c.antt_reduction_percent for c in row]
            fault_kwargs = {}
            summaries = [c.faults for c in row if c.faults is not None]
            if summaries:
                fault_kwargs = {
                    "faulty": True,
                    "availability_mean_percent": float(np.mean(
                        [s.availability_percent for s in summaries])),
                    "node_failures_mean": float(np.mean(
                        [s.node_failures for s in summaries])),
                    "preemptions_mean": float(np.mean(
                        [s.preemptions for s in summaries])),
                    "jobs_disrupted_mean": float(np.mean(
                        [s.jobs_disrupted for s in summaries])),
                    "work_lost_gb_mean": float(np.mean(
                        [s.work_lost_gb for s in summaries])),
                    "rerun_time_mean_min": float(np.mean(
                        [s.rerun_time_min for s in summaries])),
                }
            switch_kwargs = {}
            if any(c.switches for c in row):
                # Visited schemes in first-switch order: every cell starts
                # on the same primary, so the union keeps a stable order.
                visited: dict[str, None] = {}
                for cell in row:
                    for switch in cell.switches:
                        visited.setdefault(switch.from_scheme)
                        visited.setdefault(switch.to_scheme)
                switch_kwargs = {
                    "adaptive": True,
                    "switches_mean": float(np.mean(
                        [len(c.switches) for c in row])),
                    "schemes_used": tuple(visited),
                }
            results.append(ScenarioResult(
                scheme=scheme,
                scenario=scenario,
                stp_geomean=geometric_mean(stps),
                stp_min=min(stps),
                stp_max=max(stps),
                antt_reduction_mean=float(np.mean(antt_reds)),
                makespan_mean_min=float(np.mean(
                    [c.makespan_min for c in row])),
                utilization_mean_percent=float(np.mean(
                    [c.mean_utilization_percent for c in row])),
                stp_std=float(np.std(stps)),
                antt_reduction_std=float(np.std(antt_reds)),
                antt_reduction_min=min(antt_reds),
                antt_reduction_max=max(antt_reds),
                n_mixes=len(row),
                **fault_kwargs,
                **switch_kwargs,
            ))
    return results


def overall_geomean(results: list[ScenarioResult], scheme: str,
                    metric: str = "stp_geomean") -> float:
    """Geometric mean of a metric across scenarios for one scheme."""
    values = [getattr(r, metric) for r in results if r.scheme == scheme]
    if not values:
        raise KeyError(f"no results recorded for scheme {scheme!r}")
    if metric == "antt_reduction_mean":
        return float(np.mean(values))
    return geometric_mean(values)


# ----------------------------------------------------------------------
# JSON round-trips.  json.dumps renders floats with repr, which Python
# guarantees to round-trip bit-for-bit, so load(dump(x)) == x exactly.
# ----------------------------------------------------------------------

def cells_to_json(cells: Iterable[CellResult],
                  path: str | Path | None = None, *, indent: int = 2) -> str:
    """Serialise cells to JSON, optionally writing the document to a file."""
    text = json.dumps([cell.to_dict() for cell in cells], indent=indent) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def cells_from_json(source: str | Path) -> list[CellResult]:
    """Load cells from a JSON string or file path."""
    return [CellResult.from_dict(payload)
            for payload in json.loads(_read_json_source(source))]


def results_to_json(results: Iterable[ScenarioResult],
                    path: str | Path | None = None, *, indent: int = 2) -> str:
    """Serialise aggregate rows to JSON, optionally writing to a file."""
    text = json.dumps([row.to_dict() for row in results],
                      indent=indent) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


def results_from_json(source: str | Path) -> list[ScenarioResult]:
    """Load aggregate rows from a JSON string or file path."""
    return [ScenarioResult.from_dict(payload)
            for payload in json.loads(_read_json_source(source))]


def _read_json_source(source: str | Path) -> str:
    """A JSON document from either a literal string or a file path."""
    if isinstance(source, Path):
        return source.read_text()
    text = source.lstrip()
    if text.startswith("[") or text.startswith("{"):
        return source
    return Path(source).read_text()
