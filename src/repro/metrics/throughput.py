"""System throughput and turnaround-time metrics (Eqs. 1 and 2).

The isolated reference time ``C_is`` of an application is its execution
time when it exclusively uses the nodes Spark's dynamic allocation grants
it; the co-located time ``C_cl`` is its turnaround under the evaluated
schedule (all jobs are submitted together, so queueing time counts against
the scheme, exactly as user-perceived delay does).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.events import EventKind
from repro.cluster.simulator import SimulationResult
from repro.spark.driver import DynamicAllocationPolicy
from repro.workloads.mixes import Job
from repro.workloads.suites import benchmark_by_name

__all__ = [
    "isolated_reference_min",
    "baseline_turnarounds_min",
    "instance_names",
    "matched_apps",
    "system_throughput",
    "antt",
    "antt_reduction_percent",
    "ScheduleEvaluation",
    "evaluate_schedule",
    "StreamingScheduleMetrics",
]


def isolated_reference_min(job: Job,
                           policy: DynamicAllocationPolicy | None = None) -> float:
    """Isolated execution time ``C_is`` of one job (Eq. 1 denominator).

    The job runs alone, with one executor on each of the nodes Spark's
    dynamic allocation grants it and every executor using the node's full
    memory, so there is no contention of any kind.
    """
    policy = policy or DynamicAllocationPolicy()
    spec = benchmark_by_name(job.benchmark)
    executors = policy.desired_executors(job.input_gb)
    return spec.isolated_runtime_min(job.input_gb, n_executors=executors)


def baseline_turnarounds_min(jobs: list[Job],
                             policy: DynamicAllocationPolicy | None = None) -> list[float]:
    """Turnaround times under the one-by-one isolated baseline.

    Jobs are executed in submission order, each waiting for every earlier
    job to finish, so the turnaround of job *i* is the sum of the isolated
    execution times of jobs 0..i.
    """
    if not jobs:
        raise ValueError("baseline turnaround needs at least one job")
    turnarounds = []
    elapsed = 0.0
    for job in jobs:
        elapsed += isolated_reference_min(job, policy)
        turnarounds.append(elapsed)
    return turnarounds


def instance_names(jobs: list[Job]) -> list[str]:
    """Application instance names of a mix, in submission order.

    Mirrors the simulator's incremental naming
    (``ClusterSimulator._submit_job``): a benchmark's second occurrence
    in a mix is ``"<benchmark>#1"``, and so on.  Submission order is the
    mix order (the simulator's arrival sort is stable), so the upfront
    and incremental spellings always agree.
    """
    counts: dict[str, int] = {}
    names = []
    for job in jobs:
        occurrence = counts.get(job.benchmark, 0)
        counts[job.benchmark] = occurrence + 1
        names.append(f"{job.benchmark}#{occurrence}" if occurrence
                     else job.benchmark)
    return names


def matched_apps(result: SimulationResult, jobs: list[Job],
                 policy: DynamicAllocationPolicy | None = None):
    """Pair each job with its application and isolated reference time.

    Returns ``(job, app, reference_min)`` triples in submission order,
    resolving the simulator's instance-naming convention via
    :func:`instance_names`.
    """
    return [(job, result.apps[name], isolated_reference_min(job, policy))
            for job, name in zip(jobs, instance_names(jobs))]


def system_throughput(result: SimulationResult, jobs: list[Job],
                      policy: DynamicAllocationPolicy | None = None) -> float:
    """STP of a schedule (Eq. 1): sum over jobs of ``C_is / C_cl``.

    ``C_cl`` is the job's completion time under the evaluated scheme,
    measured from batch submission (all jobs are submitted together), so a
    scheme only scores highly when it genuinely makes concurrent progress
    on many jobs.  The one-by-one isolated baseline therefore lands close
    to 1, and the values reported for the co-location schemes are directly
    the "normalized STP" of the paper's Figure 6a.
    """
    # Added left to right (``sum()`` compensates float rounding from
    # Python 3.12), so STP is the same number on every supported Python.
    stp = 0.0
    for _, app, reference in matched_apps(result, jobs, policy):
        stp += reference / app.turnaround_min()
    return float(stp)


def antt(result: SimulationResult, jobs: list[Job],
         policy: DynamicAllocationPolicy | None = None) -> float:
    """ANTT of a schedule (Eq. 2): mean over jobs of ``C_cl / C_is``.

    ANTT quantifies the user-perceived delay between a task being created
    and its completion (Section 5.3), so ``C_cl`` here is the turnaround
    time — queueing and profiling included.
    """
    triples = matched_apps(result, jobs, policy)
    return float(np.mean([app.turnaround_min() / reference
                          for _, app, reference in triples]))


def baseline_antt(jobs: list[Job],
                  policy: DynamicAllocationPolicy | None = None) -> float:
    """ANTT of the one-by-one isolated baseline."""
    turnarounds = baseline_turnarounds_min(jobs, policy)
    references = [isolated_reference_min(job, policy) for job in jobs]
    return float(np.mean([t / r for t, r in zip(turnarounds, references)]))


def antt_reduction_percent(result: SimulationResult, jobs: list[Job],
                           policy: DynamicAllocationPolicy | None = None) -> float:
    """Percentage ANTT reduction over the isolated baseline (Figure 6b)."""
    scheme = antt(result, jobs, policy)
    baseline = baseline_antt(jobs, policy)
    return float(100.0 * (baseline - scheme) / baseline)


@dataclass(frozen=True)
class ScheduleEvaluation:
    """STP, ANTT and derived quantities for one simulated schedule."""

    stp: float
    antt: float
    antt_reduction_percent: float
    makespan_min: float
    mean_utilization_percent: float
    all_finished: bool


def evaluate_schedule(result: SimulationResult, jobs: list[Job],
                      policy: DynamicAllocationPolicy | None = None) -> ScheduleEvaluation:
    """Compute every headline metric for one simulated schedule."""
    return ScheduleEvaluation(
        stp=system_throughput(result, jobs, policy),
        antt=antt(result, jobs, policy),
        antt_reduction_percent=antt_reduction_percent(result, jobs, policy),
        makespan_min=result.makespan_min,
        mean_utilization_percent=result.mean_node_utilization(),
        all_finished=result.all_finished(),
    )


class StreamingScheduleMetrics:
    """Streaming STP/ANTT: an event-bus subscriber instead of a post-hoc pass.

    Attach it to a simulator's bus *before* the run; it consumes the
    ``APP_FINISHED`` events both engines publish and keeps one finish
    time per job — O(jobs) state, no result traversal.  The final
    reductions run in submission order over exactly the same floats as
    the post-hoc helpers above, so :meth:`evaluate` is bit-for-bit
    identical to :func:`evaluate_schedule` on the same run.

    Parameters
    ----------
    jobs:
        The submitted mix, in submission order (fixes the per-job
        isolated references and the instance-name mapping up front).
    policy:
        Allocation policy of the isolated reference; this is the
        *nominal* platform yardstick, deliberately untouched by dynamic
        cluster events mid-run.
    """

    def __init__(self, jobs: list[Job],
                 policy: DynamicAllocationPolicy | None = None) -> None:
        if not jobs:
            raise ValueError("streaming metrics need at least one job")
        self._jobs = list(jobs)
        self._policy = policy
        self._names = instance_names(self._jobs)
        self._references = [isolated_reference_min(job, policy)
                            for job in self._jobs]
        self._finish: dict[str, float] = {}

    def attach(self, bus) -> "StreamingScheduleMetrics":
        """Subscribe to the ``APP_FINISHED`` events on a bus."""
        bus.subscribe(self._on_finish, kinds=(EventKind.APP_FINISHED,))
        return self

    def per_job_references(self) -> tuple[tuple[str, float, float], ...]:
        """``(instance name, submit time, isolated reference)`` per job.

        In submission order — the fixed per-job yardsticks this tracker
        was built with, shared with consumers (e.g. the scheduling
        environment's reward stream) so they are computed exactly once.
        """
        return tuple(
            (name, job.submit_time_min, reference)
            for name, job, reference in zip(self._names, self._jobs,
                                            self._references)
        )

    def _on_finish(self, event) -> None:
        self._finish[event.app] = event.time

    # ------------------------------------------------------------------
    # Reductions (submission order, matching the post-hoc helpers)
    # ------------------------------------------------------------------
    @property
    def finished_count(self) -> int:
        """Number of jobs whose finish event has streamed past."""
        return len(self._finish)

    def _turnarounds(self) -> list[float]:
        missing = [name for name in self._names if name not in self._finish]
        if missing:
            raise RuntimeError(f"jobs not finished (or bus not attached "
                               f"before the run): {missing}")
        return [self._finish[name] - job.submit_time_min
                for name, job in zip(self._names, self._jobs)]

    def stp(self) -> float:
        """System throughput (Eq. 1) from the streamed finish times."""
        # Left to right, exactly as :func:`system_throughput` adds.
        stp = 0.0
        for reference, turnaround in zip(self._references,
                                         self._turnarounds()):
            stp += reference / turnaround
        return float(stp)

    def antt(self) -> float:
        """ANTT (Eq. 2) from the streamed finish times."""
        return float(np.mean([turnaround / reference
                              for reference, turnaround
                              in zip(self._references, self._turnarounds())]))

    def antt_reduction_percent(self) -> float:
        """Percentage ANTT reduction over the isolated baseline."""
        baseline = baseline_antt(self._jobs, self._policy)
        return float(100.0 * (baseline - self.antt()) / baseline)

    def evaluate(self, result: SimulationResult) -> ScheduleEvaluation:
        """The full headline evaluation for a completed run."""
        return ScheduleEvaluation(
            stp=self.stp(),
            antt=self.antt(),
            antt_reduction_percent=self.antt_reduction_percent(),
            makespan_min=result.makespan_min,
            mean_utilization_percent=result.mean_node_utilization(),
            all_finished=result.all_finished(),
        )
