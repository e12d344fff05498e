"""Spark application instances.

A :class:`SparkApplication` ties together a benchmark specification, a
concrete input dataset and the executors currently working on it, and it
tracks the timing information the evaluation metrics need (submission,
start, completion, and profiling overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.spark.executor import Executor, ExecutorState
from repro.workloads.benchmark import BenchmarkSpec

__all__ = ["ApplicationState", "SparkApplication"]


class ApplicationState(str, Enum):
    """Lifecycle of an application in the scheduling queue."""

    WAITING = "waiting"
    PROFILING = "profiling"
    RUNNING = "running"
    FINISHED = "finished"


@dataclass
class SparkApplication:
    """A submitted application: benchmark + input + runtime bookkeeping.

    Parameters
    ----------
    name:
        Unique instance name (a single benchmark can appear several times
        in one mix, so this is usually ``"<benchmark>#<order>"``).
    spec:
        The ground-truth benchmark behaviour.
    input_gb:
        Total input size of this run.
    submit_time:
        Simulation time (minutes) at which the application entered the
        queue.
    """

    name: str
    spec: BenchmarkSpec
    input_gb: float
    submit_time: float = 0.0
    state: ApplicationState = ApplicationState.WAITING
    start_time: float | None = None
    finish_time: float | None = None
    feature_extraction_min: float = 0.0
    calibration_min: float = 0.0
    executors: list[Executor] = field(default_factory=list)
    unassigned_gb: float = field(init=False)

    # Queue-slot view plumbing (class attributes, NOT dataclass fields):
    # once the simulator admits the app, ``ClusterState.adopt_app`` points
    # these at the owning state and the app's submit-order slot so the
    # mutators below dual-write the APP_DTYPE columns.
    _qstate = None
    _qslot = None

    def __post_init__(self) -> None:
        if self.input_gb <= 0:
            raise ValueError("input_gb must be positive")
        self.unassigned_gb = float(self.input_gb)

    # ------------------------------------------------------------------
    # Progress accounting
    # ------------------------------------------------------------------
    @property
    def processed_gb(self) -> float:
        """Data processed so far across all executors (including failed)."""
        # Added left to right, like ``remaining_gb`` below: ``sum()``
        # compensates float rounding from Python 3.12.
        processed = 0.0
        for e in self.executors:
            processed += e.processed_gb
        return processed

    @property
    def remaining_gb(self) -> float:
        """Data not yet processed: unassigned plus in-flight remainders."""
        # Added left to right on purpose: the simulator's column
        # tallies (``np.bincount`` in spawn order) must match this bit for
        # bit, and ``sum()`` compensates float rounding from Python 3.12.
        in_flight = 0.0
        for e in self.executors:
            if e.state is ExecutorState.RUNNING:
                in_flight += e.remaining_gb
        return self.unassigned_gb + in_flight

    @property
    def active_executors(self) -> list[Executor]:
        """Executors currently running work for this application."""
        return [e for e in self.executors if e.is_active]

    def is_complete(self) -> bool:
        """Whether every gigabyte of input has been processed."""
        return self.remaining_gb <= 1e-6

    def take_unassigned(self, amount_gb: float) -> float:
        """Reserve up to ``amount_gb`` of not-yet-assigned input data.

        Returns the amount actually reserved (the remainder when less data
        is left).  The scheduler calls this when sizing a new executor.
        """
        if amount_gb < 0:
            raise ValueError("amount_gb cannot be negative")
        granted = min(amount_gb, self.unassigned_gb)
        self.unassigned_gb -= granted
        if self._qstate is not None:
            self._qstate._app["unassigned_gb"][self._qslot] = self.unassigned_gb
        return granted

    def return_unassigned(self, amount_gb: float) -> None:
        """Return data to the unassigned pool (e.g. after an executor OOM)."""
        if amount_gb < 0:
            raise ValueError("amount_gb cannot be negative")
        self.unassigned_gb = min(self.unassigned_gb + amount_gb, self.input_gb)
        if self._qstate is not None:
            self._qstate._app["unassigned_gb"][self._qslot] = self.unassigned_gb

    def add_executor(self, executor: Executor) -> None:
        """Register a newly spawned executor with the application."""
        if executor.app_name != self.name:
            raise ValueError("executor belongs to a different application")
        self.executors.append(executor)
        if self.state in (ApplicationState.WAITING, ApplicationState.PROFILING):
            self.state = ApplicationState.RUNNING

    def mark_started(self, now: float) -> None:
        """Record the first time the application received resources."""
        if self.start_time is None:
            self.start_time = now

    def mark_finished(self, now: float) -> None:
        """Record application completion."""
        self.state = ApplicationState.FINISHED
        self.finish_time = now
        if self._qstate is not None:
            self._qstate.app_finished_slot(self._qslot)

    # ------------------------------------------------------------------
    # Metrics helpers
    # ------------------------------------------------------------------
    def turnaround_min(self) -> float:
        """Time from submission to completion (the ANTT numerator)."""
        if self.finish_time is None:
            raise RuntimeError(f"{self.name} has not finished yet")
        return self.finish_time - self.submit_time

    def execution_min(self) -> float:
        """Time from first resource grant to completion."""
        if self.finish_time is None or self.start_time is None:
            raise RuntimeError(f"{self.name} has not finished yet")
        return self.finish_time - self.start_time

    def profiling_overhead_min(self) -> float:
        """Total time spent on feature extraction and model calibration."""
        return self.feature_extraction_min + self.calibration_min
