"""The declarative scenario specification.

A :class:`ScenarioSpec` separates experiment *policy* from simulation
*mechanism*: it declares a workload source (a Table-3-style random mix
size or an explicit job list), an arrival process
(:class:`~repro.workloads.arrivals.ArrivalSpec`) and a named cluster
topology (:mod:`repro.cluster.topologies`), and every layer downstream —
mix generation, the simulator's arrival queue, the experiment grid runner,
the CLI — consumes the spec instead of hard-coding those choices.

Specs are frozen, picklable (they travel to worker processes) and round-
trip through a small JSON document::

    {
      "name": "my_scenario",
      "n_apps": 10,
      "arrival": {"kind": "poisson", "rate_per_min": 0.05},
      "topology": "hetero_mixed20"
    }
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro._checks import is_finite_number
from repro.cluster.cluster import Cluster
from repro.cluster.faults import FaultSpec
from repro.cluster.topologies import build_topology, topology_specs
from repro.workloads.arrivals import ArrivalSpec
from repro.workloads.mixes import Job, make_random_mix

__all__ = ["ScenarioSpec"]


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: workload + arrival process + topology.

    Parameters
    ----------
    name:
        Identifier; experiment rows are labelled with it.
    n_apps:
        Random-mix size (Table-3 style); mutually exclusive with ``jobs``.
    jobs:
        Explicit workload as ``(benchmark, input_gb)`` pairs in submission
        order; mutually exclusive with ``n_apps``.
    arrival:
        When the jobs enter the queue (default: batch at t=0, the seed
        behaviour).
    topology:
        Named cluster topology from :mod:`repro.cluster.topologies`.
    faults:
        Dynamic-cluster behaviour — node failures/recoveries, autoscale
        joins, executor preemption, stragglers — as a declarative
        :class:`~repro.cluster.faults.FaultSpec` (default: a static
        cluster, the seed behaviour).
    max_time_min:
        Simulation horizon handed to the simulator.
    description:
        One line of intent, surfaced by the CLI listing.
    """

    name: str
    n_apps: int | None = None
    jobs: tuple[tuple[str, float], ...] | None = None
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    topology: str = "paper40"
    faults: FaultSpec | None = None
    max_time_min: float = 50_000.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a name")
        if (self.n_apps is None) == (self.jobs is None):
            raise ValueError("specify exactly one of n_apps or jobs")
        if self.n_apps is not None and (
                isinstance(self.n_apps, bool)
                or not isinstance(self.n_apps, numbers.Integral)
                or self.n_apps < 1):
            raise ValueError(f"n_apps must be an integer of at least 1, "
                             f"got {self.n_apps!r}")
        if self.jobs is not None and not self.jobs:
            raise ValueError("an explicit job list cannot be empty")
        for i, entry in enumerate(self.jobs or ()):
            if not _is_pair(entry) or not _positive_finite(entry[1]):
                raise ValueError(f"jobs[{i}] must be a (benchmark, input_gb) "
                                 f"pair with a positive finite input_gb, "
                                 f"got {entry!r}")
        if not _positive_finite(self.max_time_min):
            raise ValueError(f"max_time_min must be a positive finite number, "
                             f"got {self.max_time_min!r}")
        # Fail fast on unknown topologies and bad explicit jobs.
        topology_specs(self.topology)
        if self.jobs is not None:
            self._explicit_jobs()

    # ------------------------------------------------------------------
    # Realisation
    # ------------------------------------------------------------------
    def build_cluster(self) -> Cluster:
        """A fresh cluster for this scenario's topology."""
        return build_topology(self.topology)

    def _explicit_jobs(self) -> list[Job]:
        return [Job(benchmark=name, input_gb=float(gb), order=i)
                for i, (name, gb) in enumerate(self.jobs)]

    def make_mixes(self, n_mixes: int = 1, seed: int = 0,
                   rng: np.random.Generator | None = None) -> list[list[Job]]:
        """Realise ``n_mixes`` concrete job lists with submission times.

        One generator drives both the mix draw and the arrival process, so
        a (spec, seed) pair pins the whole workload.  For random mixes with
        batch arrivals this reproduces
        :func:`repro.workloads.mixes.make_scenario_mixes` bit-for-bit —
        the seed Table-3 scenarios survive the scenario path unchanged.
        """
        if n_mixes < 1:
            raise ValueError("n_mixes must be at least 1")
        if rng is None:
            rng = np.random.default_rng(seed)
        mixes: list[list[Job]] = []
        for _ in range(n_mixes):
            if self.n_apps is not None:
                jobs = make_random_mix(self.n_apps, rng)
            else:
                jobs = self._explicit_jobs()
            mixes.append(self.arrival.apply(jobs, rng))
        return mixes

    # ------------------------------------------------------------------
    # Declarative (JSON) form
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict form."""
        payload: dict = {"name": self.name}
        if self.description:
            payload["description"] = self.description
        if self.n_apps is not None:
            payload["n_apps"] = self.n_apps
        if self.jobs is not None:
            payload["jobs"] = [[name, gb] for name, gb in self.jobs]
        payload["arrival"] = self.arrival.to_dict()
        payload["topology"] = self.topology
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        if self.max_time_min != 50_000.0:
            payload["max_time_min"] = self.max_time_min
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        """Build a spec from its dict form (unknown keys rejected)."""
        known = {"name", "description", "n_apps", "jobs", "arrival",
                 "topology", "faults", "max_time_min"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        kwargs = dict(payload)
        if "jobs" in kwargs and kwargs["jobs"] is not None:
            # Sizes are normalised to float; anything else stays as given
            # so __post_init__ rejects it naming the field.
            kwargs["jobs"] = tuple(
                (str(entry[0]), float(entry[1]))
                if _is_pair(entry) and _positive_finite(entry[1]) else entry
                for entry in kwargs["jobs"])
        if "arrival" in kwargs:
            kwargs["arrival"] = ArrivalSpec.from_dict(kwargs["arrival"])
        if kwargs.get("faults") is not None:
            kwargs["faults"] = FaultSpec.from_dict(kwargs["faults"])
        return cls(**kwargs)

    def to_json(self, path: str | Path) -> None:
        """Write the spec as a JSON document."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "ScenarioSpec":
        """Load a spec from a JSON document."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def _positive_finite(value) -> bool:
    """A real, non-boolean number above zero and below infinity."""
    return is_finite_number(value) and value > 0


def _is_pair(entry) -> bool:
    return isinstance(entry, (list, tuple)) and len(entry) == 2
