"""Declarative, eagerly validated experiment plans.

An :class:`ExperimentPlan` is the full description of a comparison grid —
scenarios × schemes × mixes × seeds — plus how to execute it (time
step, worker processes).  Everything is validated *up front*, at
construction: scenario entries resolve through the scenario registry
(names, spec-JSON paths or :class:`~repro.scenarios.spec.ScenarioSpec`
objects), scheme names are checked against the scheduler plugin registry
with an error listing what *is* registered, and the execution knobs are
range-checked.  A plan that constructs is a plan that can run; nothing
fails deep inside a worker process hours into a sweep.

Plans are frozen and hashable-by-value; derive variants with
:meth:`ExperimentPlan.with_options`::

    plan = ExperimentPlan(schemes=("pairwise", "ours", "oracle"),
                          scenarios=("L1", "L5"), n_mixes=5)
    wide = plan.with_options(workers=8, n_mixes=10)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro._checks import require_finite, require_integer
from repro.scenarios.registry import load_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.scheduling.registry import validate_schemes

__all__ = ["DEFAULT_SCENARIOS", "ExperimentPlan", "PlanError"]

#: Scenario labels used by default (all of Table 3).
DEFAULT_SCENARIOS: tuple[str, ...] = ("L1", "L2", "L3", "L4", "L5",
                                      "L6", "L7", "L8", "L9", "L10")


class PlanError(ValueError):
    """An experiment plan failed eager validation."""


def _as_tuple(value: Iterable | str) -> tuple:
    if isinstance(value, (str, ScenarioSpec)):
        return (value,)
    return tuple(value)


@dataclass(frozen=True)
class ExperimentPlan:
    """One validated scenario × scheme × mix comparison grid.

    Parameters
    ----------
    schemes:
        Scheme names registered in :mod:`repro.scheduling.registry`
        (a single name is accepted and wrapped).
    scenarios:
        Scenario identifiers: registry names (``"L1"``..``"L10"``, demo
        scenarios), paths to spec JSON documents, or
        :class:`~repro.scenarios.spec.ScenarioSpec` objects; resolved to
        specs at construction.
    n_mixes:
        Random mixes per scenario (the paper uses ~100; the default keeps
        the grid laptop-sized and can be raised for higher fidelity).
    seed:
        Seed of the per-scenario generator driving mix generation and
        arrival processes, and of the simulators.
    time_step_min:
        Simulator grid step in minutes.  Every cell runs on the
        event-driven engine, which jumps between state-changing events
        on this grid.
    workers:
        Worker processes for the grid.  ``1`` (default) runs in-process;
        larger values fan the independent grid cells out over a process
        pool owned by the :class:`repro.api.Session`.  Results are
        identical regardless of the worker count.
    """

    schemes: tuple[str, ...]
    scenarios: tuple[ScenarioSpec, ...] = DEFAULT_SCENARIOS
    n_mixes: int = 3
    seed: int = 11
    time_step_min: float = 0.5
    workers: int = 1

    def __post_init__(self) -> None:
        schemes = _as_tuple(self.schemes)
        if not schemes:
            raise PlanError("a plan needs at least one scheme")
        if len(set(schemes)) != len(schemes):
            raise PlanError(f"duplicate schemes in plan: {schemes}")
        validate_schemes(schemes)  # UnknownSchemeError lists what exists
        object.__setattr__(self, "schemes", schemes)

        entries = _as_tuple(self.scenarios)
        if not entries:
            raise PlanError("a plan needs at least one scenario")
        try:
            # TypeError covers wrong-typed values in a user's spec JSON,
            # OSError an unreadable spec path.
            specs = tuple(load_scenario(entry) for entry in entries)
        except (KeyError, ValueError, TypeError, OSError) as error:
            raise PlanError(f"cannot load scenario: {error}") from error
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate scenario names in plan: {names} "
                            "(rows are keyed by name)")
        object.__setattr__(self, "scenarios", specs)

        for name in ("n_mixes", "workers", "seed"):
            require_integer(name, getattr(self, name), PlanError)
        if self.n_mixes < 1:
            raise PlanError("n_mixes must be at least 1")
        if self.workers < 1:
            raise PlanError("workers must be at least 1")
        if self.seed < 0:
            raise PlanError(f"seed must be non-negative, got {self.seed!r}")
        require_finite("time_step_min", self.time_step_min, PlanError)
        if self.time_step_min <= 0:
            raise PlanError("time_step_min must be positive")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def scenario_names(self) -> tuple[str, ...]:
        """The resolved scenario names, in plan order."""
        return tuple(spec.name for spec in self.scenarios)

    @property
    def n_cells(self) -> int:
        """Total number of independent (scenario, scheme, mix) cells."""
        return len(self.scenarios) * len(self.schemes) * self.n_mixes

    def with_options(self, **overrides) -> "ExperimentPlan":
        """A new plan with some fields replaced, re-validated eagerly."""
        return replace(self, **overrides)

    def describe(self) -> str:
        """One line summarising the grid, for logs and CLI output."""
        return (f"{len(self.scenarios)} scenario(s) x "
                f"{len(self.schemes)} scheme(s) x {self.n_mixes} mix(es) "
                f"= {self.n_cells} cells "
                f"[workers={self.workers}, "
                f"seed={self.seed}]")
