"""The public programmatic interface of the reproduction.

Everything an external caller needs to run experiments lives here, in
three composable pieces:

* :class:`ExperimentPlan` — a declarative, eagerly validated description
  of a comparison grid (scenarios × schemes × mixes × seed × workers),
  every cell of which runs on the event-driven engine;
* :class:`Session` — a reusable execution context owning the trained
  predictor artefacts (:class:`SchedulerSuite`) and the worker pool;
* typed results — :class:`CellResult` (streamed per grid cell, with
  per-job :class:`JobRecord` entries) and :class:`ScenarioResult`
  (aggregates with across-mix dispersion), all JSON round-trippable.

Scheduling policies are plugins: third-party schedulers join through
:func:`register_scheme` (re-exported from
:mod:`repro.scheduling.registry`) without touching any experiment code —
see ``examples/custom_scheduler_plugin.py``.

Quickstart::

    from repro.api import ExperimentPlan, Session

    plan = ExperimentPlan(schemes=("pairwise", "ours", "oracle"),
                          scenarios=("L1", "L5"), n_mixes=3, workers=4)
    with Session() as session:
        for cell in session.stream(plan):      # typed, as cells complete
            print(f"{cell.scenario}/{cell.scheme} mix {cell.mix_index}: "
                  f"STP={cell.stp:.2f} ({len(cell.jobs)} jobs)")
        rows = session.run(plan)               # deterministic aggregates

This package *is* the experiment surface: the pre-API entry points
(the ``run_scenarios`` barrier call and its cache shim module) have
been retired.
"""

from repro.api.plan import DEFAULT_SCENARIOS, ExperimentPlan, PlanError
from repro.api.results import (
    CellResult,
    JobRecord,
    ScenarioResult,
    cells_from_json,
    cells_to_json,
    fold_cells,
    job_records,
    overall_geomean,
    results_from_json,
    results_to_json,
)
from repro.api.session import HorizonTruncationError, Session
from repro.api.suite import SchedulerSuite
from repro.cluster.faults import FaultEvent, FaultSpec, FaultSummary, load_fault_spec
from repro.scheduling.registry import (
    SchemeInfo,
    UnknownSchemeError,
    is_registered,
    register_scheme,
    scheme_info,
    scheme_names,
    unregister_scheme,
    validate_schemes,
)

def __getattr__(name: str):
    # Lazy re-export: the scheduling environment's episode record lives
    # in repro.env (which itself imports repro.api.results), so a
    # top-level import here would be circular when repro.env loads first.
    if name == "EpisodeResult":
        from repro.env.rollout import EpisodeResult

        return EpisodeResult
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    # plan
    "DEFAULT_SCENARIOS",
    "ExperimentPlan",
    "PlanError",
    # scheduling environment (lazy re-export)
    "EpisodeResult",
    # session + suite
    "Session",
    "SchedulerSuite",
    "HorizonTruncationError",
    # results
    "JobRecord",
    "CellResult",
    "ScenarioResult",
    # dynamic-cluster events (re-exported)
    "FaultSpec",
    "FaultEvent",
    "FaultSummary",
    "load_fault_spec",
    "job_records",
    "fold_cells",
    "overall_geomean",
    "cells_to_json",
    "cells_from_json",
    "results_to_json",
    "results_from_json",
    # scheme registry (re-exported)
    "SchemeInfo",
    "UnknownSchemeError",
    "register_scheme",
    "unregister_scheme",
    "scheme_names",
    "scheme_info",
    "is_registered",
    "validate_schemes",
]
