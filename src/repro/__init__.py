"""Reproduction of "Improving Spark Application Throughput Via Memory Aware
Task Co-location: A Mixture of Experts Approach" (Middleware 2017).

The package is organised as a set of substrates plus the paper's core
contribution:

* :mod:`repro.ml` — from-scratch machine-learning building blocks.
* :mod:`repro.spark` — a Spark-like application/executor model.
* :mod:`repro.cluster` — a discrete-event multi-node cluster simulator with
  memory-pressure and CPU-contention modelling.
* :mod:`repro.profiling` — synthetic runtime feature (performance counter)
  collection and profiling runs.
* :mod:`repro.workloads` — the 44-benchmark catalogue used in the paper's
  evaluation, plus PARSEC-like compute workloads and task-mix generation.
* :mod:`repro.core` — the mixture-of-experts memory predictor (memory
  functions, expert selector, calibration, offline training).
* :mod:`repro.scheduling` — co-location schedulers: the paper's approach and
  every comparative baseline (isolated, pairwise, Quasar-like, online
  search, unified single-model, oracle).
* :mod:`repro.metrics` — STP, ANTT, utilization, slowdown and report helpers.
* :mod:`repro.experiments` — drivers that regenerate every table and figure
  of the paper's evaluation section.
"""

__version__ = "1.0.0"

#: The formal public surface of the top level: the version, plus lazy
#: re-exports of the flagship experiment API (:mod:`repro.api`) and the
#: scheduling environment (:mod:`repro.env`).  Everything else is reached
#: through its subpackage; ``docs/API.md`` records the stability tier of
#: every documented name.
__all__ = [
    "__version__",
    # experiment API (lazy re-exports from repro.api)
    "ExperimentPlan",
    "Session",
    "SchedulerSuite",
    "CellResult",
    "ScenarioResult",
    "register_scheme",
    # scheduling environment (lazy re-export from repro.env)
    "SchedulingEnv",
]

#: Which subpackage actually defines each lazy top-level name.
_LAZY_EXPORTS = {
    "ExperimentPlan": "repro.api",
    "Session": "repro.api",
    "SchedulerSuite": "repro.api",
    "CellResult": "repro.api",
    "ScenarioResult": "repro.api",
    "register_scheme": "repro.api",
    "SchedulingEnv": "repro.env",
}


def __getattr__(name: str):
    # Lazy so `import repro` stays cheap and free of import cycles; the
    # resolved attribute is cached in the module namespace.
    source = _LAZY_EXPORTS.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(source), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
