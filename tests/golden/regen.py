#!/usr/bin/env python
"""Golden-trace harness: compact, committed fingerprints of whole runs.

A *trace* is a small JSON document fingerprinting one simulated schedule:
the retained event log's per-kind counts and a digest of its ordered
(kind, time, app, node) records, the headline metrics, one compact record
per job (processed volume included), the fault telemetry, and a digest of
the same trace built on the fixed-step engine.  Every built-in registered
scheme is traced on the seed scenario L1, the mid-size batch L5, the
dynamic-cluster scenario churn20 and the mid-run regime change
regime_shift, plus ``oracle_noresize`` (the oracle under Quasar's
no-resize admission) on L1/L5/churn20/L8.  The traces are committed under
``tests/golden/`` and diffed against fresh runs by
``test_golden_traces.py``, so a refactor of the engine, the bus, the
schemes or the fault subsystem gets bit-for-bit evidence on both engines.

The schemes that need trained artefacts share one offline suite trained
here (``collect_training_data(seed=0)`` and the mixture of experts fitted
on it); ``learned`` serves the committed default checkpoint whatever
``$REPRO_LEARNED_CHECKPOINT`` says.

Regenerate after an *intentional* behaviour change::

    PYTHONPATH=src python tests/golden/regen.py --regen

Without ``--regen`` the script reports, per case, whether the current
code still matches the committed trace.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

GOLDEN_DIR = Path(__file__).resolve().parent


def _oracle_noresize(policy):
    """Quasar's admission rule (take the full share or leave the node)
    over exact footprints, so no trained classifier enters the trace."""
    from repro.scheduling import MemoryAwareCoLocationScheduler, OracleEstimator

    return MemoryAwareCoLocationScheduler(OracleEstimator(),
                                          allocation_policy=policy,
                                          resize_to_fit=False)


#: Traced configurations that are not registered schemes: name ->
#: builder taking the allocation policy.
LOCAL_SCHEMES = {"oracle_noresize": _oracle_noresize}

#: The built-in registered schemes, in registration order; a test checks
#: this tuple against the registry, so a new scheme lands with goldens.
SCHEMES: tuple[str, ...] = (
    "isolated", "pairwise", "online_search", "quasar", "ours", "oracle",
    "learned", "meta", "unified_ann", "unified_power_law",
    "unified_exponential", "unified_napierian_log")

#: The scenarios every registered scheme is traced on.
SCENARIOS: tuple[str, ...] = ("L1", "L5", "churn20", "regime_shift")

#: The committed cases: (scenario, scheme).  L8 is added for
#: ``oracle_noresize`` because its queue is where the take-it-or-leave-it
#: rule turns nodes away hundreds of times per run.
CASES: tuple[tuple[str, str], ...] = tuple(
    (scenario, scheme) for scenario in SCENARIOS for scheme in SCHEMES
) + tuple((scenario, "oracle_noresize")
          for scenario in ("L1", "L5", "churn20", "L8"))

#: Every committed trace pins the same draw: the CLI's default seed on
#: the event-driven engine, the one every run uses.
SEED = 11
ENGINE = "event"


def simulator_type(engine: str):
    """``ClusterSimulator`` for the event engine, or for ``"fixed"`` a
    subclass whose ``engine_type`` is the fixed-step reference engine."""
    from repro.cluster.engine import FixedStepEngine
    from repro.cluster.simulator import ClusterSimulator

    class FixedStepSimulator(ClusterSimulator):
        engine_type = FixedStepEngine

    return {"fixed": FixedStepSimulator, "event": ClusterSimulator}[engine]


def trace_path(scenario: str, scheme: str) -> Path:
    """Where the committed trace of one case lives."""
    return GOLDEN_DIR / f"{scenario}_{scheme}.json"


@functools.lru_cache(maxsize=1)
def artefacts() -> SimpleNamespace:
    """The offline suite the trained schemes read, trained once."""
    from repro.core.moe import MixtureOfExperts
    from repro.core.training import collect_training_data

    dataset = collect_training_data(seed=0)
    return SimpleNamespace(dataset=dataset,
                           moe=MixtureOfExperts.from_dataset(dataset))


def build(scheme: str, policy):
    """A fresh scheduler for one traced scheme."""
    from repro.scheduling.registry import build_scheduler, scheme_info

    local = LOCAL_SCHEMES.get(scheme)
    if local is not None:
        return local(policy)
    kwargs = {"allocation_policy": policy}
    if scheme == "learned":
        from repro.env.train.scheme import DEFAULT_CHECKPOINT

        kwargs["checkpoint"] = DEFAULT_CHECKPOINT
    suite = artefacts() if scheme_info(scheme).requires else None
    return build_scheduler(scheme, suite, **kwargs)


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def make_trace(scenario: str, scheme: str, seed: int = SEED,
               engine: str = ENGINE) -> dict:
    """Fingerprint one (scenario, scheme, seed, engine) run.

    The dict is normalised through a JSON round-trip, so comparing it to
    a committed document compares exactly what the file stores (Python
    float repr round-trips bit-for-bit).
    """
    from repro.metrics.throughput import evaluate_schedule, matched_apps
    from repro.scenarios import load_scenario
    from repro.spark.driver import DynamicAllocationPolicy

    spec = load_scenario(scenario)
    cluster = spec.build_cluster()
    policy = DynamicAllocationPolicy(max_executors=len(cluster))
    scheduler = build(scheme, policy)
    simulator = simulator_type(engine)(cluster, scheduler, seed=seed,
                                       max_time_min=spec.max_time_min,
                                       faults=spec.faults)
    jobs = spec.make_mixes(n_mixes=1, seed=seed)[0]
    result = simulator.run(jobs)
    evaluation = evaluate_schedule(result, jobs, policy)

    event_counts: dict[str, int] = {}
    stream = []
    for event in result.events.events:
        kind = event.kind.value
        event_counts[kind] = event_counts.get(kind, 0) + 1
        stream.append((kind, event.time, getattr(event, "app", None),
                       getattr(event, "node_id", None)))

    trace = {
        "scenario": spec.name,
        "scheme": scheme,
        "seed": seed,
        "engine": engine,
        "n_jobs": len(jobs),
        "event_counts": dict(sorted(event_counts.items())),
        "event_stream_sha256": _sha256(stream),
        "metrics": {
            "stp": evaluation.stp,
            "antt": evaluation.antt,
            "antt_reduction_percent": evaluation.antt_reduction_percent,
            "makespan_min": evaluation.makespan_min,
            "mean_utilization_percent": evaluation.mean_utilization_percent,
            "all_finished": evaluation.all_finished,
        },
        "jobs": [
            {
                "name": app.name,
                "submit_time_min": app.submit_time,
                "finish_time_min": app.finish_time,
                "turnaround_min": app.turnaround_min(),
                "slowdown": app.turnaround_min() / reference,
                "processed_gb": app.processed_gb,
            }
            for _, app, reference in matched_apps(result, list(jobs), policy)
        ],
    }
    if result.fault_summary is not None:
        trace["fault_summary"] = result.fault_summary.to_dict()
    return json.loads(json.dumps(trace))


def make_golden(scenario: str, scheme: str) -> dict:
    """The committed document of one case: the event-engine trace plus
    ``fixed_engine_sha256``, the digest of the fixed-step engine's."""
    golden = make_trace(scenario, scheme)
    golden["fixed_engine_sha256"] = _sha256(
        make_trace(scenario, scheme, engine="fixed"))
    return golden


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--regen", action="store_true",
                        help="overwrite the committed traces with the "
                             "current code's output")
    args = parser.parse_args(argv)
    stale = 0
    for scenario, scheme in CASES:
        path = trace_path(scenario, scheme)
        trace = make_golden(scenario, scheme)
        if args.regen:
            path.write_text(json.dumps(trace, indent=2) + "\n")
            print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)}")
            continue
        if not path.is_file():
            print(f"MISSING {path.name} (run with --regen)")
            stale += 1
        elif json.loads(path.read_text()) != trace:
            print(f"STALE   {path.name} (current run differs; rerun with "
                  "--regen if intentional)")
            stale += 1
        else:
            print(f"ok      {path.name}")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
