"""Event-throughput benchmark of the array-backed simulator (mega tier).

Runs the fleet-scale ``mega_*`` scenarios with a bus subscriber counting
every published event, and reports events/sec and jobs/sec per tier:

* ``ci``    — ``mega_ci_1k`` under ``pairwise``: 1k jobs on 128 churning
  nodes, small enough for every PR's CI run;
* ``queue`` — ``mega_queue_20k``: 20k jobs burst onto 1024 static
  nodes with a capped horizon — the scheduler-bound tier, where each
  epoch walks a ~20k-deep waiting queue and events/sec measures the
  scheduling epoch (queue scan + scoring + estimator inference), not
  executor dynamics;
* ``mega``  — ``mega_diurnal_10k``: 10k jobs over a replayed diurnal
  week on 1024 churning nodes, the headline throughput tier;
* ``ours``, ``oracle``, ``meta``, ``online_search``, ``learned`` —
  ``mega_ci_1k`` under that scheme, so every scheme with its own
  scoring or placement path is timed on the CI slice.  The offline
  suite is trained before the clock starts.

``queue`` and ``mega`` run ``pairwise`` too.  Each tier's run is recorded
under the ``"vector"`` key, the shape of the committed report.  Its event
count and makespan are deterministic per scenario/seed, so
``compare_baseline.py`` pins them to the committed run, and it gates every
tier's events/sec normalised by the same report's ``ci`` tier.  The ``ci``
tier runs :data:`NORM_RUNS` times and records the fastest run: its noise
would otherwise move every normalised ratio at once.
``--profile`` adds each run's per-phase wall-clock breakdown (arrivals /
faults / oom / schedule / advance, read off the engine's always-on phase
counters) so a regression can be attributed to the phase that caused it.
The committed ``BENCH_throughput.json`` additionally carries a
``prerefactor_baseline`` section: the same scenario/seed/grid measured
before the vectorization work, on the same machine as the committed
numbers.

Usage::

    python benchmarks/throughput.py --tier ci --output BENCH_throughput.json
    python benchmarks/throughput.py --tier ci,queue,ours,oracle --profile
    python benchmarks/throughput.py --tier all
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.api import SchedulerSuite  # noqa: E402
from repro.cluster.simulator import ClusterSimulator  # noqa: E402
from repro.scenarios import scenario  # noqa: E402
from repro.spark.driver import DynamicAllocationPolicy  # noqa: E402

#: tier name -> (mega-tier scenario, scheme) it runs.
TIERS = {"ci": ("mega_ci_1k", "pairwise"),
         "queue": ("mega_queue_20k", "pairwise"),
         "mega": ("mega_diurnal_10k", "pairwise"),
         "ours": ("mega_ci_1k", "ours"),
         "oracle": ("mega_ci_1k", "oracle"),
         "meta": ("mega_ci_1k", "meta"),
         "online_search": ("mega_ci_1k", "online_search"),
         "learned": ("mega_ci_1k", "learned")}

#: Benchmark grid: half-minute sampling resolution — the regime where
#: per-epoch costs (usage fan-out, capacity accounting) dominate and the
#: simulator's scaling behaviour actually shows.
TIME_STEP_MIN = 0.5
SEED = 7

#: The tier whose events/sec normalises every other tier's, and how many
#: times it runs.  One ~1 s run took 0.98-1.37 s over six repeats on a
#: 2-vCPU host; the fastest of a few identical runs is steadier.
NORM_TIER = "ci"
NORM_RUNS = 3


def run_once(scenario_name: str, scheme: str, suite: SchedulerSuite,
             profile: bool = False) -> dict:
    """One seeded scenario run; returns the measurements."""
    spec = scenario(scenario_name)
    cluster = spec.build_cluster()
    suite.ensure_trained((scheme,))
    policy = DynamicAllocationPolicy(max_executors=len(cluster))
    simulator = ClusterSimulator(
        cluster, suite.factory(scheme, allocation_policy=policy)(),
        seed=SEED, time_step_min=TIME_STEP_MIN,
        max_time_min=spec.max_time_min, faults=spec.faults)
    n_events = 0

    def count(event) -> None:
        nonlocal n_events
        n_events += 1

    simulator.events.subscribe(count)
    jobs = spec.make_mixes(n_mixes=1, seed=SEED)[0]
    start = time.perf_counter()
    result = simulator.run(jobs)
    wall = time.perf_counter() - start
    finished = sum(1 for app in simulator.submission_order
                   if app.finish_time is not None)
    report = {
        "wall_clock_s": round(wall, 2),
        "events": n_events,
        "events_per_s": round(n_events / wall, 1),
        "jobs": len(jobs),
        "jobs_finished": finished,
        "jobs_per_s": round(finished / wall, 2),
        "makespan_min": result.makespan_min,
    }
    if profile:
        phases = simulator.engine.phase_seconds
        report["phases_s"] = {name: round(seconds, 3)
                              for name, seconds in phases.items()}
        accounted = sum(phases.values())
        report["phases_s"]["other"] = round(max(wall - accounted, 0.0), 3)
    return report


def run_tier(tier: str, suite: SchedulerSuite, profile: bool) -> dict:
    """Run one tier; the normaliser keeps the fastest of its runs, which
    must all replay the same trajectory."""
    scenario_name, scheme = TIERS[tier]
    runs = []
    for _ in range(NORM_RUNS if tier == NORM_TIER else 1):
        print(f"[{tier}] {scenario_name} / {scheme} ...", flush=True,
              file=sys.stderr)
        run = run_once(scenario_name, scheme, suite, profile=profile)
        print(f"[{tier}]   {run['wall_clock_s']}s, "
              f"{run['events_per_s']:,.0f} events/s", flush=True,
              file=sys.stderr)
        runs.append(run)
    trajectories = {(run["events"], run["makespan_min"], run["jobs_finished"])
                    for run in runs}
    if len(trajectories) != 1:
        raise RuntimeError(f"tier {tier!r}: repeated runs diverge: "
                           f"{sorted(trajectories)}")
    fastest = max(runs, key=lambda run: run["events_per_s"])
    return {"scenario": scenario_name, "scheme": scheme, "vector": fastest}


def parse_tiers(value: str) -> list[str]:
    """``--tier`` value: ``all`` or a comma-separated tier list."""
    if value == "all":
        return list(TIERS)
    tiers = [tier.strip() for tier in value.split(",") if tier.strip()]
    unknown = [tier for tier in tiers if tier not in TIERS]
    if unknown or not tiers:
        raise argparse.ArgumentTypeError(
            f"unknown tier(s) {unknown!r}; choose from "
            f"{', '.join(TIERS)} or 'all'")
    return tiers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier", type=parse_tiers, default=["ci"],
                        help="comma-separated tier list out of "
                             f"{', '.join(TIERS)}, or 'all' (default: ci)")
    parser.add_argument("--profile", action="store_true",
                        help="record each run's per-phase wall-clock "
                             "breakdown (arrivals/faults/oom/schedule/"
                             "advance)")
    parser.add_argument("--output", default="BENCH_throughput.json",
                        metavar="PATH", help="report destination "
                                             "(default: BENCH_throughput.json)")
    args = parser.parse_args(argv)

    suite = SchedulerSuite()
    report = {
        "benchmark": "kernel_throughput",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "time_step_min": TIME_STEP_MIN,
        "seed": SEED,
        "tiers": {tier: run_tier(tier, suite, args.profile)
                  for tier in args.tier},
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["tiers"], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
