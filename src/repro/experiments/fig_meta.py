"""Meta-scheduler figure: adaptive hot-swap vs the fixed schemes.

Not a figure from the paper — this is the evaluation of the repo's
context-aware :class:`~repro.scheduling.meta.MetaScheduler` extension on
the adaptive scenarios (``regime_shift``, ``adaptive_churn``), whose
whole point is that *no fixed policy wins every phase of the run*.  The
comparison pits ``meta`` (pairwise primary, the paper's predictive
scheme as pressure-triggered fallback) against each of its inner schemes
run fixed for the whole schedule, so the delta is exactly the value of
switching.  The grid runs through :mod:`repro.api` like every other
figure; the switch telemetry threaded through
:class:`~repro.api.ScenarioResult` becomes the table's last columns.
"""

from __future__ import annotations

from repro.api import (
    ExperimentPlan,
    ScenarioResult,
    SchedulerSuite,
    Session,
    overall_geomean,
)

__all__ = ["SCHEMES", "SCENARIOS", "plan", "run", "format_table"]

#: The fixed inner schemes, then the adaptive policy that swaps between
#: them; column order of the table.
SCHEMES: tuple[str, ...] = ("pairwise", "ours", "meta")

#: Scenarios with distinct operating regimes inside one run.
SCENARIOS: tuple[str, ...] = ("regime_shift", "adaptive_churn")


def plan(scenarios=SCENARIOS, n_mixes: int = 3, seed: int = 11,
         workers: int = 1) -> ExperimentPlan:
    """The declarative meta-vs-fixed grid."""
    return ExperimentPlan(schemes=SCHEMES, scenarios=scenarios,
                          n_mixes=n_mixes, seed=seed, workers=workers)


def run(scenarios=SCENARIOS, n_mixes: int = 3, seed: int = 11,
        suite: SchedulerSuite | None = None, workers: int = 1,
        session: Session | None = None) -> list[ScenarioResult]:
    """Run the meta-scheduler comparison over the adaptive scenarios."""
    grid = plan(scenarios=scenarios, n_mixes=n_mixes, seed=seed,
                workers=workers)
    if session is not None:
        return session.run(grid)
    with Session(suite=suite) as own_session:
        return own_session.run(grid)


def format_table(results: list[ScenarioResult]) -> str:
    """Render STP per scenario plus the meta policy's switch telemetry."""
    schemes = [s for s in SCHEMES
               if any(r.scheme == s for r in results)]
    scenarios = list(dict.fromkeys(r.scenario for r in results))
    lines = ["Meta-scheduler vs fixed schemes (STP geomean):"]
    lines.append(f"{'scenario':>14s} "
                 + " ".join(f"{s:>10s}" for s in schemes))
    for scenario in scenarios:
        row = [f"{scenario:>14s}"]
        for scheme in schemes:
            value = next(r.stp_geomean for r in results
                         if r.scheme == scheme and r.scenario == scenario)
            row.append(f"{value:10.2f}")
        lines.append(" ".join(row))
    if len(scenarios) > 1:
        lines.append(" ".join(
            [f"{'geomean':>14s}"]
            + [f"{overall_geomean(results, s):10.2f}" for s in schemes]))
    adaptive = [r for r in results if r.adaptive]
    if adaptive:
        lines.append("")
        lines.append("switch telemetry (means across mixes):")
        lines.append(f"{'scenario':>14s} {'scheme':>10s} {'switches':>9s}"
                     "  inner schemes visited")
        for row in adaptive:
            lines.append(f"{row.scenario:>14s} {row.scheme:>10s} "
                         f"{row.switches_mean:9.1f}  "
                         f"{' -> '.join(row.schemes_used)}")
    return "\n".join(lines)
