"""Figure 10: comparison against online (gradient-descent) search.

The online-search scheme finds executor allocations by runtime trial
instead of prediction; the paper reports that its search overhead makes it
roughly 2.4x/2.6x worse than the mixture-of-experts approach on STP/ANTT.
"""

from __future__ import annotations

from repro.api import (
    DEFAULT_SCENARIOS,
    ExperimentPlan,
    ScenarioResult,
    SchedulerSuite,
    Session,
    overall_geomean,
)

__all__ = ["SCHEMES", "run", "format_table", "stp_advantage"]

#: The schemes of Figure 10.
SCHEMES: tuple[str, ...] = ("online_search", "ours")


def run(scenarios=DEFAULT_SCENARIOS, n_mixes: int = 3, seed: int = 11,
        suite: SchedulerSuite | None = None, workers: int = 1,
        session: Session | None = None) -> list[ScenarioResult]:
    """Reproduce Figure 10 over the requested scenarios."""
    plan = ExperimentPlan(schemes=SCHEMES, scenarios=scenarios,
                          n_mixes=n_mixes, seed=seed, workers=workers)
    if session is not None:
        return session.run(plan)
    with Session(suite=suite) as own_session:
        return own_session.run(plan)


def stp_advantage(results: list[ScenarioResult]) -> float:
    """How many times better our approach is than online search on STP."""
    return (overall_geomean(results, "ours")
            / overall_geomean(results, "online_search"))


def format_table(results: list[ScenarioResult]) -> str:
    """Render the Figure 10 comparison."""
    scenarios = list(dict.fromkeys(r.scenario for r in results))
    lines = [f"{'scenario':>9s} {'online STP':>12s} {'ours STP':>12s} "
             f"{'online ANTTred%':>16s} {'ours ANTTred%':>14s}"]
    for scenario in scenarios:
        online = next(r for r in results
                      if r.scheme == "online_search" and r.scenario == scenario)
        ours = next(r for r in results
                    if r.scheme == "ours" and r.scenario == scenario)
        lines.append(f"{scenario:>9s} {online.stp_geomean:12.2f} "
                     f"{ours.stp_geomean:12.2f} "
                     f"{online.antt_reduction_mean:16.1f} "
                     f"{ours.antt_reduction_mean:14.1f}")
    lines.append(f"our approach delivers {stp_advantage(results):.1f}x the STP "
                 "of online search")
    return "\n".join(lines)
