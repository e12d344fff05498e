"""Figure 9: comparison against unified single-model approaches.

The unified baselines use one modelling technique for every application —
each of the three Table 1 families, plus a neural-network regressor — with
the same co-location policy as the paper's approach.  The mixture of
experts should match or beat all of them on STP and ANTT.
"""

from __future__ import annotations

from repro.api import (
    DEFAULT_SCENARIOS,
    ExperimentPlan,
    ScenarioResult,
    SchedulerSuite,
    Session,
)

__all__ = ["SCHEMES", "run", "format_table"]

#: The schemes of Figure 9.
SCHEMES: tuple[str, ...] = (
    "unified_power_law",
    "unified_exponential",
    "unified_napierian_log",
    "unified_ann",
    "ours",
)


def run(scenarios=DEFAULT_SCENARIOS, n_mixes: int = 3, seed: int = 11,
        suite: SchedulerSuite | None = None, include_learned: bool = False,
        workers: int = 1,
        session: Session | None = None) -> list[ScenarioResult]:
    """Reproduce Figure 9 over the requested scenarios.

    ``include_learned`` appends the trained ``learned`` scheme as one
    more single-model baseline column (opt-in, like Figure 6's).
    """
    schemes = SCHEMES + (("learned",) if include_learned else ())
    plan = ExperimentPlan(schemes=schemes, scenarios=scenarios,
                          n_mixes=n_mixes, seed=seed, workers=workers)
    if session is not None:
        return session.run(plan)
    with Session(suite=suite) as own_session:
        return own_session.run(plan)


def format_table(results: list[ScenarioResult]) -> str:
    """Render STP / ANTT-reduction rows per scenario."""
    schemes = list(dict.fromkeys(r.scheme for r in results))
    scenarios = list(dict.fromkeys(r.scenario for r in results))
    lines = []
    header = f"{'scenario':>9s} " + " ".join(f"{s:>22s}" for s in schemes)
    lines.append("Normalized STP (Figure 9a):")
    lines.append(header)
    for scenario in scenarios:
        row = [f"{scenario:>9s}"]
        for scheme in schemes:
            value = next(r.stp_geomean for r in results
                         if r.scheme == scheme and r.scenario == scenario)
            row.append(f"{value:22.2f}")
        lines.append(" ".join(row))
    lines.append("")
    lines.append("ANTT reduction % (Figure 9b):")
    lines.append(header)
    for scenario in scenarios:
        row = [f"{scenario:>9s}"]
        for scheme in schemes:
            value = next(r.antt_reduction_mean for r in results
                         if r.scheme == scheme and r.scenario == scenario)
            row.append(f"{value:22.1f}")
        lines.append(" ".join(row))
    return "\n".join(lines)
