"""Figure 6: overall STP and ANTT of Pairwise, Quasar, our approach and Oracle.

This is the paper's headline comparison: normalized STP (Figure 6a) and
ANTT reduction (Figure 6b) for every runtime scenario of Table 3, with the
isolated one-by-one execution as the baseline.  The grid runs entirely
through :mod:`repro.api`: :func:`plan` builds the declarative grid and
:func:`run` executes it in a session.
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

__all__ = ["SCHEMES", "plan", "run", "format_table"]

#: The four schemes shown in Figure 6, plus the baseline for reference.
SCHEMES: tuple[str, ...] = ("pairwise", "quasar", "ours", "oracle")


def plan(scenarios=DEFAULT_SCENARIOS, n_mixes: int = 3, seed: int = 11,
         include_isolated: bool = False, include_learned: bool = False,
         workers: int = 1) -> ExperimentPlan:
    """The declarative Figure 6 grid.

    ``include_learned`` adds the trained ``learned`` scheme (PR 8's
    policy-gradient checkpoint) as an extra column next to the paper's
    four; it is opt-in so the published Figure 6 stays byte-stable.
    """
    schemes = (SCHEMES
               + (("learned",) if include_learned else ())
               + (("isolated",) if include_isolated else ()))
    return ExperimentPlan(schemes=schemes, scenarios=scenarios,
                          n_mixes=n_mixes, seed=seed, workers=workers)


def run(scenarios=DEFAULT_SCENARIOS, n_mixes: int = 3, seed: int = 11,
        suite: SchedulerSuite | None = None,
        include_isolated: bool = False, include_learned: bool = False,
        workers: int = 1,
        session: Session | None = None) -> list[ScenarioResult]:
    """Reproduce Figure 6 over the requested scenarios.

    Pass an existing :class:`~repro.api.Session` to share its trained
    artefacts and worker pool; otherwise a throwaway session wraps the
    given ``suite``.
    """
    grid = plan(scenarios=scenarios, n_mixes=n_mixes, seed=seed,
                include_isolated=include_isolated,
                include_learned=include_learned, workers=workers)
    if session is not None:
        return session.run(grid)
    with Session(suite=suite) as own_session:
        return own_session.run(grid)


def format_table(results: list[ScenarioResult]) -> str:
    """Render STP and ANTT-reduction rows per scenario, like Figure 6."""
    order = SCHEMES + ("learned", "isolated")
    schemes = sorted({r.scheme for r in results},
                     key=lambda s: (order.index(s) if s in order
                                    else len(order), s))
    scenarios = list(dict.fromkeys(r.scenario for r in results))
    lines = ["Normalized STP (Figure 6a):"]
    header = f"{'scenario':>9s} " + " ".join(f"{s:>12s}" for s in schemes)
    lines.append(header)
    for scenario in scenarios:
        row = [f"{scenario:>9s}"]
        for scheme in schemes:
            value = next(r.stp_geomean for r in results
                         if r.scheme == scheme and r.scenario == scenario)
            row.append(f"{value:12.2f}")
        lines.append(" ".join(row))
    lines.append(" ".join(
        [f"{'geomean':>9s}"] + [f"{overall_geomean(results, s):12.2f}" for s in schemes]
    ))
    lines.append("")
    lines.append("ANTT reduction % (Figure 6b):")
    lines.append(header)
    for scenario in scenarios:
        row = [f"{scenario:>9s}"]
        for scheme in schemes:
            value = next(r.antt_reduction_mean for r in results
                         if r.scheme == scheme and r.scenario == scenario)
            row.append(f"{value:12.1f}")
        lines.append(" ".join(row))
    lines.append(" ".join(
        [f"{'mean':>9s}"]
        + [f"{overall_geomean(results, s, 'antt_reduction_mean'):12.1f}" for s in schemes]
    ))
    return "\n".join(lines)
