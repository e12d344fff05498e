"""Meta-scheduler evaluation: adaptive hot-swap vs every fixed scheme.

Evaluates the context-aware ``meta`` scheme (pairwise primary, the
paper's predictive scheme as pressure-triggered fallback — see
:mod:`repro.scheduling.meta`) against each fixed scheme on an adaptive
scenario whose workload moves through distinct operating regimes, over a
common set of seeds.  Every scheme faces the exact same workload draws
through the same :mod:`repro.api` cell path, so the comparison is
apples to apples; the meta rows additionally carry the hot-swap
telemetry (switch times and targets) threaded through
:class:`~repro.api.CellResult`.

Results are written as JSON for CI artifacts and the committed
reference (``BENCH_meta.json``).  Exit status encodes the acceptance
gate: the adaptive policy's STP geomean must be at least as good as the
best fixed scheme's — the whole point of switching is that no fixed
policy wins every regime.

Usage::

    python benchmarks/meta_eval.py --output BENCH_meta.json
    python benchmarks/meta_eval.py --quick
"""

from __future__ import annotations

import argparse
import json
import platform

import numpy as np

from repro.api import ExperimentPlan, Session

SCENARIO = "regime_shift"
FIXED_SCHEMES = ("isolated", "pairwise", "ours", "learned")
SCHEMES = FIXED_SCHEMES + ("meta",)
FULL_SEEDS = (11, 12, 13)
QUICK_SEEDS = (11,)


def evaluate(session: Session, scenario: str, schemes, seeds) -> list[dict]:
    """Run every scheme over the seeds; returns one metric row each.

    One single-mix plan per seed keeps the workload draw and the
    simulator stream seeded together, matching the native engines'
    single-run behaviour exactly.
    """
    cells: dict[str, list] = {scheme: [] for scheme in schemes}
    for seed in seeds:
        plan = ExperimentPlan(schemes=tuple(schemes), scenarios=(scenario,),
                              n_mixes=1, seed=seed)
        for cell in session.stream(plan):
            cells[cell.scheme].append(cell)
    rows = []
    for scheme in schemes:
        row_cells = sorted(cells[scheme], key=lambda c: c.seed)
        stp = [c.stp for c in row_cells]
        row = {
            "scheme": scheme,
            "stp_per_seed": [round(v, 4) for v in stp],
            "stp_geomean": round(float(np.exp(np.mean(np.log(stp)))), 4),
            "antt_mean": round(float(np.mean([c.antt for c in row_cells])),
                               4),
        }
        switches = [[s.to_dict() for s in c.switches] for c in row_cells]
        if any(switches):
            row["switches_per_seed"] = switches
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default=SCENARIO,
                        help=f"evaluation scenario (default: {SCENARIO})")
    parser.add_argument("--quick", action="store_true",
                        help="smoke settings: one seed")
    parser.add_argument("--output", default="BENCH_meta.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    seeds = QUICK_SEEDS if args.quick else FULL_SEEDS
    print(f"evaluating {', '.join(SCHEMES)} on {args.scenario} "
          f"(seeds {', '.join(map(str, seeds))})...")
    with Session() as session:
        rows = evaluate(session, args.scenario, SCHEMES, seeds)
    for row in rows:
        print(f"  {row['scheme']:10s} STP geomean {row['stp_geomean']:.3f} "
              f"ANTT mean {row['antt_mean']:.3f}"
              + (f" switches {sum(map(len, row['switches_per_seed']))}"
                 if "switches_per_seed" in row else ""))

    by_scheme = {row["scheme"]: row for row in rows}
    meta = by_scheme["meta"]
    best_fixed = max(FIXED_SCHEMES,
                     key=lambda s: by_scheme[s]["stp_geomean"])
    deltas = {
        scheme: round(meta["stp_geomean"] - by_scheme[scheme]["stp_geomean"],
                      4)
        for scheme in FIXED_SCHEMES
    }
    gates = {
        "beats_every_fixed_scheme": all(
            meta["stp_geomean"] >= by_scheme[s]["stp_geomean"]
            for s in FIXED_SCHEMES),
        "switched_at_least_once": bool(meta.get("switches_per_seed")),
    }
    report = {
        "benchmark": "meta_scheduler_eval",
        "scenario": args.scenario,
        "seeds": list(seeds),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": rows,
        "meta_minus_fixed_stp": deltas,
        "best_fixed_scheme": best_fixed,
        "gates": gates,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for scheme, delta in deltas.items():
        print(f"meta vs {scheme}: STP {delta:+.3f}")
    print(f"gates: {gates}")
    print(f"wrote {args.output}")
    return 0 if all(gates.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
