"""Learned-scheduler evaluation: the trained checkpoint vs the baselines.

Evaluates the ``learned`` scheme (PR 8's policy-gradient checkpoint)
against the environment baselines (random, greedy) and the paper's
schemes (pairwise, ours) on one scenario, over a common set of episode
seeds.  Every scheme runs through the *same* code path — a
:class:`repro.env` rollout (native schemes via
:class:`~repro.env.PolicyAdapter`, which PR 5 proved bit-identical to
the native engines) — so the comparison is apples to apples.

Results are written as JSON for CI artifacts and the committed
reference (``BENCH_learned.json``).  Exit status encodes the acceptance
gates: the trained policy must beat both environment baselines and hold
at least ``--ours-floor`` (default 0.95) of the "ours" STP.

Usage::

    python benchmarks/train_eval.py --output BENCH_learned.json
    python benchmarks/train_eval.py --quick --checkpoint policy.npz
"""

from __future__ import annotations

import argparse
import json
import platform

import numpy as np

from repro.api import Session

SCENARIO = "churn20"
SCHEMES = ("random", "greedy", "pairwise", "ours", "learned")
FULL_SEEDS = (11, 12, 13)
QUICK_SEEDS = (11,)


def evaluate(session: Session, scenario: str, scheme: str, policy_spec: str,
             seeds) -> dict:
    """Roll out one scheme over the seeds; returns its metric row."""
    stp, antt = [], []
    for seed in seeds:
        episode = session.rollout(scenario, policy=policy_spec, seed=seed)
        stp.append(episode.stp)
        antt.append(episode.antt)
    return {
        "scheme": scheme,
        "stp_per_seed": [round(v, 4) for v in stp],
        "stp_geomean": round(float(np.exp(np.mean(np.log(stp)))), 4),
        "antt_mean": round(float(np.mean(antt)), 4),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default=SCENARIO,
                        help=f"evaluation scenario (default: {SCENARIO})")
    parser.add_argument("--checkpoint", default=None, metavar="PATH.npz",
                        help="checkpoint to serve (default: the committed "
                             "package checkpoint)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke settings: one episode seed")
    parser.add_argument("--ours-floor", type=float, default=0.95,
                        help="minimum learned/ours STP ratio to pass "
                             "(default: 0.95)")
    parser.add_argument("--output", default="BENCH_learned.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    seeds = QUICK_SEEDS if args.quick else FULL_SEEDS
    learned_spec = (f"learned:{args.checkpoint}" if args.checkpoint
                    else "learned")
    rows = []
    with Session() as session:
        for scheme in SCHEMES:
            spec = learned_spec if scheme == "learned" else scheme
            print(f"evaluating {scheme} on {args.scenario} "
                  f"(seeds {', '.join(map(str, seeds))})...")
            row = evaluate(session, args.scenario, scheme, spec, seeds)
            print(f"  STP geomean {row['stp_geomean']:.3f} "
                  f"ANTT mean {row['antt_mean']:.3f}")
            rows.append(row)

    by_scheme = {row["scheme"]: row for row in rows}
    learned = by_scheme["learned"]
    deltas = {
        scheme: {
            "stp_delta": round(learned["stp_geomean"]
                               - by_scheme[scheme]["stp_geomean"], 4),
            "antt_delta": round(learned["antt_mean"]
                                - by_scheme[scheme]["antt_mean"], 4),
        }
        for scheme in SCHEMES if scheme != "learned"
    }
    gates = {
        "beats_random": learned["stp_geomean"]
        > by_scheme["random"]["stp_geomean"],
        "beats_greedy": learned["stp_geomean"]
        > by_scheme["greedy"]["stp_geomean"],
        "within_ours": learned["stp_geomean"]
        >= args.ours_floor * by_scheme["ours"]["stp_geomean"],
    }
    report = {
        "benchmark": "learned_scheduler_eval",
        "scenario": args.scenario,
        "seeds": list(seeds),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": rows,
        "learned_minus_baseline": deltas,
        "ours_floor": args.ours_floor,
        "gates": gates,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for scheme, delta in deltas.items():
        print(f"learned vs {scheme}: STP {delta['stp_delta']:+.3f} "
              f"ANTT {delta['antt_delta']:+.3f}")
    print(f"gates: {gates}")
    print(f"wrote {args.output}")
    return 0 if all(gates.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
