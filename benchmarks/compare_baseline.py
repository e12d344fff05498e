"""Gate fresh benchmark reports against the committed baselines.

CI runs ``benchmarks/throughput.py`` and ``benchmarks/rollout_throughput.py``
and then calls this script to compare each report with its committed
counterpart.

With the throughput reports (``--throughput`` /
``--throughput-baseline``), per tier of the PR report:

* the trajectory (event count and makespan) equals the committed run's;
* every tier but ``ci`` may regress its events/sec at most
  ``--max-regression`` (relative, default 15 %) — normalized by the same
  report's ``ci`` events/sec, so runner hardware cancels out.

With the rollout-throughput reports (``--rollout`` /
``--rollout-baseline``), per case present in both reports:

* the fast observation path still reproduces the dataclass oracle
  bit-for-bit (``modes_agree``), and the fast STP equals the committed
  baseline's exactly (episodes are deterministic per scenario/seed);
* ``fast_speedup`` — fast steps/sec normalized by the same machine's
  oracle-mode steps/sec — may regress at most
  ``--rollout-max-regression`` (default 30 %, looser than the throughput
  tiers because the quick cases time tens-of-milliseconds episodes).

The thresholds can also be set through the ``REPRO_BENCH_MAX_REGRESSION``
and ``REPRO_ROLLOUT_MAX_REGRESSION`` environment variables.  Refresh a
baseline (same command CI uses, with ``--output`` at the committed file)
whenever a PR legitimately changes the performance envelope.

Usage::

    python benchmarks/compare_baseline.py \
        --throughput BENCH_throughput_pr.json \
        --throughput-baseline BENCH_throughput.json \
        --rollout BENCH_rollout_pr.json --rollout-baseline BENCH_rollout.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read benchmark report {path!r}: {error}",
              file=sys.stderr)
        raise SystemExit(2)


#: The throughput tier whose events/sec normalizes every other tier's.
NORM_TIER = "ci"


def check_throughput(pr: dict, base: dict, max_regression: float,
                     failures: list[str]) -> None:
    """Gate the throughput report against its committed baseline.

    Each tier's run (the ``"vector"`` entry) is deterministic per
    scenario/seed, so its trajectory (event count and makespan) must
    match the committed run exactly.  Events/sec is hardware-bound, so
    every tier but ``ci`` is gated on its events/sec normalized by the
    same report's ``ci`` events/sec; the ``ci`` tier itself, the
    normalizer, is gated by its trajectory pin alone.
    """
    for tier, entry in sorted(pr.get("tiers", {}).items()):
        check_tier(tier, entry, pr, base.get("tiers", {}).get(tier), base,
                   max_regression, failures)


def check_tier(tier: str, entry: dict, pr: dict, reference: dict | None,
               base: dict, max_regression: float,
               failures: list[str]) -> None:
    """Gate one throughput tier (see :func:`check_throughput`)."""
    vector = entry.get("vector")
    if vector is None:
        print(f"throughput tier {tier!r}: no run recorded; skipping")
        return
    if reference is not None and "vector" in reference:
        ref_vector = reference["vector"]
        if (vector.get("events") != ref_vector.get("events")
                or vector.get("makespan_min") != ref_vector.get("makespan_min")):
            failures.append(
                f"throughput tier {tier!r}: trajectory diverges from the "
                f"committed baseline (events "
                f"{vector.get('events')} vs {ref_vector.get('events')}, "
                f"makespan {vector.get('makespan_min')} vs "
                f"{ref_vector.get('makespan_min')}) — refresh the baseline "
                f"only if the behaviour change is intended")
    if tier == NORM_TIER:
        return
    try:
        pr_norm = (float(vector["events_per_s"])
                   / float(pr["tiers"][NORM_TIER]["vector"]["events_per_s"]))
        base_norm = (float(reference["vector"]["events_per_s"])
                     / float(base["tiers"][NORM_TIER]["vector"]["events_per_s"]))
    except (KeyError, TypeError, ZeroDivisionError):
        print(f"throughput tier {tier!r}: missing {NORM_TIER!r} "
              f"reference in a report; skipping the events/sec gate")
        return
    regression = pr_norm / base_norm - 1.0
    print(f"throughput tier {tier!r}: events/sec at {pr_norm:.3f}x "
          f"the {NORM_TIER!r} tier's (baseline {base_norm:.3f}x, "
          f"{regression:+.1%}; budget -{max_regression:.0%})")
    if pr_norm < base_norm * (1.0 - max_regression):
        failures.append(
            f"throughput tier {tier!r}: normalized events/sec regression "
            f"{regression:+.1%} exceeds the {max_regression:.0%} budget")


def check_rollout(pr: dict, base: dict, max_regression: float,
                  failures: list[str]) -> None:
    """Gate the rollout-throughput report against its committed baseline.

    Per case present in both reports (``benchmarks/rollout_throughput.py``
    output):

    * ``modes_agree`` must hold absolutely — the fast observation path
      (``obs_mode="features"`` + candidate row cache) must reproduce the
      dataclass oracle's episode bit-for-bit, decision traces included;
    * the fast mode's STP must equal the committed baseline's exactly
      (episodes are deterministic per scenario/seed, so any drift is a
      behaviour change, not noise);
    * ``fast_speedup`` (fast steps/sec over the same machine's oracle
      steps/sec — hardware cancels) may regress at most
      ``max_regression`` against the baseline's ratio.

    The report's own ``committed_checkpoint`` pin (churn20 learned STP
    vs BENCH_learned.json) must also hold when present.
    """
    pin = pr.get("committed_checkpoint")
    if pin is not None and pin.get("matches") is not True:
        failures.append(
            f"rollout: churn20 learned STP {pin.get('measured_stp')} no "
            f"longer matches the committed checkpoint eval "
            f"{pin.get('committed_stp')} ({pin.get('source')})")
    for case, entry in sorted(pr.get("cases", {}).items()):
        if entry.get("modes_agree") is not True:
            failures.append(
                f"rollout case {case!r}: fast and oracle observation modes "
                f"diverge — the array-backed path no longer reproduces the "
                f"dataclass oracle (modes_agree is not true)")
            continue
        reference = base.get("cases", {}).get(case)
        if reference is None or "fast_speedup" not in reference:
            print(f"rollout case {case!r}: no committed reference; "
                  f"skipping the steps/sec gate")
            continue
        pr_stp = entry.get("fast", {}).get("stp")
        base_stp = reference.get("fast", {}).get("stp")
        if pr_stp != base_stp:
            failures.append(
                f"rollout case {case!r}: STP diverges from the committed "
                f"baseline ({pr_stp} vs {base_stp}) — episodes are "
                f"deterministic, so refresh the baseline only if the "
                f"behaviour change is intended")
        pr_speedup = float(entry["fast_speedup"])
        base_speedup = float(reference["fast_speedup"])
        regression = pr_speedup / base_speedup - 1.0
        print(f"rollout case {case!r}: fast path at {pr_speedup:.2f}x the "
              f"oracle's steps/sec (baseline {base_speedup:.2f}x, "
              f"{regression:+.1%}; budget -{max_regression:.0%})")
        if pr_speedup < base_speedup * (1.0 - max_regression):
            failures.append(
                f"rollout case {case!r}: normalized steps/sec regression "
                f"{regression:+.1%} exceeds the {max_regression:.0%} budget")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--throughput", metavar="PATH",
                        help="freshly produced throughput report "
                             "(benchmarks/throughput.py output)")
    parser.add_argument("--throughput-baseline", metavar="PATH",
                        default="BENCH_throughput.json",
                        help="committed throughput reference "
                             "(default: BENCH_throughput.json)")
    parser.add_argument("--rollout", metavar="PATH",
                        help="freshly produced rollout-throughput report "
                             "(benchmarks/rollout_throughput.py output)")
    parser.add_argument("--rollout-baseline", metavar="PATH",
                        default="BENCH_rollout.json",
                        help="committed rollout-throughput reference "
                             "(default: BENCH_rollout.json)")
    parser.add_argument(
        "--rollout-max-regression", type=float,
        default=float(os.environ.get("REPRO_ROLLOUT_MAX_REGRESSION", "0.30")),
        metavar="FRACTION",
        help="maximum allowed fast_speedup regression for the rollout "
             "gate (default: 0.30 — the quick cases time tens-of-"
             "milliseconds episodes, so the ratio is noisier than the "
             "long-running throughput tiers; correctness is carried by the "
             "bit-exact modes_agree and STP pins, the ratio gate only "
             "has to catch the fast path losing its advantage)")
    parser.add_argument(
        "--max-regression", type=float,
        default=float(os.environ.get("REPRO_BENCH_MAX_REGRESSION", "0.15")),
        metavar="FRACTION",
        help="maximum allowed normalized events/sec regression of a "
             "throughput tier (default: 0.15, i.e. 15%%)")
    args = parser.parse_args(argv)
    if args.max_regression < 0:
        parser.error("--max-regression cannot be negative")
    if args.rollout_max_regression < 0:
        parser.error("--rollout-max-regression cannot be negative")

    if args.throughput is None and args.rollout is None:
        parser.error("nothing to compare: pass --throughput and/or --rollout")

    failures: list[str] = []
    if args.throughput is not None:
        check_throughput(_load(args.throughput),
                         _load(args.throughput_baseline),
                         args.max_regression, failures)

    if args.rollout is not None:
        check_rollout(_load(args.rollout), _load(args.rollout_baseline),
                      args.rollout_max_regression, failures)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
