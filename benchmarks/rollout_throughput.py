"""Episode-rollout throughput: the fast observation path vs the oracle.

Measures end-to-end environment stepping throughput — env steps/sec and
scheduling decisions/sec — for sampled-collection-style rollouts, in the
two observation modes the environment offers:

* ``oracle`` — ``obs_mode="dataclass"`` with utilization recording on
  and the candidate row cache off: the pre-fast-path configuration,
  re-measured on the same machine so the speedup is hardware-free;
* ``fast``   — ``obs_mode="features"`` with utilization recording off
  and the row cache on: the array-backed collection path
  (:class:`~repro.env.FeatureObservation` filled straight from the
  kernel's state columns, cached candidate feature rows across the
  ``decide_epoch`` fixed point).

Cases cover the learned policy (whose per-epoch decisions exercise the
featurizer + policy network) and a native scheme through
:class:`~repro.env.PolicyAdapter` (whose epochs are scheme-bound, the
observation being pure overhead), on ``churn20`` (the training scenario)
and the ``mega_ci_1k`` fleet tier.

The two modes must agree **bit-for-bit**: each case records a
``modes_agree`` flag (identical STP, step count, and — for the learned
policy — identical decision traces, feature matrices included); a fast
path that diverges is a failure, not a win.  The churn20 learned case is
additionally pinned to the committed checkpoint's ``BENCH_learned.json``
evaluation.  ``benchmarks/compare_baseline.py --rollout`` gates the
normalized ``fast_speedup`` (fast steps/sec over the same machine's
oracle steps/sec) against the committed ``BENCH_rollout.json``.

The committed report also carries a ``prerefactor_baseline`` section
(``--prerefactor``): the same episodes measured at the pre-PR commit on
the same machine.

Usage::

    python benchmarks/rollout_throughput.py --output BENCH_rollout.json
    python benchmarks/rollout_throughput.py --quick
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from repro.env.environment import SchedulingEnv  # noqa: E402
from repro.env.policies import PolicyAdapter  # noqa: E402
from repro.env.train.scheme import LearnedPolicy  # noqa: E402

SEED = 11
ENGINE = "event"

#: case name -> (scenario, policy kind, timed repeats).  churn20
#: episodes run in tens of milliseconds, so they take enough repeats to
#: keep the best-of timing stable; ``--quick`` trims the case set to
#: them, not the repeats.
CASES = {
    "churn20_learned": ("churn20", "learned", 5),
    "churn20_pairwise": ("churn20", "pairwise", 5),
    "mega_ci_1k_learned": ("mega_ci_1k", "learned", 1),
    "mega_ci_1k_pairwise": ("mega_ci_1k", "pairwise", 1),
}
QUICK_CASES = ("churn20_learned", "churn20_pairwise")

#: Committed checkpoint eval pin: BENCH_learned.json stp_per_seed for
#: churn20 seed 11 (rounded to 4 decimals exactly as that report does).
LEARNED_BENCH = Path(__file__).resolve().parents[1] / "BENCH_learned.json"


def make_policy(kind: str, *, trace: bool = False, row_cache: bool = True):
    if kind == "learned":
        policy = LearnedPolicy(record_trace=trace)
        policy.row_cache = row_cache
        return policy
    return PolicyAdapter(kind)


def run_episode(scenario: str, kind: str, mode: str, *,
                trace: bool = False) -> dict:
    """One full episode in one observation mode; returns measurements.

    The timed region is the act/step loop (stepping throughput); reset
    and the metrics fold are reported separately.  ``trace=True`` runs
    the learned policy with decision-trace recording for the
    bit-for-bit mode comparison (slightly slower, so agreement episodes
    are not the timed ones).
    """
    fast = mode == "fast"
    policy = make_policy(kind, trace=trace, row_cache=fast)
    env = SchedulingEnv(scenario, engine=ENGINE,
                        obs_mode="features" if fast else "dataclass",
                        record_utilization=not fast)
    policy.reset(SEED)
    tick = time.perf_counter()
    observation = env.reset(seed=SEED,
                            scheduler_factory=policy.make_scheduler)
    reset_s = time.perf_counter() - tick
    placements = 0
    done = False
    tick = time.perf_counter()
    while not done:
        observation, _, done, info = env.step(policy.act(observation))
        placements += info["placements"]
    stepping_s = time.perf_counter() - tick
    evaluation = env.evaluation()
    return {
        "steps": env.steps,
        "placements": placements,
        "stp": evaluation.stp,
        "reset_s": reset_s,
        "stepping_s": stepping_s,
        "trace": policy.trace if trace and kind == "learned" else None,
    }


def traces_equal(a, b) -> bool:
    return (len(a) == len(b)
            and all(x[1] == y[1] and np.array_equal(x[0], y[0])
                    for x, y in zip(a, b)))


def run_case(name: str, scenario: str, kind: str, repeats: int) -> dict:
    report: dict = {"scenario": scenario, "policy": kind}
    agreement: dict = {}
    for mode in ("oracle", "fast"):
        print(f"[{name}] mode={mode} ...", flush=True, file=sys.stderr)
        # Untimed agreement episode (decision traces on for learned).
        agreement[mode] = run_episode(scenario, kind, mode, trace=True)
        decisions = (len(agreement[mode]["trace"])
                     if agreement[mode]["trace"] is not None
                     else agreement[mode]["placements"])
        best = None
        for _ in range(repeats):
            run = run_episode(scenario, kind, mode)
            if best is None or run["stepping_s"] < best["stepping_s"]:
                best = run
        report[mode] = {
            "wall_s": round(best["reset_s"] + best["stepping_s"], 3),
            "stepping_s": round(best["stepping_s"], 3),
            "steps": best["steps"],
            "steps_per_s": round(best["steps"] / best["stepping_s"], 1),
            "decisions": decisions,
            "decisions_per_s": round(decisions / best["stepping_s"], 1),
            "stp": best["stp"],
        }
        print(f"[{name}]   {report[mode]['stepping_s']}s, "
              f"{report[mode]['steps_per_s']:,.0f} steps/s, "
              f"{report[mode]['decisions_per_s']:,.0f} decisions/s",
              flush=True, file=sys.stderr)
    oracle, fast = agreement["oracle"], agreement["fast"]
    agree = (oracle["stp"] == fast["stp"]
             and oracle["steps"] == fast["steps"]
             and oracle["placements"] == fast["placements"])
    if kind == "learned":
        agree = agree and traces_equal(oracle["trace"], fast["trace"])
    report["modes_agree"] = agree
    report["fast_speedup"] = round(report["fast"]["steps_per_s"]
                                   / report["oracle"]["steps_per_s"], 2)
    return report


def committed_checkpoint_pin(report: dict) -> dict | None:
    """Pin the churn20 learned STP to the committed BENCH_learned eval."""
    case = report["cases"].get("churn20_learned")
    if case is None or not LEARNED_BENCH.exists():
        return None
    learned = json.loads(LEARNED_BENCH.read_text())
    rows = {row["scheme"]: row for row in learned.get("results", ())}
    try:
        committed = rows["learned"]["stp_per_seed"][
            learned["seeds"].index(SEED)]
    except (KeyError, ValueError, IndexError):
        return None
    return {
        "source": LEARNED_BENCH.name,
        "seed": SEED,
        "committed_stp": committed,
        "measured_stp": case["fast"]["stp"],
        "matches": round(case["fast"]["stp"], 4) == committed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="churn20 cases only (CI settings)")
    parser.add_argument("--prerefactor", metavar="PATH",
                        help="JSON file with pre-PR measurements to embed "
                             "as the prerefactor_baseline section")
    parser.add_argument("--output", default="BENCH_rollout.json",
                        metavar="PATH", help="report destination "
                                             "(default: BENCH_rollout.json)")
    args = parser.parse_args(argv)

    names = QUICK_CASES if args.quick else tuple(CASES)
    report: dict = {
        "benchmark": "rollout_throughput",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "engine": ENGINE,
        "seed": SEED,
        "quick": args.quick,
        "cases": {},
    }
    for name in names:
        scenario, kind, repeats = CASES[name]
        report["cases"][name] = run_case(name, scenario, kind, repeats)
    pin = committed_checkpoint_pin(report)
    if pin is not None:
        report["committed_checkpoint"] = pin
    if args.prerefactor:
        report["prerefactor_baseline"] = json.loads(
            Path(args.prerefactor).read_text())

    failures = [name for name, case in report["cases"].items()
                if case["modes_agree"] is not True]
    if pin is not None and pin["matches"] is not True:
        failures.append("committed_checkpoint")
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({name: {"fast_speedup": case["fast_speedup"],
                             "modes_agree": case["modes_agree"],
                             "fast_steps_per_s":
                                 case["fast"]["steps_per_s"]}
                      for name, case in report["cases"].items()}, indent=2))
    for name in failures:
        print(f"FAIL: {name}: fast and oracle modes diverge", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
