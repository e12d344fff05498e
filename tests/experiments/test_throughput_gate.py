"""Unit tests for the events/sec gate in ``benchmarks/compare_baseline.py``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "compare_baseline", ROOT / "benchmarks" / "compare_baseline.py")
compare_baseline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_baseline)
_spec = importlib.util.spec_from_file_location(
    "throughput", ROOT / "benchmarks" / "throughput.py")
throughput = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(throughput)


def tier(events_per_s: float, events: int = 80_000,
         makespan: float = 121.0) -> dict:
    """One tier entry: a trajectory-pinned run."""
    return {"vector": {"events_per_s": events_per_s, "events": events,
                       "makespan_min": makespan}}


def report(ci_eps: float = 3000.0, queue_eps: float | None = None,
           ci_kwargs: dict | None = None, **queue_kwargs) -> dict:
    tiers = {"ci": tier(ci_eps, **(ci_kwargs or {}))}
    if queue_eps is not None:
        tiers["queue"] = tier(queue_eps, **queue_kwargs)
    return {"tiers": tiers}


def gate(pr: dict, base: dict) -> list:
    failures: list = []
    compare_baseline.check_throughput(pr, base, 0.15, failures)
    return failures


class TestCiTierGate:
    """The normalizer tier: gated by its trajectory pin alone."""

    def test_identical_reports_pass(self):
        assert gate(report(), report()) == []

    def test_trajectory_divergence_fails(self):
        failures = gate(report(ci_kwargs={"events": 80_001}), report())
        assert len(failures) == 1 and "trajectory" in failures[0]

    def test_makespan_divergence_fails(self):
        failures = gate(report(ci_kwargs={"makespan": 122.0}), report())
        assert len(failures) == 1 and "trajectory" in failures[0]

    def test_slower_runner_passes(self):
        # Its events/sec has no same-machine denominator, so a slower
        # runner is not a failure; the end-to-end speed of the default
        # path is gated by the repo benchmark instead.
        assert gate(report(ci_eps=1000.0), report(ci_eps=3000.0)) == []

    def test_missing_baseline_tier_is_skipped_not_failed(self):
        assert gate({"tiers": {"mega": tier(9000.0)}}, report()) == []

    def test_committed_report_shape_feeds_the_gate(self):
        """The committed BENCH_throughput.json is a valid gate baseline."""
        import json

        committed = json.loads((ROOT / "BENCH_throughput.json").read_text())
        assert gate(committed, committed) == []
        assert set(committed["tiers"]["ci"]) == {"scenario", "scheme",
                                                 "vector"}
        # The array kernel's acceptance, recorded when the per-object
        # kernel still existed: the mega tier ran several times its
        # events/sec at the same commit, bit for bit.
        assert committed["tiers"]["mega"]["vector_speedup"] >= 5.0
        assert committed["tiers"]["mega"]["kernels_agree"] is True
        # The PR 7 tentpole acceptance: the scheduler-bound queue tier
        # runs >= 3x the pre-PR events/sec (same scenario shape, both
        # runs recorded in the committed report), with the per-phase
        # breakdown present.
        queue = committed["tiers"]["queue"]["vector"]
        prior = committed["prerefactor_baseline"]["queue"]
        assert queue["events_per_s"] >= 3.0 * prior["events_per_s"]
        assert set(queue["phases_s"]) == {"arrivals", "faults", "oom",
                                          "schedule", "advance", "other"}

    def test_committed_report_pins_every_scheme_tier(self):
        """Each scheme timed on the CI slice has a committed trajectory
        (events and makespan) for the gate to pin, from a complete run."""
        import json

        committed = json.loads((ROOT / "BENCH_throughput.json").read_text())
        ci_scenario = throughput.TIERS["ci"][0]
        scheme_tiers = {name: scheme
                        for name, (scenario, scheme) in throughput.TIERS.items()
                        if scenario == ci_scenario}
        assert set(scheme_tiers) == {"ci", "ours", "oracle", "meta",
                                     "online_search", "learned"}
        for name, scheme in scheme_tiers.items():
            entry = committed["tiers"][name]
            assert (entry["scenario"], entry["scheme"]) == (ci_scenario,
                                                            scheme)
            run = entry["vector"]
            assert run["events"] > 0 and run["makespan_min"] > 0
            assert run["jobs_finished"] == run["jobs"]


class TestNormalizedTierGate:
    """The queue tier: trajectory pin + ci-normalized events/sec gate."""

    def test_identical_reports_pass(self):
        doc = report(queue_eps=5000.0)
        assert gate(doc, doc) == []

    def test_small_regression_within_budget_passes(self):
        assert gate(report(queue_eps=4500.0), report(queue_eps=5000.0)) == []

    def test_trajectory_divergence_fails(self):
        failures = gate(report(queue_eps=5000.0, events=80_001),
                        report(queue_eps=5000.0, events=80_000))
        assert len(failures) == 1 and "trajectory" in failures[0]

    def test_makespan_divergence_fails(self):
        failures = gate(report(queue_eps=5000.0, makespan=122.0),
                        report(queue_eps=5000.0, makespan=121.0))
        assert len(failures) == 1 and "trajectory" in failures[0]

    def test_normalized_regression_beyond_budget_fails(self):
        # Queue events/sec halves while the same report's ci tier is
        # unchanged: a genuine scheduling-path regression, not hardware.
        failures = gate(report(queue_eps=2500.0), report(queue_eps=5000.0))
        assert len(failures) == 1 and "normalized events/sec" in failures[0]

    def test_uniformly_slower_runner_passes(self):
        # Both the queue tier and its ci normalizer slow down 2x:
        # hardware, not a regression.
        assert gate(report(ci_eps=1500.0, queue_eps=2500.0),
                    report(queue_eps=5000.0)) == []

    def test_improvement_always_passes(self):
        assert gate(report(queue_eps=9000.0), report(queue_eps=5000.0)) == []

    def test_missing_ci_normalizer_skips_gate(self):
        doc = {"tiers": {"queue": tier(5000.0)}}
        assert gate(doc, doc) == []

    def test_missing_baseline_trajectory_is_not_pinned(self):
        # First-ever run of a new tier: no reference entry, the gate
        # prints a skip instead of failing.
        assert gate(report(queue_eps=5000.0), report()) == []
