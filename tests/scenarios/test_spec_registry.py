"""Tests for ScenarioSpec, the registry, and seed golden equivalence."""

import pytest

from repro.api import HorizonTruncationError, SchedulerSuite
from repro.cluster.cluster import paper_cluster
from repro.metrics.throughput import evaluate_schedule
from repro.scenarios import (
    ScenarioSpec,
    load_scenario,
    register_scenario,
    scenario,
    scenario_names,
)
from repro.workloads.arrivals import ArrivalSpec
from repro.workloads.mixes import SCENARIOS, make_scenario_mixes


class TestSpecValidation:
    def test_requires_exactly_one_workload_source(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="x")
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", n_apps=2, jobs=(("HB.Sort", 10.0),))

    def test_rejects_unknown_topology(self):
        with pytest.raises(KeyError):
            ScenarioSpec(name="x", n_apps=2, topology="atlantis")

    def test_rejects_bad_explicit_jobs(self):
        with pytest.raises(KeyError):
            ScenarioSpec(name="x", jobs=(("No.Such.Benchmark", 10.0),))
        with pytest.raises(ValueError):
            ScenarioSpec(name="x", jobs=(("HB.Sort", -1.0),))

    def test_explicit_jobs_keep_submission_order(self):
        spec = ScenarioSpec(name="x", jobs=(("HB.Sort", 10.0),
                                            ("BDB.Grep", 20.0)))
        [mix] = spec.make_mixes()
        assert [(j.benchmark, j.input_gb, j.order) for j in mix] == [
            ("HB.Sort", 10.0, 0), ("BDB.Grep", 20.0, 1)]


class TestJsonRoundTrip:
    def test_round_trip_preserves_realisation(self, tmp_path):
        spec = ScenarioSpec(
            name="rt", n_apps=5,
            arrival=ArrivalSpec(kind="bursty", rate_per_min=0.4,
                                on_min=10.0, off_min=20.0),
            topology="hetero_mixed20", max_time_min=1234.0,
            description="round trip")
        path = tmp_path / "spec.json"
        spec.to_json(path)
        restored = ScenarioSpec.from_json(path)
        assert restored == spec
        assert restored.make_mixes(2, seed=3) == spec.make_mixes(2, seed=3)

    def test_load_scenario_resolves_names_paths_and_specs(self, tmp_path):
        assert load_scenario("L1") is scenario("L1")
        spec = scenario("poisson_hetero_demo")
        assert load_scenario(spec) is spec
        path = tmp_path / "demo.json"
        spec.to_json(path)
        assert load_scenario(str(path)) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict({"name": "x", "n_apps": 2, "cluster": "a"})


class TestRegistry:
    def test_table3_scenarios_registered_with_paper_sizes(self):
        for label, n_apps in SCENARIOS.items():
            spec = scenario(label)
            assert spec.n_apps == n_apps
            assert spec.arrival.kind == "batch"
            assert spec.topology == "paper40"

    def test_open_scenarios_registered(self):
        names = scenario_names()
        assert {"table4", "poisson_hetero_demo", "open_arrival_overload",
                "burst_absorption", "diurnal_paper40"} <= set(names)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            scenario("L99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_scenario(scenario("L1"))


class TestSeedGoldenEquivalence:
    """ScenarioSpec batch mode must replay the seed trajectories exactly."""

    @pytest.mark.parametrize("label", ["L1", "L5", "L10"])
    def test_spec_mixes_match_seed_mixes_bit_for_bit(self, label):
        seed_mixes = make_scenario_mixes(label, n_mixes=3, seed=11)
        spec_mixes = scenario(label).make_mixes(n_mixes=3, seed=11)
        assert spec_mixes == seed_mixes

    @pytest.mark.parametrize("step_mode", ["fixed", "event"])
    @pytest.mark.parametrize("label", ["L1", "L5", "L10"])
    def test_scenario_path_replays_seed_trajectories(self, label, step_mode,
                                                     run_grid, simulators):
        # The seed path: mixes generated by the seed helper, simulated on
        # paper_cluster() with the scheduler's built-in defaults — exactly
        # what the experiment drivers did before the scenario subsystem.
        # The grid always runs the event engine; the seed path runs on
        # each engine, so the grid also matches the fixed-step reference.
        suite = SchedulerSuite()
        [mix] = make_scenario_mixes(label, n_mixes=1, seed=11)
        simulator = simulators[step_mode](paper_cluster(),
                                          suite.factory("oracle")(),
                                          time_step_min=0.5, seed=11)
        seed_eval = evaluate_schedule(simulator.run(mix), mix)

        [row] = run_grid(
            ("oracle",), scenarios=(label,), n_mixes=1,
            seed=11, suite=suite)
        assert row.scenario == label
        # stp_min/max are the raw per-mix values — exact equality; the
        # geomean aggregate goes through exp(log(x)) and may differ by an
        # ulp on a single-element row (seed behaviour too).
        assert row.stp_min == seed_eval.stp
        assert row.stp_max == seed_eval.stp
        assert row.stp_geomean == pytest.approx(seed_eval.stp, rel=1e-12)
        assert row.antt_reduction_mean == seed_eval.antt_reduction_percent
        assert row.makespan_mean_min == seed_eval.makespan_min
        assert row.utilization_mean_percent == seed_eval.mean_utilization_percent

    def test_registry_accepts_spec_objects_in_plans(
            self, run_grid):
        spec = ScenarioSpec(name="inline", jobs=(("HB.Sort", 10.0),))
        [row] = run_grid(("pairwise",), scenarios=(spec,),
                                         n_mixes=1, suite=SchedulerSuite())
        assert row.scenario == "inline"
        assert row.stp_geomean > 0


class TestHorizonTruncation:
    def test_truncated_run_raises_a_named_error(self,
                                                run_grid):
        spec = ScenarioSpec(name="tight", n_apps=3,
                            arrival=ArrivalSpec(kind="poisson",
                                                rate_per_min=0.001),
                            max_time_min=10.0)
        with pytest.raises(HorizonTruncationError, match="truncated"):
            run_grid(("pairwise",), scenarios=(spec,),
                                     n_mixes=1, suite=SchedulerSuite())


class TestTrainedSchemesStillWork:
    def test_moe_scheme_runs_through_scenario_path(
            self, run_grid):
        # 'ours' exercises lazy training plus the factory threading of the
        # topology-derived allocation policy.
        suite = SchedulerSuite()
        assert not suite.is_trained()
        [row] = run_grid(("ours",), scenarios=("L1",),
                                         n_mixes=1, suite=suite)
        assert suite.is_trained()
        assert row.stp_geomean > 0


class TestBoundaryValidation:
    """Bad sizes, horizons and counts fail at construction, naming the field."""

    BAD = [
        ("jobs", {"jobs": [["HB.Sort", float("nan")]]}),
        ("jobs", {"jobs": [["HB.Sort", float("inf")]]}),
        ("jobs", {"jobs": [["HB.Sort", True]]}),
        ("jobs", {"jobs": [["HB.Sort"]]}),
        ("max_time_min", {"n_apps": 2, "max_time_min": float("nan")}),
        ("max_time_min", {"n_apps": 2, "max_time_min": float("inf")}),
        ("max_time_min", {"n_apps": 2, "max_time_min": True}),
        ("n_apps", {"n_apps": True}),
        ("n_apps", {"n_apps": 2.5}),
    ]

    @pytest.mark.parametrize("field,fields", BAD,
                             ids=[f"{f}-{i}" for i, (f, _) in enumerate(BAD)])
    def test_constructor_rejects(self, field, fields):
        with pytest.raises(ValueError, match=field):
            ScenarioSpec(name="x", **fields)

    @pytest.mark.parametrize("field,fields", BAD,
                             ids=[f"{f}-{i}" for i, (f, _) in enumerate(BAD)])
    def test_from_dict_rejects(self, field, fields):
        with pytest.raises(ValueError, match=field):
            ScenarioSpec.from_dict({"name": "x", **fields})

    def test_valid_sizes_still_normalise_to_float(self):
        spec = ScenarioSpec.from_dict({"name": "x", "jobs": [["HB.Sort", 10]],
                                       "max_time_min": 90})
        assert spec.jobs == (("HB.Sort", 10.0),)
        assert isinstance(spec.jobs[0][1], float)
        assert spec.max_time_min == 90
