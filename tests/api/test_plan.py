"""Tests for ExperimentPlan eager validation."""

import pytest

from repro.api import DEFAULT_SCENARIOS, ExperimentPlan, PlanError, UnknownSchemeError
from repro.scenarios import ScenarioSpec


class TestValidation:
    def test_minimal_plan_resolves_scenario_names_to_specs(self):
        plan = ExperimentPlan(schemes=("pairwise",), scenarios=("L1", "L5"))
        assert plan.scenario_names == ("L1", "L5")
        assert all(isinstance(s, ScenarioSpec) for s in plan.scenarios)

    def test_default_scenarios_are_all_of_table3(self):
        plan = ExperimentPlan(schemes=("oracle",))
        assert plan.scenario_names == DEFAULT_SCENARIOS

    def test_single_scheme_and_scenario_strings_are_wrapped(self):
        plan = ExperimentPlan(schemes="pairwise", scenarios="L1")
        assert plan.schemes == ("pairwise",)
        assert plan.scenario_names == ("L1",)

    def test_spec_objects_and_json_paths_accepted(self, tmp_path):
        spec = ScenarioSpec(name="inline", jobs=(("HB.Sort", 10.0),))
        on_disk = ScenarioSpec(name="from_disk", jobs=(("BDB.Grep", 20.0),))
        path = tmp_path / "spec.json"
        on_disk.to_json(path)
        plan = ExperimentPlan(schemes=("oracle",),
                              scenarios=(spec, str(path), "L1"))
        assert plan.scenario_names == ("inline", "from_disk", "L1")

    def test_unknown_scheme_error_lists_registered_names(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            ExperimentPlan(schemes=("pairwise", "warp_drive"),
                           scenarios=("L1",))
        message = str(excinfo.value)
        assert "unknown schemes: warp_drive" in message
        assert "pairwise" in message  # the listing of what exists

    def test_empty_schemes_rejected(self):
        with pytest.raises(PlanError, match="at least one scheme"):
            ExperimentPlan(schemes=(), scenarios=("L1",))

    def test_duplicate_schemes_rejected(self):
        with pytest.raises(PlanError, match="duplicate"):
            ExperimentPlan(schemes=("oracle", "oracle"), scenarios=("L1",))

    def test_duplicate_scenario_names_rejected(self):
        with pytest.raises(PlanError, match="duplicate"):
            ExperimentPlan(schemes=("oracle",), scenarios=("L1", "L1"))

    def test_unknown_scenario_name_fails_at_construction(self):
        with pytest.raises(PlanError, match="cannot load scenario"):
            ExperimentPlan(schemes=("oracle",), scenarios=("L99",))

    @pytest.mark.parametrize("overrides", [
        {"n_mixes": 0}, {"workers": 0}, {"time_step_min": 0.0},
        {"n_mixes": 2.5}, {"n_mixes": True},
        {"workers": True}, {"workers": 1.5},
        {"seed": 1.5}, {"seed": True}, {"seed": -1},
        {"time_step_min": float("nan")}, {"time_step_min": float("inf")},
        {"time_step_min": True},
    ])
    def test_bad_execution_knobs_rejected(self, overrides):
        [field] = overrides
        with pytest.raises(PlanError, match=field):
            ExperimentPlan(schemes=("oracle",), scenarios=("L1",),
                           **overrides)


class TestDerivedViews:
    def test_n_cells_counts_the_grid(self):
        plan = ExperimentPlan(schemes=("oracle", "pairwise"),
                              scenarios=("L1", "L2", "L3"), n_mixes=4)
        assert plan.n_cells == 2 * 3 * 4

    def test_with_options_revalidates(self):
        plan = ExperimentPlan(schemes=("oracle",), scenarios=("L1",))
        wide = plan.with_options(workers=4, n_mixes=2)
        assert (wide.workers, wide.n_mixes) == (4, 2)
        assert plan.workers == 1  # original untouched
        with pytest.raises(PlanError):
            plan.with_options(workers=-1)

    def test_describe_mentions_the_grid_shape(self):
        plan = ExperimentPlan(schemes=("oracle",), scenarios=("L1",),
                              n_mixes=2)
        assert "2 mix(es)" in plan.describe()
        assert "= 2 cells" in plan.describe()
