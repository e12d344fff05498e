"""Tests for the simulation-based experiment drivers (reduced scale)."""

import pytest

from repro.experiments import fig6_overall, fig11_12_overhead, fig14_interference, headline
from repro.api import SchedulerSuite, overall_geomean


@pytest.fixture(scope="module")
def suite():
    return SchedulerSuite()


class TestCommonRunner:
    def test_unknown_scheme_rejected(self, suite):
        with pytest.raises(KeyError):
            suite.factory("magic")

    def test_run_scenarios_aggregates_per_scheme(self, suite,
                                                 run_grid):
        results = run_grid(("pairwise", "oracle"),
                                           scenarios=("L1",), n_mixes=1,
                                           suite=suite)
        assert {r.scheme for r in results} == {"pairwise", "oracle"}
        assert all(r.stp_geomean > 0 for r in results)
        assert all(r.stp_min <= r.stp_geomean <= r.stp_max for r in results)

    def test_overall_geomean_requires_known_scheme(self, suite,
                                                   run_grid):
        results = run_grid(("oracle",), scenarios=("L1",),
                                           n_mixes=1, suite=suite)
        with pytest.raises(KeyError):
            overall_geomean(results, "pairwise")


class TestFig6AndHeadline:
    def test_orderings_on_small_grid(self, suite):
        results = fig6_overall.run(scenarios=("L2", "L6"), n_mixes=1, seed=3,
                                   suite=suite)
        ours = overall_geomean(results, "ours")
        oracle = overall_geomean(results, "oracle")
        pairwise = overall_geomean(results, "pairwise")
        assert ours > pairwise * 0.9
        assert ours <= oracle * 1.05
        numbers = headline.summarize(results)
        assert 0 < numbers.fraction_of_oracle_stp <= 1.05
        table = headline.format_table(numbers)
        assert "paper=8.69" in table

    def test_format_table_lists_every_scenario(self, suite):
        results = fig6_overall.run(scenarios=("L2",), n_mixes=1, seed=3,
                                   suite=suite)
        table = fig6_overall.format_table(results)
        assert "L2" in table and "geomean" in table


class TestOverheadAndInterference:
    def test_profiling_overhead_reported(self, suite):
        rows = fig11_12_overhead.run_per_scenario(scenarios=("L2",), n_mixes=1,
                                                  suite=suite)
        assert len(rows) == 1
        assert 0 < rows[0].overhead_fraction < 0.6

    def test_per_benchmark_overhead_modest(self):
        rows = fig11_12_overhead.run_per_benchmark()
        assert len(rows) == 16
        assert all(row.overhead_fraction < 0.35 for row in rows)

    def test_interference_slowdowns_non_negative(self, suite):
        distributions = fig14_interference.run(targets=["HB.Sort"],
                                               co_runners_per_target=2,
                                               input_gb=15.0, suite=suite)
        assert len(distributions) == 1
        assert all(s >= 0 for s in distributions[0].slowdowns_percent)
