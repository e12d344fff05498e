"""Tests for the multiprocess experiment grid runner.

Every call goes through the ``run_grid`` fixture, the public-API
counterpart of the retired ``run_scenarios`` barrier shim.
"""

import pytest

from repro.api import SchedulerSuite


@pytest.fixture(scope="module")
def suite():
    return SchedulerSuite()


class TestParallelRunner:
    def test_workers_must_be_positive(self, suite, run_grid):
        with pytest.raises(ValueError):
            run_grid(("oracle",), scenarios=("L1",),
                                     n_mixes=1, suite=suite, workers=0)

    def test_parallel_grid_matches_sequential(self, suite,
                                              run_grid):
        # "ours" depends on the suite's trained mixture of experts, so this
        # also pins that workers receive the caller's suite (models and
        # all), not a retrained default.
        kwargs = dict(scenarios=("L1",), n_mixes=2, suite=suite)
        sequential = run_grid(("pairwise", "ours"),
                                              workers=1, **kwargs)
        parallel = run_grid(("pairwise", "ours"),
                                            workers=2, **kwargs)
        assert parallel == sequential

    def test_row_order_is_scenario_major(self, suite,
                                         run_grid):
        results = run_grid(("pairwise", "oracle"),
                                           scenarios=("L1", "L2"), n_mixes=1,
                                           suite=suite)
        assert [(r.scenario, r.scheme) for r in results] == [
            ("L1", "pairwise"), ("L1", "oracle"),
            ("L2", "pairwise"), ("L2", "oracle"),
        ]
