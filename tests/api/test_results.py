"""Tests for typed results: JSON round-trips, folding, dispersion, shim parity."""

import numpy as np
import pytest

from repro.api import (
    CellResult,
    ExperimentPlan,
    JobRecord,
    ScenarioResult,
    Session,
    cells_from_json,
    cells_to_json,
    fold_cells,
    results_from_json,
    results_to_json,
)


def _record(**overrides) -> JobRecord:
    payload = dict(name="HB.Sort", benchmark="HB.Sort", input_gb=100.0,
                   submit_time_min=0.0, start_time_min=1.5,
                   finish_time_min=10.0, turnaround_min=10.0, wait_min=1.5,
                   profiling_delay_min=0.25, slowdown=1.17)
    payload.update(overrides)
    return JobRecord(**payload)


def _cell(**overrides) -> CellResult:
    payload = dict(scenario="L1", scheme="pairwise", mix_index=0, seed=11,
                   stp=1.8828270505815685,
                   antt=1.0623644387536777,
                   antt_reduction_percent=21.09349655946622,
                   makespan_min=12.0, mean_utilization_percent=18.6,
                   jobs=(_record(), _record(name="HB.Sort#1")))
    payload.update(overrides)
    return CellResult(**payload)


class TestJsonRoundTrip:
    def test_cells_round_trip_exactly(self, tmp_path):
        cells = [_cell(), _cell(mix_index=1, stp=2.0000000000000004)]
        assert cells_from_json(cells_to_json(cells)) == cells
        path = tmp_path / "cells.json"
        cells_to_json(cells, path=path)
        assert cells_from_json(path) == cells

    def test_cells_recorded_with_an_engine_still_load(self):
        # Cells written while plans chose an engine carry that key; the
        # option is gone, so loading drops it.
        payload = dict(_cell().to_dict(), engine="fixed")
        assert CellResult.from_dict(payload) == _cell()

    def test_results_round_trip_exactly(self, tmp_path):
        rows = [ScenarioResult(
            scheme="pairwise", scenario="L1",
            stp_geomean=1.9218270598532454, stp_min=1.8828270505815685,
            stp_max=1.9616348972909354,
            antt_reduction_mean=22.559803744008086,
            makespan_mean_min=12.25,
            utilization_mean_percent=21.919565217391305,
            stp_std=0.03940392335468346,
            antt_reduction_std=1.4663071845418632,
            antt_reduction_min=21.09349655946622,
            antt_reduction_max=24.026110928549947, n_mixes=2)]
        assert results_from_json(results_to_json(rows)) == rows
        path = tmp_path / "rows.json"
        results_to_json(rows, path=path)
        assert results_from_json(path) == rows

    def test_simulated_cells_round_trip_bit_for_bit(self):
        plan = ExperimentPlan(schemes=("pairwise",), scenarios=("L1",),
                              n_mixes=2)
        with Session() as session:
            cells = list(session.stream(plan))
        assert cells_from_json(cells_to_json(cells)) == cells

    def test_fault_telemetry_round_trips_through_cells_and_rows(self):
        from repro.api import FaultSummary

        summary = FaultSummary(node_failures=2, node_recoveries=1,
                               preemptions=1, executors_lost=3,
                               jobs_disrupted=2, disrupted_jobs=("a", "b"),
                               work_lost_gb=7.25, rerun_time_min=3.5,
                               availability_percent=96.875)
        cells = [_cell(faults=summary), _cell(mix_index=1, faults=summary)]
        assert cells_from_json(cells_to_json(cells)) == cells
        [row] = fold_cells(cells)
        assert row.faulty
        assert row.availability_mean_percent == pytest.approx(96.875)
        assert row.node_failures_mean == pytest.approx(2.0)
        assert row.jobs_disrupted_mean == pytest.approx(2.0)
        assert row.work_lost_gb_mean == pytest.approx(7.25)
        assert results_from_json(results_to_json([row])) == [row]

    def test_fault_free_cells_keep_the_legacy_json_shape(self):
        cell = _cell()
        assert "faults" not in cell.to_dict()
        [row] = fold_cells([cell])
        assert not row.faulty
        assert "faulty" not in row.to_dict()


class TestFoldCells:
    def test_dispersion_matches_numpy_on_the_raw_values(self):
        cells = [_cell(stp=1.5, antt_reduction_percent=20.0),
                 _cell(mix_index=1, stp=2.5, antt_reduction_percent=30.0),
                 _cell(mix_index=2, stp=2.0, antt_reduction_percent=10.0)]
        [row] = fold_cells(cells)
        stps = [1.5, 2.5, 2.0]
        antts = [20.0, 30.0, 10.0]
        assert row.n_mixes == 3
        assert row.stp_std == pytest.approx(float(np.std(stps)))
        assert (row.stp_min, row.stp_max) == (1.5, 2.5)
        assert row.antt_reduction_std == pytest.approx(float(np.std(antts)))
        assert (row.antt_reduction_min, row.antt_reduction_max) == (10.0, 30.0)
        assert row.antt_reduction_mean == pytest.approx(20.0)

    def test_row_order_follows_explicit_orders_not_arrival(self):
        cells = [_cell(scenario="L2", scheme="oracle"),
                 _cell(scenario="L1", scheme="oracle"),
                 _cell(scenario="L2", scheme="pairwise"),
                 _cell(scenario="L1", scheme="pairwise")]
        rows = fold_cells(cells, scenario_order=("L1", "L2"),
                          scheme_order=("pairwise", "oracle"))
        assert [(r.scenario, r.scheme) for r in rows] == [
            ("L1", "pairwise"), ("L1", "oracle"),
            ("L2", "pairwise"), ("L2", "oracle")]

    def test_mixes_fold_in_mix_index_order_regardless_of_arrival(self):
        shuffled = [_cell(mix_index=2, stp=3.0), _cell(mix_index=0, stp=1.0),
                    _cell(mix_index=1, stp=2.0)]
        ordered = [_cell(mix_index=0, stp=1.0), _cell(mix_index=1, stp=2.0),
                   _cell(mix_index=2, stp=3.0)]
        assert fold_cells(shuffled) == fold_cells(ordered)


class TestRetiredShims:
    """The PR 3/4 deprecation shims are gone, not silently aliased."""

    def test_run_scenarios_is_retired(self):
        # Its module, the repro.experiments.common alias, is gone too.
        with pytest.raises(ModuleNotFoundError):
            import repro.experiments.common  # noqa: F401

    def test_suite_cache_module_is_retired(self):
        with pytest.raises(ModuleNotFoundError):
            import repro.experiments.suite_cache  # noqa: F401

    def test_utilization_matrix_is_retired(self):
        import repro.metrics.utilization as utilization

        with pytest.raises(AttributeError):
            utilization.utilization_matrix

    def test_plan_validates_schemes_eagerly(self):
        from repro.scheduling.registry import UnknownSchemeError

        with pytest.raises(UnknownSchemeError,
                           match="unknown schemes: warp_drive"):
            ExperimentPlan(schemes=("warp_drive",), scenarios=("L1",),
                           n_mixes=1)
