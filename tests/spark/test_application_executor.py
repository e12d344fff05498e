"""Tests for applications, executors and the dynamic-allocation policy."""

import pytest

from repro.spark import (
    ApplicationState,
    DynamicAllocationPolicy,
    Executor,
    ExecutorState,
    SparkApplication,
)
from repro.workloads import benchmark_by_name


def make_app(name="HB.Sort#test", benchmark="HB.Sort", input_gb=100.0):
    return SparkApplication(name=name, spec=benchmark_by_name(benchmark),
                            input_gb=input_gb)


def make_executor(app_name="HB.Sort#test", node_id=0, budget=8.0, data=10.0,
                  cpu=0.2):
    return Executor(app_name=app_name, node_id=node_id, memory_budget_gb=budget,
                    assigned_gb=data, cpu_demand=cpu)


class TestExecutor:
    def test_advance_accumulates_progress_and_finishes(self):
        executor = make_executor(data=2.0)
        executor.advance(1.5)
        assert executor.remaining_gb == pytest.approx(0.5)
        executor.advance(1.0)
        assert executor.state is ExecutorState.FINISHED
        assert executor.processed_gb == pytest.approx(2.0)

    def test_advance_after_finish_raises(self):
        executor = make_executor(data=1.0)
        executor.advance(2.0)
        with pytest.raises(RuntimeError):
            executor.advance(0.1)

    def test_fail_out_of_memory_returns_unprocessed_data(self):
        executor = make_executor(data=4.0)
        executor.advance(1.0)
        returned = executor.fail_out_of_memory()
        assert returned == pytest.approx(3.0)
        assert executor.state is ExecutorState.FAILED_OOM
        assert not executor.is_active

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            make_executor(budget=0.0)
        with pytest.raises(ValueError):
            make_executor(cpu=0.0)
        with pytest.raises(ValueError):
            make_executor(data=-1.0)

    def test_cached_follows_assignment(self):
        executor = make_executor(data=5.0)
        executor.advance(2.0)
        assert executor.cached_gb() == pytest.approx(5.0)


class TestSparkApplication:
    def test_take_and_return_unassigned(self):
        app = make_app(input_gb=50.0)
        granted = app.take_unassigned(20.0)
        assert granted == pytest.approx(20.0)
        assert app.unassigned_gb == pytest.approx(30.0)
        app.return_unassigned(5.0)
        assert app.unassigned_gb == pytest.approx(35.0)

    def test_take_more_than_available_grants_remainder(self):
        app = make_app(input_gb=10.0)
        assert app.take_unassigned(25.0) == pytest.approx(10.0)
        assert app.unassigned_gb == 0.0

    def test_return_never_exceeds_input(self):
        app = make_app(input_gb=10.0)
        app.return_unassigned(100.0)
        assert app.unassigned_gb == pytest.approx(10.0)

    def test_progress_accounting_with_executors(self):
        app = make_app(input_gb=10.0)
        app.take_unassigned(10.0)
        executor = make_executor(data=10.0)
        app.add_executor(executor)
        assert app.state is ApplicationState.RUNNING
        assert not app.is_complete()
        executor.advance(10.0)
        assert app.is_complete()

    def test_add_executor_of_other_app_raises(self):
        app = make_app()
        with pytest.raises(ValueError):
            app.add_executor(make_executor(app_name="other"))

    def test_turnaround_and_execution_times(self):
        app = make_app()
        app.mark_started(2.0)
        app.mark_finished(12.0)
        assert app.turnaround_min() == pytest.approx(12.0)
        assert app.execution_min() == pytest.approx(10.0)

    def test_metrics_before_finish_raise(self):
        app = make_app()
        with pytest.raises(RuntimeError):
            app.turnaround_min()

    def test_profiling_overhead_sums_phases(self):
        app = make_app()
        app.feature_extraction_min = 0.5
        app.calibration_min = 1.5
        assert app.profiling_overhead_min() == pytest.approx(2.0)

    def test_rejects_non_positive_input(self):
        with pytest.raises(ValueError):
            make_app(input_gb=0.0)


class TestDynamicAllocationPolicy:
    def test_small_input_gets_one_executor(self):
        policy = DynamicAllocationPolicy()
        assert policy.desired_executors(0.3) == 1

    def test_medium_input_scales_with_split_size(self):
        policy = DynamicAllocationPolicy(target_split_gb=25.0)
        assert policy.desired_executors(30.0) == 2

    def test_large_input_is_capped_at_cluster_size(self):
        policy = DynamicAllocationPolicy(max_executors=40)
        assert policy.desired_executors(1000.0) == 40

    def test_default_split_divides_input_evenly(self):
        policy = DynamicAllocationPolicy(target_split_gb=25.0)
        split = policy.default_split_gb(100.0)
        assert split == pytest.approx(25.0)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            DynamicAllocationPolicy(target_split_gb=0.0)
        with pytest.raises(ValueError):
            DynamicAllocationPolicy(min_executors=0)
        with pytest.raises(ValueError):
            DynamicAllocationPolicy(min_executors=5, max_executors=2)
        with pytest.raises(ValueError):
            DynamicAllocationPolicy().desired_executors(0.0)
