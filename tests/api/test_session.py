"""Tests for Session: streaming, worker invariance, pool and training ownership."""

import pytest

from repro.api import (
    CellResult,
    ExperimentPlan,
    HorizonTruncationError,
    SchedulerSuite,
    Session,
)
from repro.scenarios import ScenarioSpec
from repro.workloads.arrivals import ArrivalSpec


def _cell_key(cell: CellResult):
    return (cell.scenario, cell.scheme, cell.mix_index)


@pytest.fixture(scope="module")
def session():
    with Session() as shared:
        yield shared


class TestStreaming:
    def test_stream_yields_one_cell_per_grid_cell(self, session):
        plan = ExperimentPlan(schemes=("pairwise", "oracle"),
                              scenarios=("L1", "L2"), n_mixes=2)
        cells = list(session.stream(plan))
        assert len(cells) == plan.n_cells
        assert len({_cell_key(c) for c in cells}) == plan.n_cells

    def test_sequential_stream_is_in_plan_order(self, session):
        plan = ExperimentPlan(schemes=("pairwise", "oracle"),
                              scenarios=("L1",), n_mixes=2)
        keys = [_cell_key(c) for c in session.stream(plan)]
        assert keys == [("L1", "pairwise", 0), ("L1", "pairwise", 1),
                        ("L1", "oracle", 0), ("L1", "oracle", 1)]

    def test_cells_carry_per_job_records(self, session):
        plan = ExperimentPlan(schemes=("pairwise",), scenarios=("L1",),
                              n_mixes=1)
        [cell] = session.stream(plan)
        assert cell.seed == 11
        assert len(cell.jobs) == 2  # L1 is a 2-app mix
        for record in cell.jobs:
            assert record.turnaround_min > 0
            assert record.wait_min >= 0
            assert record.profiling_delay_min >= 0
            assert record.slowdown > 0
            assert record.finish_time_min == pytest.approx(
                record.submit_time_min + record.turnaround_min)

    def test_stream_rejects_non_plans(self, session):
        with pytest.raises(TypeError, match="ExperimentPlan"):
            next(session.stream({"schemes": ("oracle",)}))

    def test_truncating_horizon_raises_through_stream(self, session):
        spec = ScenarioSpec(name="tight", n_apps=3,
                            arrival=ArrivalSpec(kind="poisson",
                                                rate_per_min=0.001),
                            max_time_min=10.0)
        plan = ExperimentPlan(schemes=("pairwise",), scenarios=(spec,),
                              n_mixes=1)
        with pytest.raises(HorizonTruncationError, match="truncated"):
            list(session.stream(plan))


class TestWorkerInvariance:
    def test_stream_cells_identical_for_workers_1_and_4(self, session):
        base = ExperimentPlan(schemes=("pairwise", "oracle"),
                              scenarios=("L1",), n_mixes=2)
        sequential = sorted(session.stream(base), key=_cell_key)
        fanned_out = sorted(session.stream(base.with_options(workers=4)),
                            key=_cell_key)
        # Identical CellResult sets — every field, per-job records
        # included — regardless of completion order.
        assert fanned_out == sequential

    def test_run_aggregates_identical_for_any_worker_count(self, session):
        base = ExperimentPlan(schemes=("pairwise", "oracle"),
                              scenarios=("L1", "L2"), n_mixes=2)
        assert (session.run(base.with_options(workers=2))
                == session.run(base))


class TestRunOrdering:
    def test_rows_are_scenario_major_in_plan_order(self, session):
        plan = ExperimentPlan(schemes=("pairwise", "oracle"),
                              scenarios=("L2", "L1"), n_mixes=1, workers=2)
        rows = session.run(plan)
        assert [(r.scenario, r.scheme) for r in rows] == [
            ("L2", "pairwise"), ("L2", "oracle"),
            ("L1", "pairwise"), ("L1", "oracle"),
        ]


class TestPoolOwnership:
    def test_pool_is_reused_across_runs_and_rebuilt_on_resize(self):
        plan = ExperimentPlan(schemes=("pairwise",), scenarios=("L1",),
                              n_mixes=1, workers=2)
        with Session() as session:
            session.run(plan)
            first_pool = session._pool
            session.run(plan)
            assert session._pool is first_pool
            session.run(plan.with_options(workers=3))
            assert session._pool is not first_pool

    def test_pool_rebuilt_when_new_artefacts_materialise(self):
        plan = ExperimentPlan(schemes=("pairwise",), scenarios=("L1",),
                              n_mixes=1, workers=2)
        with Session() as session:
            session.run(plan)
            stale_pool = session._pool
            # "ours" needs the trained mixture of experts, which the
            # stale pool's workers never received.
            session.run(plan.with_options(schemes=("ours",)))
            assert session._pool is not stale_pool

    def test_rebuild_under_a_suspended_stream_does_not_strand_it(self):
        # Regression: rebuilding (or closing) the pool used to cancel
        # futures a suspended stream was still waiting on; a future caught
        # in transit to a worker was silently dropped and the stream's
        # wait() blocked forever.  Abandoned pools now drain instead.
        import signal

        if hasattr(signal, "SIGALRM"):  # fail loudly instead of hanging
            signal.signal(signal.SIGALRM,
                          lambda *a: (_ for _ in ()).throw(
                              TimeoutError("stream stranded by pool rebuild")))
            signal.alarm(120)
        try:
            plan_a = ExperimentPlan(schemes=("pairwise", "oracle"),
                                    scenarios=("L5",), n_mixes=2, workers=2)
            plan_b = ExperimentPlan(schemes=("pairwise",), scenarios=("L1",),
                                    n_mixes=1, workers=3)
            with Session() as session:
                suspended = session.stream(plan_a)
                first = next(suspended)
                session.run(plan_b)  # different worker count: pool rebuild
                drained = [first] + list(suspended)
                assert len(drained) == plan_a.n_cells
                # close() mid-stream must not strand the consumer either
                second = session.stream(plan_a)
                head = next(second)
                session.close()
                assert len([head] + list(second)) == plan_a.n_cells
                assert session._leases == {}
        finally:
            if hasattr(signal, "SIGALRM"):
                signal.alarm(0)

    def test_broken_pool_is_retired_and_the_session_recovers(self):
        # Regression: a pool whose worker died used to stay current (and
        # keep a leaked lease), so every later parallel run re-failed on
        # the same broken executor.
        import concurrent.futures.process as cfp

        plan = ExperimentPlan(schemes=("pairwise",), scenarios=("L1",),
                              n_mixes=2, workers=2)
        with Session() as session:
            session.run(plan)
            broken_pool = session._pool
            # Kill the pool's workers out from under it.
            for process in broken_pool._processes.values():
                process.terminate()
            with pytest.raises(cfp.BrokenProcessPool):
                session.run(plan)
            assert session._pool is None  # retired, not kept
            assert session._leases == {}  # no leaked lease
            rows = session.run(plan)      # fresh pool, works again
            assert rows[0].scheme == "pairwise"

    def test_close_is_idempotent_and_session_survives_it(self):
        plan = ExperimentPlan(schemes=("oracle",), scenarios=("L1",),
                              n_mixes=1)
        session = Session()
        session.close()
        session.close()
        [row] = session.run(plan)
        assert row.scheme == "oracle"
        session.close()


class TestTrainingOwnership:
    def test_prediction_free_plan_never_trains(self):
        with Session() as session:
            plan = ExperimentPlan(schemes=("pairwise", "oracle"),
                                  scenarios=("L1",), n_mixes=1)
            session.run(plan)
            assert session.suite.materialised() == frozenset()

    def test_explicit_suite_is_used_not_replaced(self):
        suite = SchedulerSuite()
        with Session(suite=suite) as session:
            assert session.suite is suite
            session.ensure_trained(["quasar"])
            assert suite.materialised() == {"dataset"}
