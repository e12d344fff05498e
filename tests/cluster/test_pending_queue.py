"""Property tests for the array-backed arrival and application queues.

PR 7 moved the engine's two hot queues into ``ClusterState``: the
pending-job arrival queue (a sorted submit-time array drained with
``searchsorted``) and the application queue (submit-order slots backing
the ``waiting_apps`` scan).  These tests drive random churn —
arrivals, admissions, data hand-out and hand-back, finishes, and
compaction — and assert after every step that the arrays answer exactly
what a straight per-object model answers, and that submission order is
never disturbed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.state import ClusterState
from repro.spark.application import ApplicationState, SparkApplication
from repro.workloads import ALL_BENCHMARKS
from repro.workloads.mixes import Job

# ----------------------------------------------------------------------
# Pending-job arrival queue
# ----------------------------------------------------------------------


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_pop_pending_due_matches_deque_model(data):
    """``searchsorted`` drains the exact prefix the historical deque did.

    The model is the pre-array implementation: peel jobs off the front
    while ``submit_time <= now + 1e-9``.  Identity (``is``), order, and
    every queue accessor must agree with it at each of a random sequence
    of non-decreasing clock reads.
    """
    times = sorted(data.draw(
        st.lists(st.floats(0.0, 100.0, allow_nan=False),
                 min_size=0, max_size=40), label="submit_times"))
    jobs = [Job("HB.Sort", 5.0, submit_time_min=t) for t in times]
    state = ClusterState()
    state.load_pending(jobs)
    model = list(jobs)

    now = 0.0
    for _ in range(data.draw(st.integers(1, 20), label="n_reads")):
        now += data.draw(st.floats(0.0, 30.0, allow_nan=False), label="dt")
        due = state.pop_pending_due(now)
        expected = []
        while model and model[0].submit_time_min <= now + 1e-9:
            expected.append(model.pop(0))
        assert len(due) == len(expected)
        assert all(a is b for a, b in zip(due, expected))
        assert state.pending_count() == len(model)
        remaining = state.pending_list()
        assert len(remaining) == len(model)
        assert all(a is b for a, b in zip(remaining, model))
        if model:
            assert state.next_pending_min() == model[0].submit_time_min
        else:
            assert state.next_pending_min() is None
    # A second drain at the same clock is empty: the head only advances.
    assert state.pop_pending_due(now) == []


def test_pending_queue_boundary_tolerance():
    """A job due exactly at ``now`` (and within 1e-9 above) is drained."""
    state = ClusterState()
    jobs = [Job("HB.Sort", 5.0, submit_time_min=t)
            for t in (10.0, 10.0 + 5e-10, 10.1)]
    state.load_pending(jobs)
    due = state.pop_pending_due(10.0)
    assert [j.submit_time_min for j in due] == [10.0, 10.0 + 5e-10]
    assert state.pending_count() == 1


# ----------------------------------------------------------------------
# Application queue (submit-order slots)
# ----------------------------------------------------------------------

_APP_OPS = ("adopt", "take", "give_back", "finish",
            "maybe_compact", "compact")


def queued_apps(state: ClusterState) -> list[SparkApplication]:
    """The applications behind the queue's weak back-map, slot order."""
    return [app_ref() for app_ref in state.app_objs]


def check_app_queue(state: ClusterState, ready: dict, order: dict,
                    now: float) -> None:
    """The arrays and the object model must describe the same queue."""
    # The back-map holds weak references; the caller owns the apps.
    queued = queued_apps(state)
    # Submission order is the slot order — the invariant the FCFS
    # waiting-queue walk (and every memo keyed by scan position) relies
    # on; compaction must preserve it.
    orders = [order[app.name] for app in queued]
    assert orders == sorted(orders)
    live_rows = state._app[:state.n_apps]
    for slot, app in enumerate(queued):
        assert app._qstate is state and app._qslot == slot
        row = live_rows[slot]
        # Dual-writes: data hand-out/hand-back and finish all land.
        assert float(row["unassigned_gb"]) == app.unassigned_gb
        assert bool(row["finished"]) == (
            app.state is ApplicationState.FINISHED)
        assert float(row["ready_time"]) == ready[app.name]
    # The vectorized waiting scan answers exactly what the historical
    # per-object loop answers, in the same order.
    expected = [slot for slot, app in enumerate(queued)
                if app.state is not ApplicationState.FINISHED
                and ready[app.name] <= now + 1e-9
                and app.unassigned_gb > 1e-6]
    assert state.waiting_app_slots(now).tolist() == expected
    assert state.any_waiting(now) == bool(expected)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_app_queue_round_trips_under_random_churn(data):
    state = ClusterState()
    ready: dict[str, float] = {}
    order: dict[str, int] = {}
    apps: list[SparkApplication] = []
    counter = 0
    now = 0.0

    for _ in range(data.draw(st.integers(10, 60), label="n_ops")):
        op = data.draw(st.sampled_from(_APP_OPS), label="op")
        live = [app for app in apps
                if app.state is not ApplicationState.FINISHED]
        if op == "adopt":
            spec = data.draw(st.sampled_from(ALL_BENCHMARKS), label="spec")
            app = SparkApplication(
                name=f"{spec.name}#{counter}", spec=spec,
                input_gb=data.draw(st.floats(0.5, 50.0, allow_nan=False),
                                   label="input"),
                submit_time=now)
            delay = data.draw(st.floats(0.0, 5.0, allow_nan=False),
                              label="profiling_delay")
            slot = state.adopt_app(app, now + delay)
            assert slot == len(state.app_objs) - 1
            ready[app.name] = now + delay
            order[app.name] = counter
            counter += 1
            apps.append(app)
        elif op == "take" and live:
            app = data.draw(st.sampled_from(live), label="app")
            app.take_unassigned(data.draw(
                st.floats(0.0, app.input_gb, allow_nan=False), label="take"))
        elif op == "give_back" and live:
            app = data.draw(st.sampled_from(live), label="app")
            app.return_unassigned(data.draw(
                st.floats(0.0, 5.0, allow_nan=False), label="back"))
        elif op == "finish" and live:
            app = data.draw(st.sampled_from(live), label="app")
            app.mark_finished(now)
        elif op == "maybe_compact":
            state.maybe_compact_apps()
        elif op == "compact":
            state.compact_apps()
        now += data.draw(st.floats(0.0, 3.0, allow_nan=False), label="dt")
        check_app_queue(state, ready, order, now)

    # Compaction drops exactly the finished rows and nothing else.
    state.compact_apps()
    survivors = [app for app in apps
                 if app.state is not ApplicationState.FINISHED]
    assert len(state.app_objs) == len(survivors)
    assert all(a is b for a, b in zip(queued_apps(state), survivors))
    check_app_queue(state, ready, order, now)


def test_app_compaction_threshold_fires_under_churn():
    """A long admit/finish churn crosses the auto-compaction threshold."""
    state = ClusterState()
    spec = ALL_BENCHMARKS[0]
    survivors = []
    for i in range(200):
        app = SparkApplication(name=f"{spec.name}#{i}", spec=spec,
                               input_gb=5.0, submit_time=float(i))
        state.adopt_app(app, float(i))
        if i % 4 == 0:
            survivors.append(app)
        else:
            app.mark_finished(float(i))
        state.maybe_compact_apps()
    # The threshold fired at least once: dead rows never exceeded live.
    assert state._n_apps_dead * 2 <= state.n_apps + 1
    state.compact_apps()
    assert state._n_apps_dead == 0
    assert all(a is b for a, b in zip(queued_apps(state), survivors))
    assert [app._qslot for app in queued_apps(state)] == list(
        range(len(survivors)))
