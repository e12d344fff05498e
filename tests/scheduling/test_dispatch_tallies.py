"""The co-location dispatcher's per-epoch app tallies stay exact.

The dispatcher reads each waiting application's in-flight data and
active-executor count from ``SchedulingContext.app_tallies`` once per
``schedule()`` call, then keeps them current through its own spawns.  These spies check, on every
scheme that runs the dispatcher, that the tallies equal the object walks
``SparkApplication.remaining_gb`` / ``active_executors`` bit for bit:
when the context computes them, and after every placement attempt.
churn20 adds node failures, kills and re-runs; L5 is a busy batch.

A third spy checks the settle rule of ``_round_robin``: an application
gets no further offer in a call once one of its offers placed nothing,
and no settled application could have placed anything.
"""

from types import SimpleNamespace

import pytest

from repro.cluster.simulator import SchedulingContext
from repro.core.moe import MixtureOfExperts
from repro.core.training import collect_training_data
from repro.scenarios import load_scenario
from repro.scheduling.colocation import MemoryAwareCoLocationScheduler
from repro.scheduling.registry import build_scheduler
from repro.spark.driver import DynamicAllocationPolicy
from repro.spark.executor import ExecutorState

SCHEMES = ("ours", "oracle", "quasar", "meta")
SCENARIOS = ("churn20", "L5")
ENGINES = ("event", "fixed")
SEED = 7


@pytest.fixture(scope="module")
def artefacts():
    dataset = collect_training_data(seed=0)
    return SimpleNamespace(dataset=dataset,
                           moe=MixtureOfExperts.from_dataset(dataset))


def walked_in_flight(app) -> float:
    """The in-flight part of ``app.remaining_gb``, added left to right as
    it adds."""
    in_flight = 0.0
    for e in app.executors:
        if e.state is ExecutorState.RUNNING:
            in_flight += e.remaining_gb
    return in_flight


def assert_exact(app, in_flight, active, where):
    assert in_flight == walked_in_flight(app), (
        f"{where}: {app.name} in-flight tally {in_flight!r} != walk")
    assert app.unassigned_gb + in_flight == app.remaining_gb, where
    assert active == len(app.active_executors), (
        f"{where}: {app.name} active tally {active} != "
        f"{len(app.active_executors)}")


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_tallies_match_object_walks(scheme, scenario, engine, artefacts,
                                    monkeypatch, simulators):
    run_spied(scheme, scenario, simulators[engine], artefacts, monkeypatch)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_tallies_hold_under_python312_sum(scheme, scenario, engine,
                                          artefacts, monkeypatch,
                                          python312_sum, simulators):
    """The same spies when ``sum()`` compensates float rounding, as it
    does from Python 3.12: the walks and the columns must still agree."""
    run_spied(scheme, scenario, simulators[engine], artefacts, monkeypatch)


def run_spied(scheme, scenario, simulator_type, artefacts, monkeypatch):
    """Run one cell with both spies installed."""
    counts = {"tallies": 0, "placements": 0, "spawns": 0}
    tallies = SchedulingContext.app_tallies
    place = MemoryAwareCoLocationScheduler._place_tallied

    def spy_tallies(ctx, apps):
        in_flight, active = tallies(ctx, apps)
        counts["tallies"] += 1
        for app, app_in_flight, app_active in zip(apps, in_flight, active):
            assert_exact(app, app_in_flight, app_active, "app_tallies")
        return in_flight, active

    def spy_place(self, ctx, waiting, k, in_flight, active, ranking):
        before = active[k]
        spawned = place(self, ctx, waiting, k, in_flight, active, ranking)
        counts["placements"] += 1
        counts["spawns"] += spawned
        assert active[k] == before + spawned
        for app, app_in_flight, app_active in zip(waiting, in_flight, active):
            assert_exact(app, app_in_flight, app_active, "after a placement")
        return spawned

    monkeypatch.setattr(SchedulingContext, "app_tallies", spy_tallies)
    monkeypatch.setattr(MemoryAwareCoLocationScheduler, "_place_tallied",
                        spy_place)
    simulate(scheme, scenario, simulator_type, artefacts)
    assert counts["tallies"] > 0 and counts["spawns"] > 0
    assert counts["placements"] > counts["spawns"]


def simulate(scheme, scenario, simulator_type, artefacts):
    spec = load_scenario(scenario)
    cluster = spec.build_cluster()
    policy = DynamicAllocationPolicy(max_executors=len(cluster))
    scheduler = build_scheduler(scheme, artefacts, allocation_policy=policy)
    simulator_type(cluster, scheduler, seed=SEED,
                   max_time_min=spec.max_time_min, faults=spec.faults).run(
        spec.make_mixes(n_mixes=1, seed=SEED)[0])


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_settled_apps_would_place_nothing(scheme, scenario, engine,
                                          artefacts, monkeypatch, simulators):
    """An app gets no offer after one places nothing, and that drops no
    placement: after each pass, one more full round over every waiting
    app places nothing, the stop condition of the historical loop."""
    counts = {"calls": 0, "spawns": 0, "settled": 0}
    round_robin = MemoryAwareCoLocationScheduler._round_robin

    def spy(waiting, place):
        settled = set()

        def offer(k):
            assert k not in settled, f"{waiting[k].name} offered after settling"
            placed = place(k)
            counts["spawns"] += placed
            if not placed:
                settled.add(k)
            return placed

        round_robin(waiting, offer)
        counts["calls"] += 1
        counts["settled"] += len(settled)
        assert settled == set(range(len(waiting)))
        for k in range(len(waiting)):
            assert not place(k), f"{waiting[k].name} placed after settling"

    monkeypatch.setattr(MemoryAwareCoLocationScheduler, "_round_robin",
                        staticmethod(spy))
    simulate(scheme, scenario, simulators[engine], artefacts)
    assert counts["calls"] > 0 and counts["spawns"] > 0

