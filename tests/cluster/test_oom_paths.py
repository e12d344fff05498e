"""Regression tests for the simulator's OOM-kill, paging and retry paths.

These paths were previously only exercised indirectly through whole-mix
simulations; here they are pinned down with hand-built schedulers so the
victim-selection order, swap-exhaustion behaviour and isolated re-run
recovery stay stable across engine changes.
"""

import pytest

from repro.cluster import Cluster, EventKind
from repro.metrics.throughput import evaluate_schedule
from repro.scenarios import load_scenario
from repro.scheduling.registry import build_scheduler
from repro.spark.driver import DynamicAllocationPolicy
from repro.workloads import Job

ENGINES = ("fixed", "event")

#: A six-job mix whose ground-truth footprints (~137 GB in total) crush a
#: single 64 + 16 GB node when an over-committing scheduler stacks them.
OVERLOAD_JOBS = [
    Job("BDB.PageRank", 60.0), Job("HB.PageRank", 60.0),
    Job("BDB.Kmeans", 60.0), Job("HB.Kmeans", 60.0),
    Job("BDB.PageRank", 60.0), Job("HB.Kmeans", 60.0),
]


class OverCommitScheduler:
    """Crams every waiting app onto node 0 with tiny reservations, once.

    Admission control is bypassed, so ground-truth footprints can exceed
    RAM + swap and force the simulator's OOM handling to engage.
    """

    def __init__(self, data_gb, budget_gb=1.0):
        self.data_gb = data_gb
        self.budget_gb = budget_gb
        self._placed = set()

    def schedule(self, ctx):
        for app in ctx.waiting_apps():
            if app.name in self._placed:
                continue
            data = min(self.data_gb, app.unassigned_gb)
            if data <= 1e-6:
                continue
            executor = ctx.spawn_executor(app, 0, self.budget_gb, data,
                                          enforce_admission=False)
            if executor is not None:
                self._placed.add(app.name)


def run_sim(simulator_type, scheduler, jobs, n_nodes=2, ram_gb=64.0,
            swap_gb=16.0, **kwargs):
    cluster = Cluster.homogeneous(n_nodes, ram_gb=ram_gb, swap_gb=swap_gb)
    simulator = simulator_type(cluster, scheduler, **kwargs)
    return simulator.run(jobs), simulator


class TestVictimSelection:
    @pytest.mark.parametrize("step_mode", ENGINES)
    def test_most_recently_placed_executor_is_killed_first(self, step_mode,
                                                           simulators):
        # Two ~25 GB footprints on a 16 + 8 GB node exhaust the swap; the
        # later spawn (largest executor id) must be the OOM victim.
        jobs = [Job("BDB.PageRank", 60.0), Job("HB.PageRank", 60.0)]
        result, _ = run_sim(simulators[step_mode],
                            OverCommitScheduler(data_gb=60.0), jobs,
                            ram_gb=16.0, swap_gb=8.0, max_time_min=20000.0)
        ooms = result.events.of_kind(EventKind.EXECUTOR_OOM)
        assert ooms, "over-committed node must kill an executor"
        assert ooms[0].app == "HB.PageRank"
        assert result.all_finished()

    @pytest.mark.parametrize("step_mode", ENGINES)
    def test_kills_repeat_until_the_rest_fits_in_ram_plus_swap(self, step_mode,
                                                               simulators):
        result, _ = run_sim(simulators[step_mode],
                            OverCommitScheduler(data_gb=60.0), OVERLOAD_JOBS,
                            n_nodes=3, max_time_min=20000.0)
        # ~137 GB of resident memory against an 80 GB budget requires at
        # least three successive kills before the remainder fits.
        assert result.events.count(EventKind.EXECUTOR_OOM) >= 3
        assert result.all_finished()

    @pytest.mark.parametrize("step_mode", ENGINES)
    def test_single_executor_is_never_killed_even_beyond_swap(self, step_mode,
                                                              simulators):
        # A lone 25 GB executor on an 8 + 8 GB node is far beyond RAM and
        # swap, but the kill loop requires at least two co-runners: the
        # executor thrashes at the paging penalty and still completes.
        jobs = [Job("BDB.PageRank", 60.0)]
        result, _ = run_sim(simulators[step_mode],
                            OverCommitScheduler(data_gb=60.0), jobs,
                            n_nodes=1, ram_gb=8.0, swap_gb=8.0,
                            max_time_min=50000.0)
        assert result.events.count(EventKind.EXECUTOR_OOM) == 0
        assert result.events.count(EventKind.NODE_PAGING) > 0
        assert result.all_finished()


class TestIsolatedRerun:
    @pytest.mark.parametrize("step_mode", ENGINES)
    def test_oom_data_reruns_on_idle_node_with_full_ram(self, step_mode,
                                                        simulators):
        result, simulator = run_sim(simulators[step_mode],
                                    OverCommitScheduler(data_gb=60.0),
                                    OVERLOAD_JOBS, n_nodes=3,
                                    max_time_min=20000.0)
        assert result.all_finished()
        # Every byte of the killed executors' data was eventually processed.
        for app in result.apps.values():
            assert app.processed_gb == pytest.approx(60.0, abs=1.0)
        # Replacement executors reserve the whole (64 GB) node for themselves.
        spawns = result.events.of_kind(EventKind.EXECUTOR_SPAWNED)
        assert any("budget=64.0GB" in event.detail for event in spawns)
        # Nothing is left in the retry queue at the end.
        assert all(v <= 1e-9 for v in simulator.oom_retry_gb.values())

    @pytest.mark.parametrize("step_mode", ENGINES)
    def test_app_is_not_finalized_while_retry_data_pending(self, step_mode,
                                                           simulators):
        result, _ = run_sim(simulators[step_mode],
                            OverCommitScheduler(data_gb=60.0), OVERLOAD_JOBS,
                            n_nodes=3, max_time_min=20000.0)
        killed = {e.app for e in result.events.of_kind(EventKind.EXECUTOR_OOM)}
        assert killed
        for name in killed:
            oom_times = [e.time for e in result.events.for_app(name)
                         if e.kind is EventKind.EXECUTOR_OOM]
            # The OOM'd application finishes strictly after its kill.
            assert result.apps[name].finish_time > max(oom_times)

    @pytest.mark.parametrize("step_mode", ENGINES)
    def test_oom_returns_unprocessed_data_only(self, step_mode, simulators):
        result, _ = run_sim(simulators[step_mode],
                            OverCommitScheduler(data_gb=60.0), OVERLOAD_JOBS,
                            n_nodes=3, max_time_min=20000.0)
        for event in result.events.of_kind(EventKind.EXECUTOR_OOM):
            returned = float(event.detail.split("returned=")[1].rstrip("GB"))
            assert 0.0 <= returned <= 60.0 + 1e-6


class TestEnginesAgreeAfterKills:
    def test_event_engine_reruns_killed_data_one_step_later(self, simulators):
        # On regime_shift (seed 11) pairwise co-locations exhaust swap:
        # at t=96.0 OOM kills free nodes 14-19, and the fixed engine
        # re-places work there at 96.5.  The event engine must wake on
        # that same grid step, not at the next arrival or rescan tick.
        spec = load_scenario("regime_shift")
        jobs = spec.make_mixes(n_mixes=1, seed=11)[0]
        runs = {}
        for step_mode in ENGINES:
            cluster = spec.build_cluster()
            policy = DynamicAllocationPolicy(max_executors=len(cluster))
            scheduler = build_scheduler("pairwise", None,
                                        allocation_policy=policy)
            result = simulators[step_mode](
                cluster, scheduler, seed=11,
                max_time_min=spec.max_time_min, faults=spec.faults).run(jobs)
            assert result.events.count(EventKind.EXECUTOR_OOM) > 0
            runs[step_mode] = (
                evaluate_schedule(result, jobs, policy),
                {name: app.finish_time for name, app in result.apps.items()})
        assert runs["event"] == runs["fixed"]
