"""The engine's always-on phase counters partition the run's wall-clock.

The throughput benchmark attributes regressions to lifecycle phases by
reading ``engine.phase_seconds`` — which is only trustworthy if the
phase keys actually cover the epoch loop.  The OOM re-run path used to
be the gap: ``rerun_oom_data_in_isolation`` (plus the wake publish) ran
between the ``faults`` and ``schedule`` stamps and was charged to
neither, so an OOM-heavy run under-reported by exactly the phase most
likely to blow up.  These tests pin the ``oom`` phase's existence and
the partition property on both engines.
"""

import time

import pytest

from repro.cluster import Cluster, EventKind
from repro.cluster.faults import FaultEvent, FaultSpec
from repro.scheduling import PairwiseScheduler
from repro.workloads import Job

ENGINES = ("fixed", "event")

#: Memory-hungry jobs on a tiny two-node cluster: pairwise's greedy
#: free-memory grants over-commit it, so the OOM recovery path runs
#: repeatedly and its phase cost is far from zero.
OOM_HEAVY_JOBS = [
    Job("BDB.PageRank", 60.0), Job("HB.PageRank", 60.0),
    Job("BDB.Kmeans", 60.0), Job("HB.Kmeans", 60.0),
]


def run_oom_heavy(simulator_type):
    cluster = Cluster.homogeneous(2, ram_gb=16.0, swap_gb=8.0)
    simulator = simulator_type(cluster, PairwiseScheduler(), seed=11,
                               max_time_min=20000.0)
    start = time.perf_counter()
    result = simulator.run(OOM_HEAVY_JOBS)
    wall = time.perf_counter() - start
    return result, simulator, wall


class TestPhasePartition:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_phase_keys_include_oom(self, engine, simulators):
        cluster = Cluster.homogeneous(2)
        storm = FaultSpec(timeline=(FaultEvent(
            time_min=1.0, action="node_down", node_id=0, duration_min=5.0),))
        simulator = simulators[engine](cluster, PairwiseScheduler(),
                                       faults=storm)
        simulator.run([Job("HB.Sort", 10.0)])
        assert set(simulator.engine.phase_seconds) == {
            "arrivals", "faults", "oom", "schedule", "advance"}
        # The end-of-run hook unbound the engine and the fault controller;
        # the phase counters stay readable.
        assert simulator.engine.sim is None
        assert simulator.fault_controller.sim is None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_oom_phase_accrues_on_oom_heavy_run(self, engine, simulators):
        result, simulator, _ = run_oom_heavy(simulators[engine])
        assert result.all_finished()
        assert result.events.count(EventKind.EXECUTOR_OOM) > 0
        assert simulator.engine.phase_seconds["oom"] > 0.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_phase_sum_approximates_run_wall_clock(self, engine, simulators):
        # The keys partition the epoch loop, so their sum must account
        # for (almost) the whole of ``run()``'s wall-clock — anything
        # outside the phases is setup and result assembly, a few percent
        # at most.  A loose floor keeps CI timer noise from flaking.
        _, simulator, wall = run_oom_heavy(simulators[engine])
        total = sum(simulator.engine.phase_seconds.values())
        assert 0.0 < total <= wall
        assert total >= 0.7 * wall, (
            f"phase breakdown accounts for only {total / wall:.0%} of the "
            f"run wall-clock ({simulator.engine.phase_seconds})")
