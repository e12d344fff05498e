"""Heterogeneous topologies and per-node capacity respect in scheduling."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterSimulator,
    EventKind,
    NodeSpec,
    build_topology,
    paper_cluster,
    register_topology,
    topology_names,
)
from repro.cluster.topologies import TOPOLOGIES, topology_specs
from repro.scheduling import PairwiseScheduler, make_oracle_scheduler
from repro.workloads import Job


class TestClusterConstruction:
    def test_heterogeneous_expands_groups_with_consecutive_ids(self):
        cluster = Cluster.heterogeneous([
            NodeSpec(count=2, ram_gb=128.0),
            NodeSpec(count=3, ram_gb=16.0, swap_gb=8.0, cores=8),
        ])
        assert len(cluster) == 5
        assert [n.node_id for n in cluster.nodes] == [0, 1, 2, 3, 4]
        assert [n.ram_gb for n in cluster.nodes] == [128.0, 128.0,
                                                     16.0, 16.0, 16.0]
        assert cluster.total_ram_gb == 2 * 128.0 + 3 * 16.0

    def test_empty_spec_list_rejected(self):
        with pytest.raises(ValueError):
            Cluster.heterogeneous([])

    def test_node_spec_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(count=0)
        with pytest.raises(ValueError):
            NodeSpec(ram_gb=0.0)
        with pytest.raises(ValueError):
            NodeSpec(swap_gb=-1.0)
        with pytest.raises(ValueError):
            NodeSpec(cores=0)


class TestTopologyRegistry:
    def test_paper40_matches_paper_cluster(self):
        registry_cluster = build_topology("paper40")
        seed_cluster = paper_cluster()
        assert len(registry_cluster) == len(seed_cluster) == 40
        for a, b in zip(registry_cluster.nodes, seed_cluster.nodes):
            assert (a.node_id, a.ram_gb, a.swap_gb, a.cores) == \
                   (b.node_id, b.ram_gb, b.swap_gb, b.cores)

    def test_builtin_topologies_present(self):
        assert {"paper40", "hetero_mixed20", "smallmem24",
                "bigmem8"} <= set(topology_names())

    def test_builds_are_fresh_objects(self):
        assert build_topology("paper40") is not build_topology("paper40")

    def test_unknown_topology_rejected(self):
        with pytest.raises(KeyError):
            build_topology("atlantis")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_topology("paper40", topology_specs("paper40"))

    def test_registration_round_trip(self):
        name = "test_only_topology"
        try:
            register_topology(name, (NodeSpec(count=2, ram_gb=32.0),))
            assert len(build_topology(name)) == 2
        finally:
            TOPOLOGIES.pop(name, None)

    def test_node_spec_dict_round_trip(self):
        spec = NodeSpec(count=3, ram_gb=48.0, swap_gb=4.0, cores=12)
        assert NodeSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError):
            NodeSpec.from_dict({"count": 1, "disk_gb": 100})


class TestHeterogeneousScheduling:
    """Schedulers must respect per-node capacities on mixed fleets."""

    MIX = [Job("HB.Sort", 40.0), Job("BDB.PageRank", 60.0),
           Job("SP.Kmeans", 50.0), Job("HB.Scan", 20.0),
           Job("BDB.Grep", 30.0)]

    def hetero_cluster(self):
        return Cluster.heterogeneous([
            NodeSpec(count=2, ram_gb=128.0, swap_gb=32.0, cores=32),
            NodeSpec(count=2, ram_gb=64.0),
            NodeSpec(count=3, ram_gb=12.0, swap_gb=4.0, cores=8),
        ])

    @pytest.mark.parametrize("factory", [make_oracle_scheduler,
                                         PairwiseScheduler])
    @pytest.mark.parametrize("step_mode", ["fixed", "event"])
    def test_no_reservation_exceeds_its_nodes_ram(self, factory, step_mode,
                                                  simulators):
        cluster = self.hetero_cluster()
        ram_by_node = {n.node_id: n.ram_gb for n in cluster.nodes}
        simulator = simulators[step_mode](cluster, factory())
        result = simulator.run(self.MIX)
        assert result.all_finished()
        spawns = result.events.of_kind(EventKind.EXECUTOR_SPAWNED)
        assert spawns
        for event in spawns:
            assert event.budget_gb <= ram_by_node[event.node_id] + 1e-6

    def test_small_nodes_host_only_small_reservations(self):
        cluster = self.hetero_cluster()
        small_ids = {n.node_id for n in cluster.nodes if n.ram_gb <= 12.0}
        simulator = ClusterSimulator(cluster, make_oracle_scheduler())
        result = simulator.run(self.MIX)
        small_spawns = [e for e in result.events.of_kind(EventKind.EXECUTOR_SPAWNED)
                        if e.node_id in small_ids]
        for event in small_spawns:
            assert event.budget_gb <= 12.0 + 1e-6

    def test_engines_agree_on_heterogeneous_cluster(self, simulators):
        fixed = simulators["fixed"](self.hetero_cluster(),
                                    make_oracle_scheduler()).run(self.MIX)
        event = simulators["event"](self.hetero_cluster(),
                                    make_oracle_scheduler()).run(self.MIX)
        assert event.makespan_min == pytest.approx(fixed.makespan_min,
                                                   rel=1e-9)
        for name, app in fixed.apps.items():
            assert event.apps[name].turnaround_min() == pytest.approx(
                app.turnaround_min(), rel=1e-9)

    def test_oracle_uses_big_nodes_more_than_small_ones(self):
        cluster = self.hetero_cluster()
        simulator = ClusterSimulator(cluster, make_oracle_scheduler())
        result = simulator.run(self.MIX)
        data_by_node: dict[int, float] = {}
        for event in result.events.of_kind(EventKind.EXECUTOR_SPAWNED):
            data_by_node[event.node_id] = (data_by_node.get(event.node_id, 0)
                                           + event.data_gb)
        big = sum(data_by_node.get(i, 0.0) for i in (0, 1))
        small = sum(data_by_node.get(n.node_id, 0.0)
                    for n in cluster.nodes if n.ram_gb <= 12.0)
        assert big > small
