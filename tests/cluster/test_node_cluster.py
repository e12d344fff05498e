"""Tests for nodes and the cluster (the monitor: test_resource_monitor.py)."""

import pytest

from repro.cluster import (
    Cluster,
    Node,
    paper_cluster,
)
from repro.spark import Executor


def make_executor(node_id=0, budget=10.0, data=5.0, cpu=0.3, app="app"):
    return Executor(app_name=app, node_id=node_id, memory_budget_gb=budget,
                    assigned_gb=data, cpu_demand=cpu)


def make_node(**capacities):
    """Node 0 of a one-node cluster: a node is a view over its cluster row."""
    return Cluster.homogeneous(1, **capacities).node(0)


class TestNode:
    def test_reservation_accounting(self):
        node = make_node(ram_gb=64.0)
        node.add_executor(make_executor(budget=20.0))
        node.add_executor(make_executor(budget=10.0, app="other"))
        assert node.reserved_memory_gb == pytest.approx(30.0)
        assert node.free_reserved_memory_gb == pytest.approx(34.0)

    def test_cpu_accounting(self):
        node = make_node()
        node.add_executor(make_executor(cpu=0.4))
        node.add_executor(make_executor(cpu=0.3, app="other"))
        assert node.reserved_cpu_load == pytest.approx(0.7)

    def test_can_host_respects_memory_and_cpu(self):
        node = make_node(ram_gb=64.0)
        node.add_executor(make_executor(budget=60.0, cpu=0.5))
        assert not node.can_host(memory_gb=10.0, cpu_load=0.1)     # memory
        assert not node.can_host(memory_gb=2.0, cpu_load=0.6)      # cpu
        assert node.can_host(memory_gb=2.0, cpu_load=0.4)

    def test_can_host_rejects_non_positive_memory(self):
        assert not make_node().can_host(memory_gb=0.0, cpu_load=0.1)

    def test_finished_executor_frees_reservation(self):
        node = make_node()
        executor = make_executor(budget=30.0, data=1.0)
        node.add_executor(executor)
        executor.advance(1.0)
        assert node.reserved_memory_gb == 0.0

    @pytest.mark.parametrize("read, fresh", [
        (lambda node: node.can_host(memory_gb=30.0, cpu_load=0.5), True),
        (lambda node: node.reserved_memory_gb, 20.0),
        (lambda node: node.reserved_cpu_load, 0.25),
        (lambda node: len(node.active_executors()), 1),
    ], ids=["can_host", "reserved_memory_gb", "reserved_cpu_load",
            "active_executors"])
    def test_first_read_after_removal_sees_freed_capacity(self, read, fresh):
        # Removal leaves the node's row stale until something reads it,
        # so every read must refresh the row first.
        node = make_node(ram_gb=64.0)
        node.add_executor(make_executor(budget=20.0, cpu=0.25))
        removed = make_executor(budget=40.0, cpu=0.5, app="other")
        node.add_executor(removed)
        node.remove_executor(removed)
        assert read(node) == fresh

    def test_liveness_and_speed_live_in_the_row(self):
        # The node keeps no copy of ``up``/``speed``: its setters write
        # the row's cells, its properties read them, and every change
        # moves the version that cached feature snapshots key on.
        node = make_node()
        state, slot = node._state, node._slot
        row = state.nodes_view()
        version = state.version
        node.set_speed(0.5)
        assert row["speed"][slot] == 0.5 and state.version > version
        version = state.version
        node.mark_down()
        assert not row["up"][slot] and row["speed"][slot] == 1.0
        assert state.version > version
        assert not node.can_host(memory_gb=1.0, cpu_load=0.1)
        row["up"][slot] = True
        row["speed"][slot] = 0.25
        assert node.is_up and node.speed_factor == 0.25

    def test_spawn_onto_clean_node_keeps_its_row_fresh(self):
        # Placement reads a node's row right after spawning onto it, with
        # no refresh in between; that holds because an active spawn onto
        # a clean row adds in place and leaves the node clean.
        node = make_node(ram_gb=64.0)
        state, slot = node._state, node._slot
        node.add_executor(make_executor(budget=0.1, cpu=0.1))
        node.add_executor(make_executor(budget=0.2, cpu=0.2, app="other"))
        assert slot not in state._dirty_nodes
        row = state.nodes_view()[slot]
        assert float(row["reserved_mem_gb"]) == 0.1 + 0.2
        assert float(row["reserved_cpu"]) == 0.1 + 0.2
        assert int(row["n_active"]) == 2

    def test_executor_for_wrong_node_rejected(self):
        node = make_node()
        with pytest.raises(ValueError):
            node.add_executor(make_executor(node_id=3))

    def test_invalid_node_parameters_raise(self):
        with pytest.raises(ValueError):
            Node(node_id=0, ram_gb=0.0)
        with pytest.raises(ValueError):
            Node(node_id=0, cores=0)


class TestCluster:
    def test_paper_cluster_matches_section_5_1(self):
        cluster = paper_cluster()
        assert len(cluster) == 40
        assert all(node.ram_gb == 64.0 for node in cluster.nodes)
        assert all(node.swap_gb == 16.0 for node in cluster.nodes)
        assert all(node.cores == 16 for node in cluster.nodes)
        assert cluster.total_ram_gb == pytest.approx(40 * 64.0)

    def test_homogeneous_requires_at_least_one_node(self):
        with pytest.raises(ValueError):
            Cluster.homogeneous(0)

    def test_node_lookup_bounds(self):
        cluster = Cluster.homogeneous(2)
        assert cluster.node(1).node_id == 1
        with pytest.raises(KeyError):
            cluster.node(2)

    def test_joined_node_gets_a_fresh_row(self):
        cluster = Cluster.homogeneous(1)
        cluster.node(0).mark_down()
        node = cluster.add_node(ram_gb=32.0)
        row = cluster.state.nodes_view()[node._slot]
        assert (bool(row["up"]), float(row["speed"])) == (True, 1.0)
        assert (float(row["reserved_mem_gb"]), float(row["reserved_cpu"]),
                int(row["n_active"])) == (0.0, 0.0, 0)
        assert node._slot not in cluster.state._dirty_nodes
        assert node.can_host(memory_gb=32.0, cpu_load=1.0)

    def test_nodes_by_free_memory_ordering(self):
        cluster = Cluster.homogeneous(3)
        cluster.node(1).add_executor(make_executor(node_id=1, budget=40.0))
        ordering = [node.node_id for node in cluster.nodes_by_free_memory()]
        assert ordering[-1] == 1

    def test_idle_nodes_and_active_applications(self):
        cluster = Cluster.homogeneous(2)
        cluster.node(0).add_executor(make_executor(node_id=0, app="job-a"))
        assert [node.node_id for node in cluster.idle_nodes()] == [1]
        assert cluster.active_applications() == {"job-a"}

