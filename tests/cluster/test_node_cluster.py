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


class TestNode:
    def test_reservation_accounting(self):
        node = Node(node_id=0, ram_gb=64.0)
        node.add_executor(make_executor(budget=20.0))
        node.add_executor(make_executor(budget=10.0, app="other"))
        assert node.reserved_memory_gb == pytest.approx(30.0)
        assert node.free_reserved_memory_gb == pytest.approx(34.0)

    def test_cpu_accounting(self):
        node = Node(node_id=0)
        node.add_executor(make_executor(cpu=0.4))
        node.add_executor(make_executor(cpu=0.3, app="other"))
        assert node.reserved_cpu_load == pytest.approx(0.7)
        assert node.free_cpu_load == pytest.approx(0.3)

    def test_can_host_respects_memory_and_cpu(self):
        node = Node(node_id=0, ram_gb=64.0)
        node.add_executor(make_executor(budget=60.0, cpu=0.5))
        assert not node.can_host(memory_gb=10.0, cpu_load=0.1)     # memory
        assert not node.can_host(memory_gb=2.0, cpu_load=0.6)      # cpu
        assert node.can_host(memory_gb=2.0, cpu_load=0.4)

    def test_can_host_rejects_non_positive_memory(self):
        assert not Node(node_id=0).can_host(memory_gb=0.0, cpu_load=0.1)

    def test_thread_rebalancing_splits_cores(self):
        node = Node(node_id=0, cores=16)
        first = make_executor()
        second = make_executor(app="other")
        node.add_executor(first)
        assert first.threads == 16
        node.add_executor(second)
        assert first.threads == 8
        assert second.threads == 8

    def test_finished_executor_frees_reservation(self):
        node = Node(node_id=0)
        executor = make_executor(budget=30.0, data=1.0)
        node.add_executor(executor)
        executor.advance(1.0)
        assert node.reserved_memory_gb == 0.0

    def test_executor_for_wrong_node_rejected(self):
        node = Node(node_id=3)
        with pytest.raises(ValueError):
            node.add_executor(make_executor(node_id=0))

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

