"""Tests for the utilisation heat map and the interference helpers."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.simulator import ClusterSimulator, InterferenceModel
from repro.metrics.slowdown import (
    parsec_colocation_slowdown_percent,
    slowdown_percent,
    spark_bandwidth_pressure,
)
from repro.metrics.utilization import StreamingUtilizationHeatmap
from repro.scheduling import make_oracle_scheduler
from repro.workloads.mixes import Job
from repro.workloads.parsec import parsec_by_name
from repro.workloads.suites import benchmark_by_name


class TestUtilization:
    def test_heatmap_stays_in_range(self):
        simulator = ClusterSimulator(Cluster.homogeneous(3),
                                     make_oracle_scheduler(), time_step_min=0.5)
        heatmap = StreamingUtilizationHeatmap(n_bins=10).attach(
            simulator.events)
        simulator.run([Job("HB.Sort", 20.0), Job("HB.Scan", 10.0)])
        _, matrix = heatmap.matrix()
        assert matrix.shape == (3, 10)
        assert np.all(matrix >= 0.0)
        assert np.all(matrix <= 100.0)
        assert matrix.max() > 0.0


class TestSlowdown:
    def test_slowdown_percent_basic(self):
        assert slowdown_percent(10.0, 12.0) == pytest.approx(20.0)
        assert slowdown_percent(10.0, 10.0) == pytest.approx(0.0)

    def test_slowdown_requires_positive_isolated_time(self):
        with pytest.raises(ValueError):
            slowdown_percent(0.0, 1.0)

    def test_bandwidth_pressure_orders_families(self):
        streaming = spark_bandwidth_pressure(benchmark_by_name("HB.Sort"))
        compute = spark_bandwidth_pressure(benchmark_by_name("SP.Sum.Statis"))
        assert streaming > compute

    def test_parsec_slowdown_bounded_and_sensitive(self):
        canneal = parsec_by_name("Canneal")
        swaptions = parsec_by_name("Swaptions")
        spark = benchmark_by_name("BDB.PageRank")
        heavy = parsec_colocation_slowdown_percent(canneal, spark)
        light = parsec_colocation_slowdown_percent(swaptions, spark)
        assert 0.0 <= light < heavy <= 40.0

    def test_parsec_slowdown_uses_interference_model(self):
        canneal = parsec_by_name("Canneal")
        spark = benchmark_by_name("BDB.PageRank")
        calm = parsec_colocation_slowdown_percent(
            canneal, spark, InterferenceModel(bandwidth_alpha=0.0))
        stormy = parsec_colocation_slowdown_percent(
            canneal, spark, InterferenceModel(bandwidth_alpha=0.07))
        assert stormy > calm
