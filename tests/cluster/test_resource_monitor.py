"""Tests for the resource monitor and its event-bus subscription."""

import numpy as np
import pytest

from repro.cluster.events import ClusterSample, EventBus, SampleBatch
from repro.cluster.resource_monitor import ResourceMonitor


def publish(bus, times, memory, cpu):
    """Publish one sample batch: node ``i`` reports ``memory[i]`` GB and
    ``cpu[i]`` load at every time in ``times``."""
    n = len(memory)
    bus.publish(ClusterSample(time=times[0], times=tuple(times),
                              samples=SampleBatch(list(range(n)),
                                                  np.asarray(memory, float),
                                                  np.asarray(cpu, float),
                                                  np.zeros(n))))


def monitored(window_min=5.0):
    bus = EventBus()
    return bus, ResourceMonitor(window_min=window_min).attach(bus)


class TestWindowedReporting:
    def test_no_samples_reports_zero(self):
        monitor = ResourceMonitor()
        assert monitor.reported_memory_gb(0) == 0.0
        assert monitor.reported_cpu_load(0) == 0.0
        assert not monitor.has_samples(0)

    def test_single_sample_is_the_average(self):
        bus, monitor = monitored()
        publish(bus, [1.0], [10.0], [0.5])
        assert monitor.reported_memory_gb(0) == pytest.approx(10.0)
        assert monitor.reported_cpu_load(0) == pytest.approx(0.5)
        assert monitor.has_samples(0)

    def test_window_averages_the_samples_inside_it(self):
        bus, monitor = monitored()
        publish(bus, [0.0], [10.0], [0.2])
        publish(bus, [1.0], [30.0], [0.6])
        assert monitor.reported_memory_gb(0) == pytest.approx(20.0)
        assert monitor.reported_cpu_load(0) == pytest.approx(0.4)

    def test_window_discards_stale_samples(self):
        bus, monitor = monitored()
        publish(bus, [0.0], [100.0], [1.0])
        publish(bus, [10.0], [10.0], [0.2])
        # The t=0 sample fell out of the 5-minute window ending at t=10.
        assert monitor.reported_memory_gb(0) == pytest.approx(10.0)
        assert monitor.reported_cpu_load(0) == pytest.approx(0.2)

    def test_batch_over_several_times_matches_one_batch_per_time(self):
        one_by_one_bus, one_by_one = monitored()
        batched_bus, batched = monitored()
        times = [0.0, 0.5, 1.0, 1.5]
        for t in times:
            publish(one_by_one_bus, [t], [0.0, 7.0], [0.0, 0.4])
        publish(batched_bus, times, [0.0, 7.0], [0.0, 0.4])
        assert batched.reported_memory_gb(1) == one_by_one.reported_memory_gb(1)
        assert batched.reported_cpu_load(1) == one_by_one.reported_cpu_load(1)

    def test_unknown_node_reports_zero(self):
        bus, monitor = monitored()
        publish(bus, [0.0], [8.0], [0.3])
        assert monitor.reported_memory_gb(7) == 0.0
        assert not monitor.has_samples(7)

    def test_window_must_be_positive(self):
        for window in (0.0, -5.0):
            with pytest.raises(ValueError, match="window_min must be positive"):
                ResourceMonitor(window_min=window)

    @pytest.mark.parametrize("window", [float("nan"), float("inf"), True])
    def test_window_must_be_a_finite_number(self, window):
        with pytest.raises(ValueError, match="window_min must be a finite"):
            ResourceMonitor(window_min=window)


class TestBusSubscription:
    def test_monitor_consumes_cluster_samples(self):
        bus, monitor = monitored()
        publish(bus, [0.0, 0.5], [8.0, 0.0], [0.3, 0.0])
        assert monitor.reported_memory_gb(0) == pytest.approx(8.0)
        assert monitor.reported_cpu_load(0) == pytest.approx(0.3)
        assert monitor.has_samples(1)
