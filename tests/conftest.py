"""Shared fixtures for the test suite."""

import builtins
import math

import numpy as np
import pytest


@pytest.fixture
def run_grid():
    """Run a scenario × scheme grid through the public session API.

    The one-line counterpart of the retired ``run_scenarios`` barrier
    call: builds an :class:`repro.api.ExperimentPlan` from the same
    keyword surface and executes it in a throwaway
    :class:`repro.api.Session`, returning the aggregated
    :class:`repro.api.ScenarioResult` rows.
    """
    from repro.api import ExperimentPlan, Session

    def call(schemes, *, scenarios=None, suite=None, **plan_kwargs):
        if scenarios is not None:
            plan_kwargs["scenarios"] = scenarios
        plan = ExperimentPlan(schemes=tuple(schemes), **plan_kwargs)
        with Session(suite=suite) as session:
            return session.run(plan)

    return call


@pytest.fixture(scope="session")
def simulators():
    """Simulator classes by engine name, for the engine-parity tests.

    ``"event"`` is :class:`~repro.cluster.simulator.ClusterSimulator`
    itself, which always runs the event-driven engine.  ``"fixed"`` is a
    subclass whose ``engine_type`` is the fixed-step reference engine: no
    public option selects it, so the tests build it here.
    """
    from repro.cluster.engine import FixedStepEngine
    from repro.cluster.simulator import ClusterSimulator

    class FixedStepSimulator(ClusterSimulator):
        engine_type = FixedStepEngine

    return {"fixed": FixedStepSimulator, "event": ClusterSimulator}


class SampleStream:
    """Every ``ClusterSample`` a bus publishes, one entry per sample time.

    Entry ``i`` of ``node_ids``, ``memory``, ``cpu`` and ``util`` is the
    sample taken at ``times[i]``: the sampled node ids and their resident
    memory (GB), CPU load and utilisation (%), as tuples of Python
    floats.  A batch spanning several grid times (an event-engine jump)
    expands to one entry per time, the shape the fixed-step engine
    publishes, so two engines' streams compare with ``==``.
    """

    def __init__(self):
        self.times = []
        self.node_ids = []
        self.memory = []
        self.cpu = []
        self.util = []

    def attach(self, bus):
        from repro.cluster.events import EventKind

        bus.subscribe(self._on_sample, kinds=(EventKind.CLUSTER_SAMPLE,))
        return self

    def _on_sample(self, event):
        samples = event.samples
        n = len(event.times)
        self.times.extend(event.times)
        self.node_ids.extend([tuple(samples.node_ids)] * n)
        for column, values in ((self.memory, samples.memory),
                               (self.cpu, samples.cpu),
                               (self.util, samples.util)):
            column.extend([tuple(values.tolist())] * n)

    def __eq__(self, other):
        return isinstance(other, SampleStream) and vars(self) == vars(other)

    def utilization(self):
        """``(node_ids, matrix)``: utilisation (%) per node (rows, ids
        ascending) and sample time (columns), zero before a node's first
        sample."""
        node_ids = sorted({node_id for ids in self.node_ids for node_id in ids})
        index = {node_id: i for i, node_id in enumerate(node_ids)}
        matrix = np.zeros((len(node_ids), len(self.times)))
        for j, (ids, util) in enumerate(zip(self.node_ids, self.util)):
            for node_id, value in zip(ids, util):
                matrix[index[node_id], j] = value
        return node_ids, matrix


@pytest.fixture(scope="session")
def sample_stream():
    """The :class:`SampleStream` recorder class.

    Attach one to a simulator's bus before its run:
    ``samples = sample_stream().attach(simulator.events)``.
    """
    return SampleStream


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` as CPython 3.12 computes it.

    Integers add exactly.  Once the running total is an exact ``float``,
    exact-float items are added with Neumaier's compensation and
    integers are added as floats; the first item of any other type
    (a NumPy scalar, say) folds the compensation in and the rest add
    plainly, left to right.
    """
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
    if type(total) is float:
        compensation = 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
            elif isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                total = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        total = total + item
    return total


@pytest.fixture
def python312_sum(monkeypatch):
    """Run the test with ``builtins.sum`` as Python 3.12 computes it.

    From 3.12 the builtin compensates float rounding, so a total that
    must match ``np.bincount`` or an incremental ``+=`` drifts in the
    last bit if it is taken with ``sum()``.  This fixture lets every
    supported Python catch such a ``sum()``.
    """
    monkeypatch.setattr(builtins, "sum", compensated_sum)
