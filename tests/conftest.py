"""Shared fixtures for the test suite."""

import builtins
import math

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
