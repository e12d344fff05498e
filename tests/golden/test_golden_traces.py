"""Diff current runs against the committed golden traces.

The traces (see ``regen.py`` in this directory) fingerprint whole
simulated schedules — event-kind counts and an ordered event-stream
digest, headline metrics, per-job outcomes, fault telemetry, and a digest
of the fixed-step engine's trace — for every registered scheme on
L1/L5/churn20/regime_shift.  Any behavioural drift in the engines, the
event bus, the schemes, the fault subsystem or the arrival path shows up
here as a precise diff; an *intentional* change is blessed with::

    PYTHONPATH=src python tests/golden/regen.py --regen
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.scheduling.registry import scheme_info, scheme_names

_REGEN_PATH = Path(__file__).resolve().parent / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN_PATH)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def assert_matches_golden(scenario, scheme, fixed_engine=True):
    """Diff a fresh run against the committed trace; ``fixed_engine``
    also rebuilds the fixed-step engine's trace and checks its digest."""
    path = regen.trace_path(scenario, scheme)
    assert path.is_file(), (
        f"golden trace {path.name} is missing; generate it with "
        f"`PYTHONPATH=src python {_REGEN_PATH} --regen`")
    committed = json.loads(path.read_text())
    if fixed_engine:
        current = regen.make_golden(scenario, scheme)
    else:
        current = regen.make_trace(scenario, scheme)
        committed.pop("fixed_engine_sha256")
    assert current == committed, (
        f"{scenario}/{scheme} drifted from its committed golden trace "
        f"({path.name}).  If the behaviour change is intentional, rerun "
        f"`PYTHONPATH=src python {_REGEN_PATH} --regen` and commit the "
        "updated traces.")


@pytest.mark.parametrize("scenario,scheme", regen.CASES,
                         ids=[f"{s}-{p}" for s, p in regen.CASES])
def test_run_matches_committed_golden_trace(scenario, scheme):
    assert_matches_golden(scenario, scheme)


@pytest.mark.parametrize("scenario,scheme", regen.CASES,
                         ids=[f"{s}-{p}" for s, p in regen.CASES])
def test_golden_trace_holds_under_python312_sum(scenario, scheme,
                                                python312_sum):
    """The same event-engine traces when ``sum()`` compensates float
    rounding, as it does from Python 3.12: no total on the traced paths
    may use it."""
    assert_matches_golden(scenario, scheme, fixed_engine=False)


def test_python312_sum_compensates_floats_only(python312_sum):
    assert sum([0.1] * 10) == 1.0
    assert sum([1e100, 1.0, -1e100]) == 1.0
    assert sum([2**62, 2**62, 1]) == 2**63 + 1
    # NumPy scalars are not exact floats: they add plainly, left to right.
    tenths = np.full(10, 0.1)
    plain = 0.0
    for tenth in tenths:
        plain += tenth
    assert plain != 1.0 and sum(tenths) == plain


def builtin_schemes() -> tuple[str, ...]:
    """Registered schemes whose builders ship in the ``repro`` package, in
    registration order (plugins registered by tests are left out)."""
    def home(builder) -> str:
        return getattr(builder, "func", builder).__module__
    return tuple(name for name in scheme_names()
                 if home(scheme_info(name).builder).startswith("repro."))


@pytest.mark.parametrize("scenario", regen.SCENARIOS)
def test_every_registered_scheme_has_goldens(scenario):
    """A scheme cannot be registered without trajectories: every built-in
    scheme is a golden case on every golden scenario, and no case names
    a scheme the registry lost."""
    traced = tuple(scheme for case_scenario, scheme in regen.CASES
                   if case_scenario == scenario
                   and scheme not in regen.LOCAL_SCHEMES)
    assert traced == builtin_schemes(), (
        f"golden cases on {scenario} do not match the registered schemes; "
        f"add the scheme to regen.SCHEMES and run "
        f"`PYTHONPATH=src python {_REGEN_PATH} --regen`")


def test_trace_fingerprints_are_nontrivial():
    # Guard against the harness silently fingerprinting nothing: the
    # seed scenario's trace must count real scheduling activity.
    committed = json.loads(regen.trace_path("L1", "pairwise").read_text())
    assert committed["event_counts"]["executor_spawned"] > 0
    assert committed["event_counts"]["app_finished"] == committed["n_jobs"]
    assert committed["metrics"]["all_finished"] is True
    assert len(committed["jobs"]) == committed["n_jobs"]


def test_churn20_trace_records_fault_activity():
    committed = json.loads(regen.trace_path("churn20", "oracle").read_text())
    assert committed["fault_summary"]["node_failures"] > 0
    assert committed["event_counts"]["node_down"] > 0
