"""PolicyAdapter equivalence: the environment is a re-layering, not a fork.

Driving a registered scheme through :class:`repro.env.SchedulingEnv` via
:class:`repro.env.PolicyAdapter` must reproduce the native engine path —
STP, ANTT and the per-job records, bit-for-bit — on both the closed
seed scenario (L1) and the dynamic-cluster scenario (churn20), for a
prediction-free scheme and a trained one.
"""

import pytest

from repro.api import ExperimentPlan, Session
from repro.env import PolicyAdapter, rollout

#: (scheme, needs_training): the dynamic prediction-free scheme and the
#: paper's trained mixture-of-experts scheme.
SCHEMES = ("pairwise", "ours")


@pytest.fixture(scope="module")
def session():
    with Session() as shared:
        shared.ensure_trained(SCHEMES)
        yield shared


def _native_cell(session, scheme, scenario):
    plan = ExperimentPlan(schemes=(scheme,), scenarios=(scenario,),
                          n_mixes=1, seed=11)
    [cell] = session.stream(plan)
    return cell


class TestAdapterMatchesNativeBitForBit:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("scenario", ["L1", "churn20"])
    def test_event_engine(self, session, scheme, scenario):
        episode = session.rollout(scenario, policy=scheme, seed=11)
        cell = _native_cell(session, scheme, scenario)
        assert episode.stp == cell.stp
        assert episode.antt == cell.antt
        assert episode.antt_reduction_percent == cell.antt_reduction_percent
        assert episode.makespan_min == cell.makespan_min
        assert episode.jobs == cell.jobs
        assert episode.faults == cell.faults

    def test_adapter_instance_can_be_passed_directly(self, session):
        adapter = PolicyAdapter("pairwise", suite=session.suite)
        episode = rollout("L1", adapter, seed=11)
        cell = _native_cell(session, "pairwise", "L1")
        assert episode.stp == cell.stp
        assert episode.policy == "pairwise"


class TestAdapterGuards:
    def test_unknown_scheme_is_rejected_eagerly(self):
        from repro.scheduling.registry import UnknownSchemeError

        with pytest.raises(UnknownSchemeError):
            PolicyAdapter("warp_drive")

    def test_acting_without_a_mounted_scheduler_is_an_error(self, session):
        from repro.env import SchedulingEnv

        adapter = PolicyAdapter("pairwise", suite=session.suite)
        env = SchedulingEnv("L1")
        observation = env.reset(seed=11)  # no scheduler_factory passed
        with pytest.raises(RuntimeError, match="no scheduler"):
            adapter.act(observation)
