"""Tests for the scheduler scheme plugin registry."""

import pytest

from repro.api import ExperimentPlan, SchedulerSuite, Session
from repro.scheduling import PairwiseScheduler
from repro.scheduling.registry import (
    UnknownSchemeError,
    build_scheduler,
    is_registered,
    register_scheme,
    required_artefacts,
    scheme_info,
    scheme_names,
    unregister_scheme,
    validate_schemes,
)

#: The pre-registry hardcoded tuple; the registry must preserve it.
LEGACY_KNOWN_SCHEMES = (
    "isolated", "pairwise", "online_search", "quasar", "ours", "oracle",
    "unified_ann", "unified_power_law", "unified_exponential",
    "unified_napierian_log",
)


def _build_tmp_pairwise(artefacts, **kwargs):
    """Module-level builder so the registration pickles like a real plugin."""
    return PairwiseScheduler(**kwargs)


@pytest.fixture
def temp_scheme():
    """Register a throwaway scheme and guarantee cleanup."""
    name = "test_tmp_scheme"
    register_scheme(name)(_build_tmp_pairwise)
    yield name
    if is_registered(name):
        unregister_scheme(name)


class TestBuiltins:
    def test_every_legacy_scheme_is_registered(self):
        assert set(LEGACY_KNOWN_SCHEMES) <= set(scheme_names())

    def test_legacy_order_preserved(self):
        builtin = [n for n in scheme_names() if n in LEGACY_KNOWN_SCHEMES]
        assert tuple(builtin) == LEGACY_KNOWN_SCHEMES

    def test_trained_artefact_declarations_match_legacy_table(self):
        assert scheme_info("quasar").requires == "dataset"
        assert scheme_info("ours").requires == "moe"
        assert scheme_info("unified_ann").requires == "dataset"
        for name in ("isolated", "pairwise", "oracle", "online_search",
                     "unified_power_law"):
            assert scheme_info(name).requires is None


class TestRoundTrip:
    def test_register_factory_unregister(self, temp_scheme):
        # register -> visible
        assert is_registered(temp_scheme)
        assert temp_scheme in scheme_names()
        # factory -> builds a fresh scheduler through the suite
        suite = SchedulerSuite()
        scheduler = suite.factory(temp_scheme)()
        assert isinstance(scheduler, PairwiseScheduler)
        assert suite.factory(temp_scheme)() is not scheduler
        # unregister -> gone again
        info = unregister_scheme(temp_scheme)
        assert info.name == temp_scheme
        assert not is_registered(temp_scheme)
        with pytest.raises(UnknownSchemeError):
            suite.factory(temp_scheme)

    def test_registered_scheme_runs_through_a_session(self, temp_scheme):
        plan = ExperimentPlan(schemes=(temp_scheme,), scenarios=("L1",),
                              n_mixes=1)
        with Session() as session:
            [row] = session.run(plan)
        assert row.scheme == temp_scheme
        assert row.stp_geomean > 0

    def test_duplicate_registration_rejected_without_replace(self, temp_scheme):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme(temp_scheme)(lambda artefacts, **kwargs: None)
        # replace=True shadows deliberately
        register_scheme(temp_scheme, replace=True)(
            lambda artefacts, **kwargs: PairwiseScheduler(**kwargs))

    def test_unregister_unknown_raises(self):
        with pytest.raises(UnknownSchemeError):
            unregister_scheme("never_registered")


class TestValidationHelpers:
    def test_validate_schemes_lists_every_unknown_name(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            validate_schemes(["pairwise", "bogus_a", "bogus_b"])
        assert excinfo.value.unknown == ("bogus_a", "bogus_b")
        assert "bogus_a, bogus_b" in str(excinfo.value)
        assert "registered:" in str(excinfo.value)

    def test_required_artefacts_aggregates_and_ignores_unknown(self):
        assert required_artefacts(["pairwise", "oracle"]) == frozenset()
        assert required_artefacts(["quasar", "ours"]) == {"dataset", "moe"}
        assert required_artefacts(["nonexistent"]) == frozenset()

    def test_requires_must_be_a_known_artefact_kind(self):
        with pytest.raises(ValueError, match="requires"):
            register_scheme("bad_requires", requires="spaceship")

    def test_scheme_needs_a_name(self):
        with pytest.raises(ValueError):
            register_scheme("")


class TestWorkerRegistryShipping:
    def test_registered_scheme_runs_through_worker_processes(self, temp_scheme):
        plan = ExperimentPlan(schemes=(temp_scheme,), scenarios=("L1",),
                              n_mixes=2, workers=2)
        with Session() as session:
            [row] = session.run(plan)
        assert row.scheme == temp_scheme and row.n_mixes == 2

    def test_init_worker_merges_the_parent_registry_snapshot(self, temp_scheme):
        # Simulate a spawn-start worker: it only has the import-time
        # builtins, and the pool initialiser replays the parent's
        # runtime registrations from the pickled snapshot.
        import pickle

        from repro.api.session import _init_worker
        from repro.scheduling.registry import registry_snapshot

        blob = pickle.dumps((SchedulerSuite(), registry_snapshot()))
        unregister_scheme(temp_scheme)
        assert not is_registered(temp_scheme)
        _init_worker(blob)
        assert is_registered(temp_scheme)

    def test_merge_registry_never_clobbers_local_registrations(self):
        from repro.scheduling.registry import merge_registry, scheme_info

        local = scheme_info("pairwise")
        merge_registry({"pairwise": scheme_info("oracle")})
        assert scheme_info("pairwise") is local


class TestBuilderContract:
    def test_builder_receives_artefacts_and_kwargs(self):
        captured = {}

        @register_scheme("test_capture_scheme")
        def _build(artefacts, **kwargs):
            captured["artefacts"] = artefacts
            captured["kwargs"] = kwargs
            return PairwiseScheduler()

        try:
            suite = SchedulerSuite()
            from repro.spark.driver import DynamicAllocationPolicy

            policy = DynamicAllocationPolicy(max_executors=7)
            suite.factory("test_capture_scheme", allocation_policy=policy)()
            assert captured["artefacts"] is suite
            assert captured["kwargs"] == {"allocation_policy": policy}
            build_scheduler("test_capture_scheme", suite)
            assert captured["kwargs"] == {}
        finally:
            unregister_scheme("test_capture_scheme")
