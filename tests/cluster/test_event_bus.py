"""Tests for the typed event bus at the core of the simulation kernel."""

import pytest

from repro.cluster.events import (
    TRANSIENT_KINDS,
    ClusterSample,
    Event,
    EventBus,
    EventKind,
    ExecutorOOM,
    JobArrival,
    NodeDown,
    SchedulerWake,
    StragglerOnset,
)


class TestSubscription:
    def test_kind_filtered_subscription(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=(EventKind.NODE_DOWN,))
        bus.publish(NodeDown(time=1.0, node_id=3))
        bus.publish(JobArrival(time=2.0, app="a"))
        assert [e.kind for e in seen] == [EventKind.NODE_DOWN]

    def test_wildcard_subscription_sees_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.publish(NodeDown(time=1.0, node_id=0))
        bus.record(2.0, EventKind.APP_FINISHED, app="x")
        assert len(seen) == 2

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        callback = bus.subscribe(seen.append, kinds=(EventKind.NODE_DOWN,))
        bus.publish(NodeDown(time=1.0, node_id=0))
        bus.unsubscribe(callback)
        bus.publish(NodeDown(time=2.0, node_id=1))
        assert len(seen) == 1

    def test_subscribers_run_in_registration_order(self):
        bus = EventBus()
        order = []
        bus.subscribe(lambda e: order.append("first"),
                      kinds=(EventKind.NODE_DOWN,))
        bus.subscribe(lambda e: order.append("second"),
                      kinds=(EventKind.NODE_DOWN,))
        bus.publish(NodeDown(time=0.5, node_id=0))
        assert order == ["first", "second"]


class TestRetention:
    def test_published_events_are_queryable_like_the_old_log(self):
        bus = EventBus()
        bus.publish(NodeDown(time=1.0, node_id=3))
        bus.record(2.0, EventKind.APP_FINISHED, app="x")
        assert len(bus) == 2
        assert bus.count(EventKind.NODE_DOWN) == 1
        assert bus.of_kind(EventKind.APP_FINISHED)[0].app == "x"
        assert bus.for_app("x")[0].kind is EventKind.APP_FINISHED

    def test_transient_kinds_dispatch_but_are_not_retained(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=TRANSIENT_KINDS)
        bus.publish(SchedulerWake(time=1.0))
        bus.publish(ClusterSample(time=1.0, times=(1.0,)))
        assert len(seen) == 2
        assert len(bus) == 0

    def test_retain_false_keeps_nothing(self):
        bus = EventBus(retain=False)
        bus.publish(NodeDown(time=1.0, node_id=0))
        assert len(bus) == 0


class TestHierarchy:
    def test_typed_events_fix_their_kind(self):
        assert JobArrival(time=0.0).kind is EventKind.APP_SUBMITTED
        assert NodeDown(time=0.0).kind is EventKind.NODE_DOWN
        assert StragglerOnset(time=0.0).kind is EventKind.STRAGGLER_ONSET

    def test_typed_events_carry_structured_payload(self):
        oom = ExecutorOOM(time=3.0, app="HB.Sort", node_id=2, lost_gb=4.5)
        assert oom.lost_gb == 4.5
        assert isinstance(oom, Event)

    def test_typed_events_are_frozen(self):
        event = NodeDown(time=1.0, node_id=0)
        with pytest.raises(AttributeError):
            event.node_id = 1
