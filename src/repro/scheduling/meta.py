"""Context-aware meta-scheduling: policy as swappable runtime state.

The adaptable-middleware line (Dearle et al., PAPERS.md) argues the
mechanism should carry *no* fixed policy — policy is runtime state
selected from context.  This module is that final step over the
machinery previous PRs built: a :class:`MetaScheduler` registered like
any other scheme (``"meta"``) that wraps a set of inner schemes built
from the same registry, watches the cluster through streaming
:class:`ContextSignals` derived from the typed event bus, and hot-swaps
the *active* inner scheme at epoch boundaries under a hysteresis rule.

Engine/kernel parity contract
-----------------------------
Both engines must produce bit-for-bit identical trajectories with a meta
scheme active, so the switch decision is a **pure function of
(simulated time, retained-event history, live cluster state)**:

* :class:`ContextMonitor` consumes only *retained* event kinds (node
  down/up, executor killed/preempted/OOM, straggler onset/recovery) —
  exactly the stream both engines are already pinned to publish
  identically.  Transient kinds (``SCHEDULER_WAKE``/``CLUSTER_SAMPLE``)
  differ between engines by design and are never consulted.
* Pending-queue depth and utilisation skew are computed live at decision
  time; both change only at events, which both engines observe at the
  same grid-aligned epochs.
* Purely time-gated transitions — the churn window aging out, the
  minimum-dwell period expiring — are surfaced through
  :meth:`MetaScheduler.next_wake_min` so the event-driven engine wakes
  at (the grid-alignment of) every instant the fixed-step engine's
  decision could flip.  Extra wakes are harmless: schedulers are
  quiescent when nothing changed.

Switch-replay rule
------------------
A switched-in scheme has been dormant through an arbitrary amount of
topology churn, so it must never act on a stale snapshot: the switch
publishes a :class:`~repro.cluster.events.SchemeSwitched` bus event and
then invokes the incoming scheme's ``on_cluster_change`` with it — the
same hook the fault controller uses — which re-derives the
dynamic-allocation executor cap from the live ``up_count`` and (for the
co-location family) drops the footprint memo, exactly as if the scheme
had witnessed the change itself.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.cluster.events import EventBus, EventKind, SchemeSwitched
from repro.cluster.simulator import NodeFeatures, SchedulingContext
from repro.scheduling.base import Scheduler
from repro.spark.application import SparkApplication

__all__ = [
    "CHURN_KINDS",
    "ContextSignals",
    "ContextMonitor",
    "MetaScheduler",
    "build_meta_scheduler",
]

#: Retained event kinds that count as "churn" in the fault-rate window.
CHURN_KINDS: frozenset[EventKind] = frozenset({
    EventKind.NODE_DOWN,
    EventKind.EXECUTOR_KILLED,
    EventKind.EXECUTOR_PREEMPTED,
    EventKind.EXECUTOR_OOM,
    EventKind.STRAGGLER_ONSET,
})

#: Kinds the monitor subscribes to: churn plus the recovery-side events
#: needed to maintain the live straggler count.
_MONITOR_KINDS: frozenset[EventKind] = CHURN_KINDS | {
    EventKind.STRAGGLER_RECOVERED,
}


@dataclass(frozen=True)
class ContextSignals:
    """One decision-time snapshot of the cluster's operating regime."""

    #: Decision time in simulated minutes.
    time_min: float
    #: Churn events (:data:`CHURN_KINDS`) inside the trailing window.
    churn_events: int
    #: Nodes currently running slow (onset seen, no recovery yet).
    straggler_count: int
    #: Applications ready to be scheduled and not yet complete.
    pending_depth: int
    #: Load-imbalance measure: max minus mean active executors per up
    #: node (0 when every live node carries the same load).
    utilization_skew: float
    #: Fraction of the live fleet's RAM reserved by executor budgets, in
    #: ``[0, 1]``.  Unlike the churn window this signal cannot be masked
    #: by the active scheme: memory-hungry jobs keep it high whichever
    #: policy places them, so it tracks the *workload* regime.
    memory_pressure: float


class ContextMonitor:
    """O(1)-per-event streaming view of the cluster's recent turbulence.

    Subscribes to the retained dynamic-cluster kinds on the simulation's
    event bus and maintains a deque of churn-event timestamps plus the
    set of currently straggling nodes.  Window pruning is amortised O(1):
    each event enters and leaves the deque exactly once.

    The bus holds the monitor's bound ``_on_event``, so the monitor
    refers back to the bus only weakly: a finished run's bus and monitor
    form no cycle and are freed by reference counting.
    """

    def __init__(self, window_min: float = 60.0) -> None:
        if window_min <= 0:
            raise ValueError("window_min must be positive")
        self.window_min = window_min
        self._churn_times: deque[float] = deque()
        self._stragglers: set[int] = set()
        self._bus: weakref.ref[EventBus] | None = None

    # -- bus wiring ----------------------------------------------------
    def attach(self, bus: EventBus) -> None:
        """Subscribe to ``bus`` (idempotent; re-attach is a no-op)."""
        attached = self._bus() if self._bus is not None else None
        if attached is bus:
            return
        if attached is not None:
            attached.unsubscribe(self._on_event)
        self._bus = weakref.ref(bus)
        bus.subscribe(self._on_event, kinds=_MONITOR_KINDS)

    def _on_event(self, event) -> None:
        if event.kind is EventKind.STRAGGLER_RECOVERED:
            self._stragglers.discard(event.node_id)
            return
        self._churn_times.append(event.time)
        if event.kind is EventKind.STRAGGLER_ONSET:
            self._stragglers.add(event.node_id)
        elif event.kind is EventKind.NODE_DOWN:
            # A dead node is not straggling; it returns at full speed.
            self._stragglers.discard(event.node_id)

    # -- signals -------------------------------------------------------
    def churn_in_window(self, now: float) -> int:
        """Churn events with ``time > now - window`` (prunes the deque)."""
        cutoff = now - self.window_min
        times = self._churn_times
        while times and times[0] <= cutoff:
            times.popleft()
        return len(times)

    def straggler_count(self) -> int:
        """Nodes currently marked as stragglers."""
        return len(self._stragglers)

    def next_age_out(self, now: float) -> float:
        """Next instant the windowed churn count decays (``inf`` if never).

        The oldest in-window event leaves the window at
        ``time + window_min`` — the only *time-driven* way the churn
        signal can change, so the meta-scheduler folds this into its
        ``next_wake_min``.
        """
        self.churn_in_window(now)
        if not self._churn_times:
            return math.inf
        return self._churn_times[0] + self.window_min

    def signals(self, ctx: SchedulingContext) -> ContextSignals:
        """Build the decision-time signal snapshot (pure given state).

        Every ingredient changes only at events (spawn/finish/kill,
        node membership) that both engines observe at the same
        grid-aligned epochs, so the snapshot — hence any decision taken
        from it — is engine-independent.
        """
        # The up nodes' rows of the version-cached feature columns:
        # ``n_active`` is each node's active-executor count and
        # ``free_gb`` its ``free_reserved_memory_gb``, bit for bit.
        features = ctx.node_features()
        up = features.up
        counts = features.n_active[up].tolist()
        skew = 0.0
        if counts:
            skew = float(max(counts)) - float(np.mean(counts))
        # Added left to right: ``sum()`` compensates float rounding from
        # Python 3.12, and this signal decides switches.
        capacity = free = 0.0
        for ram_gb, free_gb in zip(features.ram_gb[up].tolist(),
                                   features.free_gb[up].tolist()):
            capacity += ram_gb
            free += free_gb
        pressure = 1.0 - free / capacity if capacity > 0 else 1.0
        return ContextSignals(
            time_min=ctx.now,
            churn_events=self.churn_in_window(ctx.now),
            straggler_count=self.straggler_count(),
            pending_depth=len(ctx.waiting_apps()),
            utilization_skew=skew,
            memory_pressure=pressure,
        )


class MetaScheduler(Scheduler):
    """Hot-swaps among inner schemes from streaming context signals.

    Exactly one inner scheme is *active* at any time; :meth:`schedule`,
    :meth:`score_batch` and fault notifications delegate to it.  At each
    epoch boundary the hysteresis rule below is evaluated **before**
    delegating, so a switch takes effect for the very epoch that
    triggered it:

    * **primary → fallback** when the cluster is *stressed*: the
      windowed churn count reaches ``churn_enter``, the live straggler
      count reaches ``straggler_enter``, or the fleet's reserved-memory
      pressure reaches ``pressure_enter``.
    * **fallback → primary** when the cluster is *calm* again: churn
      has decayed to ``churn_exit`` or below, no straggler remains,
      **and** pressure has drained to ``pressure_exit`` or below.
    * Either way, at least ``dwell_min`` simulated minutes must have
      passed since the previous switch (the hysteresis dwell), so a
      flapping cluster cannot make the policy flap with it.

    ``on_submit`` runs *every* inner scheme's hook — estimators prepare
    per-application state there, and a dormant scheme must be ready to
    take over mid-run — but only the active scheme's profiling charge
    sticks on the application and only its delay is returned.
    """

    def __init__(self, schemes: dict[str, Scheduler], *,
                 primary: str, fallback: str,
                 window_min: float = 60.0,
                 churn_enter: int = 2, churn_exit: int = 0,
                 straggler_enter: int = 2,
                 pressure_enter: float = 0.55, pressure_exit: float = 0.35,
                 dwell_min: float = 15.0,
                 monitor: ContextMonitor | None = None) -> None:
        if primary not in schemes or fallback not in schemes:
            raise ValueError(
                f"primary {primary!r} and fallback {fallback!r} must both "
                f"name wrapped schemes {tuple(schemes)}")
        if primary == fallback:
            raise ValueError("primary and fallback must differ")
        if churn_exit >= churn_enter:
            raise ValueError("hysteresis needs churn_exit < churn_enter")
        if not 0.0 < pressure_exit < pressure_enter <= 1.0:
            raise ValueError(
                "hysteresis needs 0 < pressure_exit < pressure_enter <= 1")
        if dwell_min < 0:
            raise ValueError("dwell_min cannot be negative")
        self.schemes = dict(schemes)
        self.primary = primary
        self.fallback = fallback
        self.active_name = primary
        self.churn_enter = churn_enter
        self.churn_exit = churn_exit
        self.straggler_enter = straggler_enter
        self.pressure_enter = pressure_enter
        self.pressure_exit = pressure_exit
        self.dwell_min = dwell_min
        self.monitor = monitor or ContextMonitor(window_min)
        self.last_switch_min = -math.inf
        self.switch_count = 0

    # ------------------------------------------------------------------
    # Delegation to the active inner scheme
    # ------------------------------------------------------------------
    @property
    def active(self) -> Scheduler:
        """The inner scheme currently making decisions."""
        return self.schemes[self.active_name]

    @property
    def allocation_policy(self):
        """The *active* scheme's live dynamic-allocation policy."""
        return getattr(self.active, "allocation_policy", None)

    def on_submit(self, ctx: SchedulingContext,
                  app: SparkApplication) -> float:
        self.monitor.attach(ctx.events)
        for name, scheme in self.schemes.items():
            if name != self.active_name:
                scheme.on_submit(ctx, app)
        # Only the active scheme's profiling charge may stick: clear
        # whatever a dormant estimator wrote, then let the active hook
        # (re)write its own cost as the last writer.
        app.feature_extraction_min = 0.0
        app.calibration_min = 0.0
        return self.active.on_submit(ctx, app)

    def schedule(self, ctx: SchedulingContext) -> None:
        self.monitor.attach(ctx.events)
        self._maybe_switch(ctx)
        self.active.schedule(ctx)

    def score_batch(self, ctx: SchedulingContext, app: SparkApplication,
                    features: NodeFeatures) -> np.ndarray | None:
        return self.active.score_batch(ctx, app, features)

    def on_cluster_change(self, ctx: SchedulingContext, event) -> None:
        # Live notifications reach only the active scheme; a dormant
        # scheme gets the synthetic replay at switch-in instead.
        self.active.on_cluster_change(ctx, event)

    def next_wake_min(self, now: float) -> float:
        """Active scheme's deadline, plus every time-driven flip instant.

        The decision rule can change *between events* in exactly two
        ways — the oldest windowed churn event ages out, or the dwell
        period expires — so both are folded in here; the event engine
        then wakes at (the grid alignment of) each, keeping the switch
        trajectory identical to the fixed-step engine's.
        """
        wake = self.active.next_wake_min(now)
        wake = min(wake, self.monitor.next_age_out(now))
        dwell_expiry = self.last_switch_min + self.dwell_min
        if now < dwell_expiry:
            wake = min(wake, dwell_expiry)
        return wake

    # ------------------------------------------------------------------
    # The hysteresis switch rule
    # ------------------------------------------------------------------
    def signals(self, ctx: SchedulingContext) -> ContextSignals:
        """The monitor's decision-time snapshot (exposed for telemetry)."""
        return self.monitor.signals(ctx)

    def _desired(self, signals: ContextSignals) -> tuple[str, str]:
        """Map signals to (desired scheme, human-readable reason).

        Churn and stragglers say the *cluster* is degrading; memory
        pressure says the *workload* regime is memory-bound.  The latter
        matters because the fallback can mask the churn trigger (a
        cautious policy stops the OOM kills that tripped it), whereas
        reserved-memory pressure stays high for as long as the
        memory-hungry regime itself lasts.
        """
        stressed = (signals.churn_events >= self.churn_enter
                    or signals.straggler_count >= self.straggler_enter
                    or signals.memory_pressure >= self.pressure_enter)
        if self.active_name == self.primary:
            if stressed:
                return self.fallback, (
                    f"churn={signals.churn_events} "
                    f"stragglers={signals.straggler_count} "
                    f"pressure={signals.memory_pressure:.2f}")
            return self.primary, ""
        calm = (signals.churn_events <= self.churn_exit
                and signals.straggler_count == 0
                and signals.memory_pressure <= self.pressure_exit)
        if calm:
            return self.primary, (
                f"calm: churn={signals.churn_events} stragglers=0 "
                f"pressure={signals.memory_pressure:.2f}")
        return self.fallback, ""

    def _maybe_switch(self, ctx: SchedulingContext) -> None:
        if ctx.now < self.last_switch_min + self.dwell_min:
            return  # hysteresis dwell: too soon since the last swap
        signals = self.monitor.signals(ctx)
        desired, reason = self._desired(signals)
        if desired != self.active_name:
            self._switch(ctx, desired, reason)

    def _switch(self, ctx: SchedulingContext, to_name: str,
                reason: str) -> None:
        event = SchemeSwitched(time=ctx.now, from_scheme=self.active_name,
                               to_scheme=to_name, reason=reason)
        self.active_name = to_name
        self.last_switch_min = ctx.now
        self.switch_count += 1
        ctx.events.publish(event)
        # Switch-replay rule: the incoming scheme slept through an
        # arbitrary amount of churn, so hand it the switch event through
        # the same hook the fault controller uses — it re-derives its
        # executor cap from the live up_count and drops any caches tied
        # to the pre-switch topology.
        self.schemes[to_name].on_cluster_change(ctx, event)


def build_meta_scheduler(artefacts, *,
                         schemes: tuple[str, ...] | None = None,
                         primary: str | None = None,
                         fallback: str | None = None,
                         window_min: float = 60.0,
                         churn_enter: int = 2, churn_exit: int = 0,
                         straggler_enter: int = 2,
                         pressure_enter: float = 0.55,
                         pressure_exit: float = 0.35,
                         dwell_min: float = 15.0,
                         **scheduler_kwargs) -> MetaScheduler:
    """Build a :class:`MetaScheduler` over registry-built inner schemes.

    The default pairing — aggressive ``pairwise`` as primary, the
    paper's predictive ``ours`` as fallback — is the empirically
    strongest on the regime-shift scenarios: pairwise's free-memory
    grants win while jobs are small (no profiling delay), and the
    moment reserved-memory pressure or OOM churn says the workload
    turned memory-bound, the predictive scheme takes over before the
    interference compounds.  ``schemes`` overrides the wrapped set
    (e.g. ``("learned", "isolated")``); ``primary``/``fallback``
    default to its first/last entries.  ``scheduler_kwargs`` (the
    scenario runner passes ``allocation_policy``) are forwarded to
    every inner builder, so each inner scheme owns its own live policy
    reference.
    """
    from repro.scheduling.registry import build_scheduler

    names = tuple(schemes) if schemes else ("pairwise", "ours")
    if len(set(names)) < 2:
        raise ValueError("meta needs at least two distinct inner schemes")
    inners = {name: build_scheduler(name, artefacts, **scheduler_kwargs)
              for name in names}
    return MetaScheduler(
        inners,
        primary=primary if primary is not None else names[0],
        fallback=fallback if fallback is not None else names[-1],
        window_min=window_min, churn_enter=churn_enter,
        churn_exit=churn_exit, straggler_enter=straggler_enter,
        pressure_enter=pressure_enter, pressure_exit=pressure_exit,
        dwell_min=dwell_min)
