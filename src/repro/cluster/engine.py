"""Simulation engines that advance the cluster through simulated time.

* :class:`EventDrivenEngine` drives every
  :class:`~repro.cluster.simulator.ClusterSimulator` run.  Between
  scheduler invocations nothing changes the per-executor progress rates
  (footprints follow the *assigned* data, which only schedulers alter, and
  contention factors follow node membership), so the engine analytically
  computes the next state-changing event — earliest executor finish, job
  arrival, profiling-ready transition, a dynamic-cluster fault event, a
  scheduler-requested wake-up, or the rescan tick that bounds how stale a
  waiting queue may become — and jumps simulated time directly to it.
  Out-of-memory kills and paging transitions can only occur when node
  membership changes, so they are resolved instantaneously right after
  each scheduler invocation; an epoch that kills wakes again on the next
  grid step, where the fixed-step reference re-runs the killed data and
  re-places on the freed memory.
* :class:`FixedStepEngine` is the reference the event engine is checked
  against: every ``time_step_min`` of simulated time the scheduler is
  consulted and every executor advances by one step.  No public option
  selects it; the parity tests and the golden traces reach it through a
  simulator subclass that sets ``engine_type = FixedStepEngine``.

The **lifecycle of one scheduling epoch is shared**: :meth:`_EngineBase.run`
owns the loop — job arrivals, dynamic-cluster fault application, OOM
re-runs, the scheduler invocation, completion finalisation — and each
engine contributes only its :meth:`_advance_epoch`, i.e. how simulated
time moves between epochs.  Both engines therefore publish the *same*
typed events on the simulator's event bus at the same times; everything
downstream (resource monitor, streaming metrics, fault telemetry) is an
engine-agnostic subscriber.

Every event time is rounded **up to the ``time_step_min`` grid**, which is
where executor finishes land under the fixed-step engine and hence where
schedulers observe freed resources.  Because reservations, footprints,
node speeds and contention factors are all piecewise-constant between
scheduler invocations — fault events are themselves grid-aligned epochs —
the grid-aligned jumps reproduce the fixed-step trajectory — placements,
failures, finish times, and the CPU and utilisation samples — while
skipping every step at which nothing can change.  Memory samples are
identical on static clusters; under faults they agree to ``rel=1e-9``
(the tolerance the parity tests check), because a killed executor's
unprocessed share, which the fixed-step engine accumulates step by step
and this engine in jumps, can differ in its last bits.

Both engines run their per-epoch hot loops as reductions over the
structured arrays of :class:`~repro.cluster.state.ClusterState`: capacity
accounting, progress advancement and utilization sampling are column
operations, and the epoch bookkeeping that scans every application
(completion finalisation, profiling-ready and rescan wake-points) runs over
incrementally maintained candidate sets.  The committed golden traces
(``tests/golden/``) pin both engines' event streams bit for bit.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.events import (
    ClusterSample,
    EventKind,
    ExecutorFinished,
    ExecutorOOM,
    SampleBatch,
    SchedulerWake,
)
from repro.spark.application import ApplicationState
from repro.spark.executor import Executor, ExecutorState

__all__ = ["FixedStepEngine", "EventDrivenEngine"]

#: Grid steps one event-engine jump may span while work is queued.
RESCAN_STEPS = 5


def _in_order_sum(values) -> float:
    """Add ``values`` left to right, the order ``np.bincount`` adds a bin.

    The per-node OOM paths total each node this way so they match the
    column reductions bit for bit; ``sum()`` compensates float rounding
    from Python 3.12 and would not.
    """
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass
class _Snapshot:
    """Per-node dynamics of one epoch, computed from the state arrays.

    All per-node columns are full-length (one entry per node, id order);
    the per-executor columns are restricted to the active slots.
    """

    act: np.ndarray          # active executor slots, ascending (= spawn order)
    node_of: np.ndarray      # node slot of each active executor
    counts: np.ndarray       # active executors per node
    total_memory: np.ndarray  # aggregate resident footprint per node (GB)
    total_cpu: np.ndarray    # aggregate CPU demand per node
    cpu_factor: np.ndarray
    memory_factor: np.ndarray
    bandwidth_factor: np.ndarray
    speed: np.ndarray
    paging: np.ndarray       # bool per node
    utilization: np.ndarray  # effective CPU utilisation per node, percent


class _EngineBase:
    """The shared scheduling-epoch lifecycle.

    The engine owns the *dynamics* of a simulation — how executors make
    progress and how failures are resolved — while the simulator owns the
    *state*: cluster, applications, event bus and result assembly.  The
    epoch loop lives here once; subclasses implement only
    :meth:`_advance_epoch` (and may override :meth:`_within_horizon` for
    their numerically exact loop bound).
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        # Wall-clock seconds per lifecycle phase, accumulated across the
        # run (reset in ``_start``).  Two ``perf_counter`` calls per phase
        # per epoch — noise next to any phase's actual work — so the
        # breakdown is always on and the throughput benchmark just reads
        # it.  ``schedule`` stays zero when :meth:`epochs` is consumed
        # directly (the gym env times its external policy itself).
        # ``oom`` covers the isolated re-run of OOM-killed data plus the
        # wake publish; ``advance`` covers time advancement *and* the
        # completion-finalisation/termination checks that close an epoch,
        # so the keys partition the epoch loop's wall-clock.
        self.phase_seconds: dict[str, float] = {
            "arrivals": 0.0, "faults": 0.0, "oom": 0.0, "schedule": 0.0,
            "advance": 0.0}
        # Completion tracking: apps that might have become complete since
        # the last finalisation pass.  Fed by the bus (an executor
        # finishing is the only way an app's remaining work can reach
        # zero; submission covers degenerate already-complete inputs), so
        # finalisation touches candidates instead of every application
        # every epoch.
        self._completion_candidates: set[str] = set()
        self._n_finished = 0
        sim.events.subscribe(self._on_completion_event,
                             kinds=(EventKind.EXECUTOR_FINISHED,
                                    EventKind.APP_SUBMITTED))

    def _on_completion_event(self, event) -> None:
        if event.app is not None:
            self._completion_candidates.add(event.app)

    # ------------------------------------------------------------------
    # The unified lifecycle loop
    # ------------------------------------------------------------------
    def run(self, context) -> float:
        """Drive the simulation to completion; returns the final time.

        The native path: at every wake-point the simulator's installed
        scheduler is consulted.  :class:`repro.env.SchedulingEnv` consumes
        :meth:`epochs` directly instead, substituting an external policy's
        decision for the ``schedule()`` call — same lifecycle, different
        decision-maker.
        """
        epochs = self.epochs(context)
        phases = self.phase_seconds
        while True:
            try:
                next(epochs)
            except StopIteration as stop:
                return stop.value
            t0 = time.perf_counter()
            self.sim.scheduler.schedule(context)
            phases["schedule"] += time.perf_counter() - t0

    def epochs(self, context):
        """Generator over scheduling epochs: the resumable wake-point loop.

        Yields the current simulated time right after the
        ``SCHEDULER_WAKE`` event is published — i.e. at the exact point
        the scheduler would be consulted.  The consumer makes its
        placement decisions while the generator is suspended (through the
        :class:`~repro.cluster.simulator.SchedulingContext`), then
        resumes it to advance simulated time to the next epoch.  The
        generator's return value (``StopIteration.value``) is the final
        simulated time.
        """
        sim = self.sim
        now = 0.0
        phases = self.phase_seconds
        self._start(context)
        while self._within_horizon(now):
            context.now = now
            t0 = time.perf_counter()
            sim.process_arrivals(context, now)
            t1 = time.perf_counter()
            phases["arrivals"] += t1 - t0
            sim.apply_faults(context, now)
            t2 = time.perf_counter()
            phases["faults"] += t2 - t1
            self.rerun_oom_data_in_isolation(context)
            sim.events.publish(SchedulerWake(time=now))
            phases["oom"] += time.perf_counter() - t2
            yield now
            t0 = time.perf_counter()
            next_now = self._advance_epoch(context, now)
            if next_now is None:
                # No executor running, nothing queued, nothing pending:
                # the remaining applications finished this very epoch.
                phases["advance"] += time.perf_counter() - t0
                break
            now = next_now
            self.finalize_completed_apps(now)
            done = not sim.has_pending_jobs() and self._all_finished()
            phases["advance"] += time.perf_counter() - t0
            if done:
                break
        return now

    def _start(self, context) -> None:
        """Hook: reset per-run engine state before the first epoch."""
        for phase in self.phase_seconds:
            self.phase_seconds[phase] = 0.0
        self._completion_candidates.clear()
        self._n_finished = sum(
            1 for app in self.sim.submission_order
            if app.state is ApplicationState.FINISHED)

    def _within_horizon(self, now: float) -> bool:
        return now < self.sim.max_time_min

    def _advance_epoch(self, context, now: float) -> float | None:
        """Advance simulated time past one scheduling epoch.

        Returns the new simulated time, or ``None`` when nothing can
        ever change again (the run is over).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared recovery / completion logic
    # ------------------------------------------------------------------
    def rerun_oom_data_in_isolation(self, context) -> None:
        """Re-run data from OOM-killed executors on idle nodes, in isolation.

        The replacement executor gets the node to itself and a reservation of
        the node's full RAM, mirroring the paper's recovery policy; only as
        much data as provably fits the node is handed out per replacement.
        """
        sim = self.sim
        for app_name, pending_gb in list(sim.oom_retry_gb.items()):
            if pending_gb <= 1e-9:
                # Fully re-queued: drop the entry so the per-epoch scans
                # (rescan wake-points, completion guards) stay O(pending)
                # instead of accumulating every app that ever OOMed.
                del sim.oom_retry_gb[app_name]
                continue
            app = sim.apps[app_name]
            spec = sim.specs[app_name]
            for node in sim.cluster.idle_nodes():
                if pending_gb <= 1e-9:
                    break
                safe_gb = spec.data_for_budget_gb(node.ram_gb * 0.9,
                                                  max_gb=pending_gb)
                chunk = min(pending_gb, max(safe_gb, 0.1))
                app.return_unassigned(chunk)
                executor = context.spawn_executor(app, node.node_id,
                                                  node.ram_gb, chunk)
                if executor is None:
                    app.take_unassigned(chunk)
                    continue
                pending_gb -= chunk
            if pending_gb <= 1e-9:
                del sim.oom_retry_gb[app_name]
            else:
                sim.oom_retry_gb[app_name] = pending_gb

    def finalize_completed_apps(self, now: float) -> None:
        """Mark applications whose every gigabyte has been processed.

        Candidates are visited in submission order, so simultaneous
        completions are recorded in the order the applications arrived.
        """
        sim = self.sim
        candidates = self._completion_candidates
        if not candidates:
            return
        index_of = sim.submission_index
        for name in sorted(candidates, key=index_of.__getitem__):
            app = sim.apps[name]
            if app.state is ApplicationState.FINISHED:
                candidates.discard(name)
                continue
            if sim.oom_retry_gb.get(name, 0.0) > 1e-9:
                # Blocked on the isolated re-run queue; stays a
                # candidate until the retry data drains.
                continue
            if app.is_complete():
                # Account for the fixed startup cost once, at completion;
                # it is small relative to execution time.
                app.mark_finished(now + sim.specs[name].startup_min)
                sim.events.record(app.finish_time, EventKind.APP_FINISHED,
                                  app=name)
                self._n_finished += 1
            candidates.discard(name)

    def _all_finished(self) -> bool:
        return self._n_finished == len(self.sim.submission_order)

    def _resolve_node_oom(self, node, now: float, footprint_of):
        """Kill the most recently placed executors until the node fits.

        Out-of-memory handling shared by both engines: while the
        aggregate ground-truth footprint exceeds RAM + swap and at least
        two executors co-run, the executor with the largest id (the most
        recently placed) fails, its unprocessed data is booked for the
        isolated re-run queue, and the node is re-evaluated.  Returns the
        surviving active executors and their total resident footprint.
        """
        sim = self.sim
        active = node.active_executors()
        total_memory = _in_order_sum(footprint_of(e) for e in active)
        while total_memory > node.ram_gb + node.swap_gb and len(active) > 1:
            victim = max(active, key=lambda e: e.executor_id)
            lost = victim.fail_out_of_memory()
            sim.oom_retry_gb[victim.app_name] = (
                sim.oom_retry_gb.get(victim.app_name, 0.0) + lost
            )
            node.remove_executor(victim)
            sim.events.publish(ExecutorOOM(
                time=now, app=victim.app_name, node_id=node.node_id,
                lost_gb=lost))
            active = node.active_executors()
            total_memory = _in_order_sum(footprint_of(e) for e in active)
        return active, total_memory

    # ------------------------------------------------------------------
    # Per-epoch dynamics over the state arrays (shared by both engines)
    # ------------------------------------------------------------------
    def _snapshot(self) -> _Snapshot:
        """Compute every node's frozen dynamics from the state arrays.

        Per-node sums use ``np.bincount``, whose per-bin accumulation is
        sequential in input order — slot order, which equals each node's
        executor insertion order — so the sums are bit-for-bit what the
        per-node OOM paths' :func:`_in_order_sum` computes.
        """
        sim = self.sim
        state = sim.cluster.state
        state.refresh_dirty()
        n = state.n_nodes
        nodes = state.nodes_view()
        ex = state.execs_view()
        act = state.active_slots()
        node_of = ex["node_slot"][act]
        if act.size:
            # Engine-owned memo columns: the benchmark's progress rate and
            # the ground-truth footprint of the currently assigned share.
            # NaN keys (never filled) compare unequal to everything, so a
            # fresh slot or a grown share recomputes exactly once.
            assigned = ex["assigned_gb"]
            stale = act[ex["footprint_key_gb"][act] != assigned[act]]
            if stale.size:
                exec_objs = state.exec_objs
                specs = sim.specs
                for slot in stale.tolist():
                    spec = specs[exec_objs[slot].app_name]
                    share = float(assigned[slot])
                    ex["footprint_gb"][slot] = spec.true_footprint_gb(share)
                    ex["footprint_key_gb"][slot] = share
                    ex["rate_gb_per_min"][slot] = spec.rate_gb_per_min
        counts = np.bincount(node_of, minlength=n)
        total_memory = np.bincount(node_of, weights=ex["footprint_gb"][act],
                                   minlength=n)
        total_cpu = nodes["reserved_cpu"].copy()
        cpu_factor = np.ones(n)
        over = total_cpu > 1.0
        if over.any():
            cpu_factor[over] = 1.0 / total_cpu[over]
        paging = total_memory > nodes["ram_gb"]
        memory_factor = np.where(paging, sim.interference.paging_slowdown, 1.0)
        bandwidth_factor = np.ones(n)
        multi = counts > 1
        if multi.any():
            bandwidth_factor[multi] = np.maximum(
                sim.interference.bandwidth_floor,
                1.0 - sim.interference.bandwidth_alpha * (counts[multi] - 1))
        utilization = np.minimum(total_cpu, 1.0) * cpu_factor * 100.0
        return _Snapshot(
            act=act, node_of=node_of, counts=counts,
            total_memory=total_memory, total_cpu=total_cpu,
            cpu_factor=cpu_factor, memory_factor=memory_factor,
            bandwidth_factor=bandwidth_factor, speed=nodes["speed"],
            paging=paging, utilization=utilization)

    def _samples(self, snap: _Snapshot) -> SampleBatch:
        """The per-node usage sample batch for one ``ClusterSample`` event.

        The id list is copied because node joins append to the state's
        list in place, while a published batch must keep describing the
        nodes it sampled.
        """
        return SampleBatch(list(self.sim.cluster.state.node_ids),
                           snap.total_memory,
                           np.minimum(snap.total_cpu, 1.0),
                           snap.utilization)

    def _oom_flags(self, snap: _Snapshot) -> np.ndarray:
        """Node slots whose co-running footprints exhausted RAM + swap."""
        nodes = self.sim.cluster.state.nodes_view()
        flagged = ((snap.counts > 1)
                   & (snap.total_memory > nodes["ram_gb"] + nodes["swap_gb"]))
        return np.flatnonzero(flagged)

    def _footprint(self, executor: Executor) -> float:
        """Memoised ground-truth footprint, read from the state arrays."""
        state = self.sim.cluster.state
        return float(state._exec["footprint_gb"][executor._slot])


class FixedStepEngine(_EngineBase):
    """Advance time in constant ``time_step_min`` increments.

    The reference trajectory of :class:`EventDrivenEngine`; see the module
    docstring for how the tests select it.
    """

    def _advance_epoch(self, context, now: float) -> float:
        self._advance_executors(now)
        return now + self.sim.time_step_min

    def _advance_executors(self, now: float) -> None:
        """One fixed step as array reductions, node-major event order.

        Steps on which some node exhausted RAM + swap fall back to
        :meth:`_advance_oom_step`: OOM resolution interleaves
        kill/paging/finish events per node, and replaying that exact
        interleaving is worth more than vectorizing the rare step that
        contains it.
        """
        sim = self.sim
        state = sim.cluster.state
        snap = self._snapshot()
        if self._oom_flags(snap).size:
            self._advance_oom_step(now)
            return
        dt = sim.time_step_min
        ex = state.execs_view()
        act = snap.act
        node_of = snap.node_of
        fin_by_node: dict[int, list[int]] = {}
        if act.size:
            # The paper's rate composition, in the fixed engine's exact
            # association order: (((rate * cpu) * mem) * bw) * speed.
            rates = ex["rate_gb_per_min"][act] * snap.cpu_factor[node_of]
            rates *= snap.memory_factor[node_of]
            rates *= snap.bandwidth_factor[node_of]
            rates *= snap.speed[node_of]
            assigned = ex["assigned_gb"][act]
            new_processed = np.minimum(ex["processed_gb"][act] + rates * dt,
                                       assigned)
            ex["processed_gb"][act] = new_processed
            finished = np.flatnonzero((assigned - new_processed) <= 1e-9)
            for i in finished.tolist():
                fin_by_node.setdefault(int(node_of[i]), []).append(int(act[i]))
        eventful = set(fin_by_node)
        eventful.update(np.flatnonzero(snap.paging).tolist())
        for node_slot in sorted(eventful):
            node = state.node_objs[node_slot]
            if snap.paging[node_slot]:
                sim.events.record(now, EventKind.NODE_PAGING,
                                  node_id=node.node_id)
            for slot in fin_by_node.get(node_slot, ()):
                executor = state.exec_objs[slot]
                executor.state = ExecutorState.FINISHED
                node.remove_executor(executor)
                sim.events.publish(ExecutorFinished(
                    time=now + dt, app=executor.app_name,
                    node_id=node.node_id))
        sim.events.publish(ClusterSample(time=now, times=(now,),
                                         samples=self._samples(snap)))

    def _advance_oom_step(self, now: float) -> None:
        """One fixed step node by node, for steps with an OOM kill.

        Each node resolves its kills, records paging and publishes its
        finishes before the next node is visited.
        """
        sim = self.sim
        dt = sim.time_step_min
        # One usage sample per node per step, published as one batch of
        # columns like every other epoch's; idle nodes sample zero.
        n = len(sim.cluster.nodes)
        memory, cpu, util = np.zeros(n), np.zeros(n), np.zeros(n)
        for slot, node in enumerate(sim.cluster.nodes):
            active = node.active_executors()
            if not active:
                continue

            active, total_memory = self._resolve_node_oom(
                node, now,
                lambda e: sim.specs[e.app_name].true_footprint_gb(e.cached_gb()))

            total_cpu = _in_order_sum(e.cpu_demand for e in active)
            cpu_factor = 1.0 if total_cpu <= 1.0 else 1.0 / total_cpu
            paging = total_memory > node.ram_gb
            if paging:
                sim.events.record(now, EventKind.NODE_PAGING,
                                  node_id=node.node_id)
            memory_factor = sim.interference.paging_slowdown if paging else 1.0
            bandwidth_factor = sim.interference.bandwidth_factor(len(active))
            speed_factor = node.speed_factor

            for executor in list(active):
                spec = sim.specs[executor.app_name]
                rate = (spec.rate_gb_per_min * cpu_factor * memory_factor
                        * bandwidth_factor * speed_factor)
                executor.advance(rate * dt)
                if executor.state is ExecutorState.FINISHED:
                    node.remove_executor(executor)
                    sim.events.publish(ExecutorFinished(
                        time=now + dt, app=executor.app_name,
                        node_id=node.node_id))

            load = min(total_cpu, 1.0)
            memory[slot], cpu[slot] = total_memory, load
            util[slot] = load * cpu_factor * 100.0
        sim.events.publish(ClusterSample(
            time=now, times=(now,),
            samples=SampleBatch(list(sim.cluster.state.node_ids),
                                memory, cpu, util)))


class EventDrivenEngine(_EngineBase):
    """Jump simulated time directly to the next state-changing event.

    While applications wait for resources (or OOM data awaits an idle
    node), one jump spans at most :data:`RESCAN_STEPS` grid steps.  That
    bounds how long a queued application can be ignored between resource
    events, covering schedulers whose decisions depend on slowly changing
    state such as the windowed resource monitor.
    """

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self._sample_idx = 0

    # ------------------------------------------------------------------
    # Epoch advancement
    # ------------------------------------------------------------------
    def _start(self, context) -> None:
        super()._start(context)
        self._sample_idx = 0  # next uniform sample grid index (= idx * dt)

    def _within_horizon(self, now: float) -> bool:
        return now < self.sim.max_time_min - 1e-9

    def _advance_epoch(self, context, now: float) -> float | None:
        """One event-driven epoch over the state arrays.

        OOM kills right after the placement decisions (footprints only
        change when node membership or an executor's data share does,
        which happens exclusively inside scheduler invocations), paging
        records, the wake-point minimum, interval samples, then progress
        advancement with finish events in node-major order.
        """
        sim = self.sim
        state = sim.cluster.state
        eps = 1e-9
        snap = self._snapshot()
        oom_nodes = self._oom_flags(snap)
        # The kills free memory and queue data for the isolated re-run,
        # which the fixed engine acts on one grid step later.
        after_kill = math.inf
        if oom_nodes.size:
            for node_slot in oom_nodes.tolist():
                self._resolve_node_oom(state.node_objs[node_slot], now,
                                       self._footprint)
            snap = self._snapshot()
            after_kill = self._align(now, now)
        # Paging transitions are recorded per node in id order.
        for node_slot in np.flatnonzero(snap.paging).tolist():
            sim.events.record(now, EventKind.NODE_PAGING,
                              node_id=state.node_ids[node_slot])
        ex = state.execs_view()
        act = snap.act
        rates = remaining = None
        if act.size:
            # The event engine's association order:
            # rate = spec.rate * (((cpu * mem) * bw) * speed).
            factor = snap.cpu_factor * snap.memory_factor
            factor *= snap.bandwidth_factor
            factor *= snap.speed
            rates = ex["rate_gb_per_min"][act] * factor[snap.node_of]
            remaining = np.maximum(
                ex["assigned_gb"][act] - ex["processed_gb"][act], 0.0)
            next_finish = self._align(
                now + float(np.min(remaining / rates)), now)
        else:
            next_finish = math.inf
        t_next = min(next_finish,
                     after_kill,
                     self._next_arrival(now),
                     self._next_profiling_ready(now),
                     self._next_fault(now),
                     self._scheduler_wake(now),
                     self._rescan_tick(now),
                     sim.max_time_min)
        if not math.isfinite(t_next):
            return None
        if t_next <= now + eps:  # safety net; events are strictly future
            t_next = now + sim.time_step_min
        times, self._sample_idx = self._sample_times(t_next, self._sample_idx)
        if times:
            sim.events.publish(ClusterSample(time=now, times=tuple(times),
                                             samples=self._samples(snap)))
        if act.size:
            delta = t_next - now
            assigned = ex["assigned_gb"][act]
            new_processed = np.minimum(ex["processed_gb"][act] + rates * delta,
                                       assigned)
            ex["processed_gb"][act] = new_processed
            finished = np.flatnonzero((assigned - new_processed) <= 1e-9)
            if finished.size:
                # Publish finishes in node-major order: stable sort by
                # node keeps slot (= insertion) order within one.
                order = np.argsort(snap.node_of[finished], kind="stable")
                fin_slots = act[finished]
                fin_nodes = snap.node_of[finished]
                for i in order.tolist():
                    executor = state.exec_objs[int(fin_slots[i])]
                    node = state.node_objs[int(fin_nodes[i])]
                    executor.state = ExecutorState.FINISHED
                    node.remove_executor(executor)
                    sim.events.publish(ExecutorFinished(
                        time=t_next, app=executor.app_name,
                        node_id=node.node_id))
        return t_next

    # ------------------------------------------------------------------
    # Event horizon
    # ------------------------------------------------------------------
    def _align(self, t: float, now: float) -> float:
        """Round an event time up to the ``time_step_min`` grid, after ``now``.

        The fixed-step engine only observes state at grid points, so grid
        alignment is what makes the two engines produce the same
        trajectory instead of merely similar ones.
        """
        if not math.isfinite(t):
            return t
        dt = self.sim.time_step_min
        aligned = math.ceil(t / dt - 1e-9) * dt
        if aligned <= now + 1e-9:
            aligned = (math.floor(now / dt + 1e-9) + 1) * dt
        return aligned

    def _next_arrival(self, now: float) -> float:
        """Earliest future job arrival, grid-aligned.

        Arrival times are known up front, so they are analytic events: the
        engine jumps straight to the grid step at which the fixed-step
        engine would first observe the new job in the queue.
        """
        arrival = self.sim.next_arrival_min()
        if arrival is None:
            return math.inf
        return self._align(arrival, now)

    def _next_fault(self, now: float) -> float:
        """Earliest pending dynamic-cluster event, grid-aligned.

        The fault timeline is realized before the first epoch (plus
        follow-ups scheduled deterministically at apply time), so fault
        events are analytic exactly like arrivals: the engine jumps to
        the grid step at which the fixed-step engine would apply them.
        """
        return self._align(self.sim.next_fault_min(), now)

    def _next_profiling_ready(self, now: float) -> float:
        """Earliest future profiling-window expiry of an unfinished app."""
        sim = self.sim
        # Lazy-deletion heap maintained at submission: entries whose
        # expiry has passed (simulated time never rewinds within a run) or
        # whose app finished are popped for good.
        heap = sim.profiling_heap
        while heap:
            t, name = heap[0]
            if (t <= now + 1e-9
                    or sim.apps[name].state is ApplicationState.FINISHED):
                heapq.heappop(heap)
                continue
            return self._align(t, now)
        return math.inf

    def _scheduler_wake(self, now: float) -> float:
        """Next wake-up the scheduler itself asks for (e.g. search trials)."""
        wake = getattr(self.sim.scheduler, "next_wake_min", None)
        if wake is None:
            return math.inf
        return self._align(float(wake(now)), now)

    def _rescan_tick(self, now: float) -> float:
        """Bound the jump while work is queued for resources.

        Waiting applications (ready, with unassigned data) and pending OOM
        re-runs may become schedulable for reasons no analytic event
        captures — a scheduler consulting the sliding monitor window, say —
        so the engine re-invokes the scheduler at least every
        :data:`RESCAN_STEPS` grid steps while such work exists.
        """
        sim = self.sim
        # ``oom_retry_gb`` holds only unfinished apps (finalisation is
        # blocked while a re-run is pending and entries are dropped once
        # drained), and ``any_waiting`` applies the ready/unassigned/
        # finished tests over the APP_DTYPE columns.
        if (any(gb > 1e-9 for gb in sim.oom_retry_gb.values())
                or sim.cluster.state.any_waiting(now)):
            return self._align(now + RESCAN_STEPS * sim.time_step_min, now)
        return math.inf

    # ------------------------------------------------------------------
    # Uniform sample grid
    # ------------------------------------------------------------------
    def _sample_times(self, t1: float, sample_idx: int) -> tuple[list, int]:
        """Uniform sample-grid points strictly before ``t1``."""
        dt = self.sim.time_step_min
        times = []
        t = sample_idx * dt
        while t < t1 - 1e-9:
            times.append(t)
            sample_idx += 1
            t = sample_idx * dt
        return times, sample_idx
