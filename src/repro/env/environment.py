"""The gym-style scheduling environment over the event kernel.

:class:`SchedulingEnv` re-layers the event-driven engine's epoch loop as a
``reset``/``step`` decision process: the simulation pauses at every
``SCHEDULER_WAKE`` epoch (the engine's resumable
:meth:`~repro.cluster.engine._EngineBase.epochs` generator), the caller
chooses executor placements, and the environment resumes the kernel to
the next wake-point.  Everything else — arrivals, faults, OOM re-runs,
progress dynamics, metrics subscribers — is untouched mechanism: the
environment swaps only the *decision-maker*, mirroring the policy-free
middleware separation of mechanism from policy.

Because the pause point is exactly where the native loop consults the
installed scheduler, delegating every epoch back to a registered scheme
(:class:`repro.env.PolicyAdapter` via :meth:`Action.native`) reproduces
the native engine path bit-for-bit — same placements, same event stream,
same STP/ANTT — which is what proves the environment is a re-layering,
not a fork.
"""

from __future__ import annotations

from repro._checks import require_finite
from repro.cluster.events import EventKind
from repro.cluster.simulator import ClusterSimulator, SimulationResult
from repro.env.actions import Action, InvalidActionError, validate_placement
from repro.env.observations import Observation, ObservationBuilder
from repro.metrics.throughput import StreamingScheduleMetrics, baseline_antt
from repro.scenarios.registry import load_scenario
from repro.scheduling.base import Scheduler
from repro.spark.driver import DynamicAllocationPolicy

__all__ = ["REWARD_KINDS", "OBS_MODES", "SchedulingEnv",
           "EpisodeNotDoneError"]

#: Reward shapes understood by :class:`SchedulingEnv`.
REWARD_KINDS: tuple[str, ...] = ("stp_delta", "antt_delta")

#: Observation modes: the typed-dataclass parity oracle, or the
#: array-backed fast path handing out ``FeatureObservation``s.
OBS_MODES: tuple[str, ...] = ("dataclass", "features")


class EpisodeNotDoneError(RuntimeError):
    """Episode-level results were requested before the episode ended."""


class _EnvHookScheduler(Scheduler):
    """The mechanism-hook stand-in installed for non-native policies.

    The environment never lets the engine invoke ``schedule()`` (it
    consumes the epoch generator itself), but the simulator still calls
    the scheduler's lifecycle hooks — ``on_submit`` at arrivals,
    ``on_cluster_change`` from the fault controller, ``next_wake_min``
    from the event engine — so a real :class:`Scheduler` with the
    topology-derived allocation policy sits in the slot, behaving
    exactly like a native prediction-free scheme's hooks.
    """

    def __init__(self, allocation_policy: DynamicAllocationPolicy) -> None:
        self.allocation_policy = allocation_policy

    def schedule(self, ctx) -> None:  # pragma: no cover - env drives epochs
        """No-op: placement decisions come from the environment's policy."""


class _RewardTracker:
    """Streaming reward accumulator: an APP_FINISHED bus subscriber.

    ``stp_delta`` credits each finishing job with its STP contribution
    ``C_is / C_cl`` — episode return equals the schedule's final STP.
    ``antt_delta`` charges ``-(C_cl / C_is) / n_jobs`` per finish —
    episode return equals ``-ANTT``.  Both are pure functions of the
    per-job isolated references (the nominal-platform yardstick used by
    the headline metrics) and the streamed finish times.
    """

    def __init__(self, kind: str,
                 metrics: StreamingScheduleMetrics) -> None:
        if kind not in REWARD_KINDS:
            raise ValueError(f"unknown reward kind {kind!r}; expected one "
                             f"of {REWARD_KINDS}")
        self.kind = kind
        # Share the per-job yardsticks the metrics subscriber already
        # computed: one source of truth for names and references.
        per_job = metrics.per_job_references()
        self._submit = {name: submit for name, submit, _ in per_job}
        self._reference = {name: reference for name, _, reference in per_job}
        self._n_jobs = len(per_job)
        self.cumulative = 0.0

    def attach(self, bus) -> "_RewardTracker":
        """Subscribe to APP_FINISHED events on a bus."""
        bus.subscribe(self.on_finish, kinds=(EventKind.APP_FINISHED,))
        return self

    def on_finish(self, event) -> None:
        """Credit one job's reward contribution as its finish streams by."""
        reference = self._reference.get(event.app)
        if reference is None:  # pragma: no cover - defensive
            return
        turnaround = event.time - self._submit[event.app]
        if self.kind == "stp_delta":
            self.cumulative += reference / turnaround
        else:
            self.cumulative -= (turnaround / reference) / self._n_jobs


class SchedulingEnv:
    """A step/reset decision-process view of the cluster simulation.

    Episodes run on the event-driven engine, the one every simulation
    uses, pausing at its grid-aligned wake-points.

    Parameters
    ----------
    scenario:
        Scenario identifier — a registry name, a spec JSON path, or a
        :class:`~repro.scenarios.spec.ScenarioSpec` — resolved exactly
        like everywhere else (:func:`repro.scenarios.load_scenario`).
    reward:
        One of :data:`REWARD_KINDS` (default ``"stp_delta"``).
    time_step_min:
        Simulator grid step, as in :class:`repro.api.ExperimentPlan`: a
        finite, positive number of minutes.
    obs_mode:
        ``"dataclass"`` (default) hands out the frozen
        :class:`~repro.env.Observation` with per-job/per-node typed
        views — the parity oracle.  ``"features"`` hands out the
        array-backed :class:`~repro.env.FeatureObservation`, built
        straight from the kernel's state columns: the fast path for
        learned-policy rollouts and training collection (policies that
        read the typed views need ``"dataclass"``).  Both modes produce
        the same episode: decisions, rewards and every metric.

    Usage::

        env = SchedulingEnv("churn20")
        obs = env.reset(seed=11)
        while True:
            obs, reward, done, info = env.step(policy.act(obs))
            if done:
                break
        episode = env.episode_result("random")
    """

    def __init__(self, scenario, *, reward: str = "stp_delta",
                 time_step_min: float = 0.5, obs_mode: str = "dataclass"
                 ) -> None:
        self._spec = load_scenario(scenario)
        require_finite("time_step_min", time_step_min)
        if time_step_min <= 0:
            raise ValueError("time_step_min must be positive")
        if reward not in REWARD_KINDS:
            raise ValueError(f"unknown reward kind {reward!r}; expected one "
                             f"of {REWARD_KINDS}")
        if obs_mode not in OBS_MODES:
            raise ValueError(f"unknown obs_mode {obs_mode!r}; expected one "
                             f"of {OBS_MODES}")
        self.reward_kind = reward
        self.time_step_min = time_step_min
        self.obs_mode = obs_mode
        self._sim: ClusterSimulator | None = None
        self._epochs = None
        self._done = False
        self._result: SimulationResult | None = None
        self.seed: int | None = None

    # ------------------------------------------------------------------
    # Episode lifecycle
    # ------------------------------------------------------------------
    @property
    def spec(self):
        """The resolved scenario specification."""
        return self._spec

    def reset(self, seed: int = 11, scheduler_factory=None) -> Observation:
        """Start a new episode; returns the first wake-point observation.

        The workload mix, arrival times and fault realization are a pure
        function of ``(scenario, seed)`` — identical to what the native
        experiment path draws for a one-mix plan with the same seed — so
        reset is deterministic: the same seed yields the same first
        observation and, under the same actions, the same episode.

        ``scheduler_factory`` (``factory(allocation_policy) -> Scheduler``)
        installs a native scheduler as the simulator's mechanism-hook
        slot; policies supply it through
        :meth:`repro.env.Policy.make_scheduler` and the
        :class:`~repro.env.PolicyAdapter` uses it to mount the real
        scheme it replays.
        """
        self.close()
        spec = self._spec
        cluster = spec.build_cluster()
        allocation_policy = DynamicAllocationPolicy(max_executors=len(cluster))
        scheduler = None
        if scheduler_factory is not None:
            scheduler = scheduler_factory(allocation_policy)
        if scheduler is None:
            scheduler = _EnvHookScheduler(allocation_policy)
        jobs = spec.make_mixes(n_mixes=1, seed=seed)[0]
        sim = ClusterSimulator(cluster, scheduler,
                               time_step_min=self.time_step_min, seed=seed,
                               max_time_min=spec.max_time_min,
                               faults=spec.faults)
        self.seed = seed
        self._jobs = jobs
        self._allocation_policy = allocation_policy
        self._metrics = StreamingScheduleMetrics(jobs, allocation_policy)
        self._metrics.attach(sim.events)
        self._rewards = _RewardTracker(self.reward_kind,
                                       self._metrics).attach(sim.events)
        self._observer = ObservationBuilder().attach(sim.events)
        self._sim = sim
        self._context = sim.start(jobs)
        self._epochs = sim.engine.epochs(self._context)
        self._done = False
        self._result = None
        self._epoch = 0
        self._final_time = 0.0
        self.total_reward = 0.0
        self.steps = 0
        # Advance to the first wake-point (always exists: t=0).
        self._now = next(self._epochs)
        return self._observe()

    def close(self) -> None:
        """Abandon the current episode, detaching its bus subscribers."""
        if self._sim is None:
            return
        if self._epochs is not None:
            self._epochs.close()
            self._epochs = None
        self._sim.detach_run_subscribers()
        bus = self._sim.events
        bus.unsubscribe(self._metrics._on_finish)
        bus.unsubscribe(self._rewards.on_finish)
        bus.unsubscribe(self._observer.on_event)
        self._sim = None

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, action: Action) -> tuple[Observation, float, bool, dict]:
        """Apply one epoch's decision and resume the kernel.

        Returns ``(observation, reward, done, info)``.  Structured
        placements are validated **atomically** against live capacity
        before any is applied — an invalid batch raises
        :class:`~repro.env.InvalidActionError` and leaves the simulation
        untouched.  ``info`` carries the epoch's placement count, the new
        simulated time, and ``truncated=True`` when the horizon ended the
        episode with unfinished work.
        """
        if self._sim is None or self._epochs is None:
            if self._done:
                raise RuntimeError("episode is over; call reset()")
            raise RuntimeError("call reset() before step()")
        if not isinstance(action, Action):
            raise TypeError("step() takes a repro.env.Action; build one "
                            "with Action(placements=...) or Action.native()")
        placed = self._apply(action)
        reward_before = self._rewards.cumulative
        truncated = False
        try:
            self._now = next(self._epochs)
            self._epoch += 1
        except StopIteration as stop:
            self._final_time = float(stop.value)
            self._now = self._final_time
            self._epochs = None
            self._done = True
            self._result = self._sim.finish(self._final_time)
            truncated = not self._result.all_finished()
        reward = self._rewards.cumulative - reward_before
        self.total_reward += reward
        self.steps += 1
        observation = self._observe()
        if self._done:
            # After the terminal observation, which still shows the
            # executors a horizon cut left placed: detaching evicts them.
            self._sim.detach_run_subscribers()
        info = {
            "time_min": self._now,
            "placements": placed,
            "epoch": self._epoch,
            "truncated": truncated,
        }
        return observation, reward, self._done, info

    def _apply(self, action: Action) -> int:
        """Apply one action; returns the number of executors spawned."""
        sim, context = self._sim, self._context
        if action.is_native:
            before = sum(len(node.executors) for node in sim.cluster.nodes)
            action.scheduler.schedule(context)
            after = sum(len(node.executors) for node in sim.cluster.nodes)
            return after - before
        # Atomic batch validation: later placements see the capacity the
        # earlier ones would consume, and nothing is applied unless the
        # whole batch fits.
        memory_delta: dict[int, float] = {}
        cpu_delta: dict[int, float] = {}
        data_taken: dict[str, float] = {}
        for placement in action.placements:
            validate_placement(sim, context, placement)
            node = sim.cluster.node(placement.node_id)
            spec = sim.specs[placement.app]
            free = (node.free_reserved_memory_gb
                    - memory_delta.get(node.node_id, 0.0))
            if placement.memory_gb > free + 1e-9:
                raise InvalidActionError(
                    f"over-capacity: batch places "
                    f"{placement.memory_gb:.1f}GB on node {node.node_id} "
                    f"but only {free:.1f}GB remains after earlier "
                    "placements")
            load = node.reserved_cpu_load + cpu_delta.get(node.node_id, 0.0)
            if load + spec.cpu_load > 1.0 + 1e-9:
                raise InvalidActionError(
                    f"over-capacity: batch overloads node {node.node_id}'s "
                    f"CPU ({load:.2f} + {spec.cpu_load:.2f} > 1)")
            left = (sim.apps[placement.app].unassigned_gb
                    - data_taken.get(placement.app, 0.0))
            if left <= 1e-6:
                raise InvalidActionError(
                    f"batch assigns more data than {placement.app!r} has "
                    "left unassigned")
            memory_delta[node.node_id] = (
                memory_delta.get(node.node_id, 0.0) + placement.memory_gb)
            cpu_delta[node.node_id] = (
                cpu_delta.get(node.node_id, 0.0) + spec.cpu_load)
            data_taken[placement.app] = (
                data_taken.get(placement.app, 0.0)
                + min(placement.data_gb, left))
        placed = 0
        for placement in action.placements:
            executor = context.spawn_executor(
                sim.apps[placement.app], placement.node_id,
                placement.memory_gb, placement.data_gb)
            if executor is None:  # pragma: no cover - defensive
                raise InvalidActionError(
                    f"placement {placement} rejected by the admission test")
            placed += 1
        return placed

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether the current episode has ended."""
        return self._done

    def _observe(self) -> Observation:
        if self.obs_mode == "features":
            # Read the allocation policy off the *installed* scheduler:
            # ``on_cluster_change`` rebinds it (``with_cluster_size``
            # returns a fresh frozen instance), so the reference captured
            # at ``reset()`` goes stale once churn changes the live node
            # count.
            scheduler = self._sim.scheduler
            allocation_policy = getattr(scheduler, "allocation_policy",
                                        self._allocation_policy)
            return self._observer.build_features(
                self._context, self._now, self._epoch, allocation_policy)
        return self._observer.build(self._context, self._now, self._epoch)

    def result(self) -> SimulationResult:
        """The completed episode's raw :class:`SimulationResult`."""
        if self._result is None:
            raise EpisodeNotDoneError("the episode has not ended yet")
        return self._result

    def evaluation(self):
        """Headline STP/ANTT evaluation of the completed episode.

        Streams off the same :class:`StreamingScheduleMetrics` subscriber
        the experiment session layer uses, so the values are bit-for-bit
        identical to a native run of the same (scenario, seed).
        Raises :class:`repro.api.HorizonTruncationError` when the horizon
        cut the workload short.
        """
        result = self.result()
        if not result.all_finished():
            from repro.api.session import HorizonTruncationError

            unfinished = sum(1 for app in result.apps.values()
                             if app.finish_time is None)
            raise HorizonTruncationError(
                f"scenario {self._spec.name!r}: horizon "
                f"max_time_min={self._spec.max_time_min:g} truncated the "
                f"episode — {len(result.unsubmitted_jobs)} job(s) never "
                f"arrived, {unfinished} app(s) unfinished; raise the "
                "spec's max_time_min")
        return self._metrics.evaluate(result)

    def episode_result(self, policy_name: str):
        """The completed episode folded into a typed, JSON-ready record."""
        from repro.env.rollout import EpisodeResult

        return EpisodeResult.from_env(self, policy_name)

    @property
    def jobs(self):
        """The episode's realised job mix, in submission order."""
        return list(self._jobs)

    @property
    def allocation_policy(self) -> DynamicAllocationPolicy:
        """The topology-derived allocation policy of this episode."""
        return self._allocation_policy

    def baseline_antt(self) -> float:
        """ANTT of the one-by-one isolated baseline on this episode's mix."""
        return baseline_antt(list(self._jobs), self._allocation_policy)
