"""Composable experiment sessions with streaming typed results.

A :class:`Session` owns everything that is expensive to set up and worth
reusing across many experiment runs:

* the **trained predictor artefacts** (a :class:`~repro.api.suite.SchedulerSuite`),
  materialised lazily and only to the degree the executed plans require;
* the **suite disk cache** under ``.cache/`` — when a plan first needs
  trained artefacts, the session loads them from disk instead of
  retraining (``use_cache=False`` opts out);
* the **worker pool** — one :class:`~concurrent.futures.ProcessPoolExecutor`
  kept alive across runs and transparently rebuilt when the worker count
  changes or newly trained artefacts must be shipped to workers.

Execution is streaming-first: :meth:`Session.stream` yields one
:class:`~repro.api.results.CellResult` — headline metrics plus per-job
records — as each (scenario, scheme, mix) grid cell completes, in
completion order.  :meth:`Session.run` folds the stream into the
deterministic per-(scenario, scheme) :class:`~repro.api.results.ScenarioResult`
aggregates, bit-for-bit identical for any worker count and engine.

::

    from repro.api import ExperimentPlan, Session

    plan = ExperimentPlan(schemes=("pairwise", "ours", "oracle"),
                          scenarios=("L1", "L5"), n_mixes=3, workers=4)
    with Session() as session:
        for cell in session.stream(plan):        # as cells complete
            print(cell.scenario, cell.scheme, cell.mix_index, cell.stp)
        rows = session.run(plan)                 # aggregated, in plan order
"""

from __future__ import annotations

import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Iterator

from repro.api.cache import load_or_train_suite
from repro.api.plan import ExperimentPlan
from repro.api.results import CellResult, ScenarioResult, fold_cells, job_records
from repro.api.suite import SchedulerSuite
from repro.cluster.simulator import ClusterSimulator
from repro.metrics.throughput import StreamingScheduleMetrics
from repro.scheduling.registry import (
    merge_registry,
    registry_snapshot,
    required_artefacts,
)
from repro.spark.driver import DynamicAllocationPolicy

__all__ = ["Session", "HorizonTruncationError"]


class HorizonTruncationError(RuntimeError):
    """A scenario's horizon cut the workload short, so the headline metrics
    (STP/ANTT over *completed* turnarounds) are undefined for the run."""


def _simulate_cell(suite: SchedulerSuite, task: tuple) -> CellResult:
    """Simulate one (scenario, scheme, mix) grid cell.

    The cluster is built fresh from the scenario's topology; the
    dynamic-allocation executor cap *starts* from that topology's size
    (for the paper's 40-node platform this matches the seed's fixed
    default exactly) and is re-derived by the scheduler's
    ``on_cluster_change`` hook whenever the scenario's fault spec takes
    nodes down or adds them.  The headline metrics stream off the
    simulator's event bus (:class:`StreamingScheduleMetrics`) — values
    bit-for-bit identical to the historical post-hoc reduction — and the
    isolated references keep the nominal startup topology as their
    yardstick, so fault-induced slowdowns show up as slowdowns rather
    than silently rescaling the baseline.
    """
    scheme, mix_index, jobs, time_step_min, seed, engine, spec = task
    cluster = spec.build_cluster()
    policy = DynamicAllocationPolicy(max_executors=len(cluster))
    factory = suite.factory(scheme, allocation_policy=policy)
    simulator = ClusterSimulator(cluster, factory(),
                                 time_step_min=time_step_min, seed=seed,
                                 step_mode=engine,
                                 max_time_min=spec.max_time_min,
                                 faults=spec.faults)
    metrics = StreamingScheduleMetrics(jobs, policy).attach(simulator.events)
    result = simulator.run(jobs)
    if not result.all_finished():
        unfinished = sum(1 for app in result.apps.values()
                         if app.finish_time is None)
        raise HorizonTruncationError(
            f"scenario {spec.name!r} ({scheme}): horizon "
            f"max_time_min={spec.max_time_min:g} truncated the workload — "
            f"{len(result.unsubmitted_jobs)} job(s) never arrived, "
            f"{unfinished} app(s) unfinished; raise the spec's max_time_min")
    evaluation = metrics.evaluate(result)
    return CellResult(
        scenario=spec.name,
        scheme=scheme,
        mix_index=mix_index,
        seed=seed,
        engine=engine,
        stp=evaluation.stp,
        antt=evaluation.antt,
        antt_reduction_percent=evaluation.antt_reduction_percent,
        makespan_min=evaluation.makespan_min,
        mean_utilization_percent=evaluation.mean_utilization_percent,
        jobs=job_records(result, jobs, policy),
        faults=result.fault_summary,
        switches=result.scheme_switches,
    )


#: Per-process scheduler suite rebuilt once per worker (see _init_worker).
_WORKER_SUITE: SchedulerSuite | None = None


def _init_worker(pool_blob: bytes) -> None:
    """Process-pool initialiser: rebuild the shared suite in this worker.

    The parent pickles the suite — its training dataset plus the trained
    mixture of experts — once per pool; unpickling here gives every worker
    the exact predictors of the sequential path, including any customised
    models the caller installed on the suite.  The parent's scheme
    registrations ride along too, so runtime-registered plugin schemes
    resolve in workers even under a ``spawn`` start method, where this
    process only has the import-time builtins.
    """
    global _WORKER_SUITE
    _WORKER_SUITE, schemes = pickle.loads(pool_blob)
    merge_registry(schemes)


def _run_cell_in_worker(task: tuple) -> CellResult:
    """Simulate one grid cell against the worker's shared suite."""
    return _simulate_cell(_WORKER_SUITE, task)


class Session:
    """A reusable execution context for experiment plans.

    Parameters
    ----------
    suite:
        Shared scheduler suite; a fresh (untrained) one is created when
        omitted.  Pass a customised suite to pin specific models.
    use_cache:
        Whether trained artefacts may be loaded from — and written to —
        the ``.cache/`` suite cache when a plan first needs them.  The
        cache is only consulted for a fully untrained suite, so explicit
        artefacts are never silently replaced.
    cache_dir:
        Override of the cache directory (default: ``$REPRO_CACHE_DIR`` or
        ``.cache/``).

    A session is a context manager; :meth:`close` shuts the worker pool
    down.  Using a session after ``close()`` is fine — a new pool is
    created on demand.
    """

    def __init__(self, suite: SchedulerSuite | None = None,
                 use_cache: bool = True,
                 cache_dir: str | Path | None = None) -> None:
        self._suite = suite if suite is not None else SchedulerSuite()
        self._use_cache = use_cache
        self._cache_dir = cache_dir
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0
        self._pool_artefacts: frozenset[str] = frozenset()
        #: Streams currently consuming futures, per pool.  A pool with an
        #: active lease is never cancelled out from under its consumer —
        #: a future stuck between the pending dict and a worker's call
        #: queue would otherwise be dropped by cancel_futures and leave
        #: the consumer waiting on it forever.
        self._leases: dict[ProcessPoolExecutor, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def suite(self) -> SchedulerSuite:
        """The session's trained-artefact provider."""
        return self._suite

    def close(self) -> None:
        """Shut down the worker pool (idempotent).

        Queued cells are cancelled when no stream is consuming them; a
        pool still feeding an active stream is instead left to drain, so
        the stream completes normally and never hangs.
        """
        if self._pool is not None:
            self._abandon(self._pool)
            self._pool = None
            self._pool_workers = 0
            self._pool_artefacts = frozenset()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def ensure_trained(self, schemes=None) -> SchedulerSuite:
        """Materialise the artefacts the given schemes need; return the suite.

        With ``schemes=None`` everything is trained.  A fully untrained
        suite is satisfied from the disk cache when caching is enabled
        (training and writing the cache on a miss); a partially trained
        suite always trains in-process so its own artefacts stay
        internally consistent.
        """
        needed = (frozenset(("dataset", "moe")) if schemes is None
                  else required_artefacts(schemes))
        if needed <= self._suite.materialised():
            return self._suite
        if self._use_cache and not self._suite.materialised():
            self._suite.adopt(load_or_train_suite(cache_dir=self._cache_dir))
        else:
            self._suite.ensure_trained(schemes)
        return self._suite

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stream(self, plan: ExperimentPlan) -> Iterator[CellResult]:
        """Yield one :class:`CellResult` per grid cell as it completes.

        With ``plan.workers == 1`` cells complete in plan order; with more
        workers they arrive in completion order.  The *set* of yielded
        cells is identical for any worker count.  Closing the iterator
        early cancels cells that have not started.
        """
        if not isinstance(plan, ExperimentPlan):
            raise TypeError("stream() takes an ExperimentPlan; build one "
                            "with repro.api.ExperimentPlan(...)")
        self.ensure_trained(plan.schemes)
        tasks = self._tasks(plan)
        if plan.workers == 1:
            for task in tasks:
                yield _simulate_cell(self._suite, task)
            return
        pool = self._pool_for(plan.workers)
        self._leases[pool] = self._leases.get(pool, 0) + 1
        futures: list = []
        try:
            futures.extend(pool.submit(_run_cell_in_worker, task)
                           for task in tasks)
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    yield future.result()
        except BrokenProcessPool:
            # A worker died (OOM-kill, unpicklable state, ...): retire the
            # pool so the next run gets a fresh one instead of re-failing.
            if pool is self._pool:
                self.close()
            raise
        finally:
            for future in futures:
                future.cancel()
            self._release(pool)

    def run(self, plan: ExperimentPlan) -> list[ScenarioResult]:
        """Execute a plan and fold the stream into aggregate rows.

        Rows come out scenario-major in plan order; within each row the
        mixes are reduced in mix-index order, so the aggregates are
        bit-for-bit reproducible for any worker count.
        """
        return fold_cells(self.stream(plan),
                          scenario_order=plan.scenario_names,
                          scheme_order=plan.schemes)

    def rollout(self, scenario, policy="random", *, seed: int = 11,
                engine: str = "event", reward: str = "stp_delta",
                time_step_min: float = 0.5, max_steps: int | None = None,
                record_rewards: bool = False,
                obs_mode: str = "dataclass",
                record_utilization: bool = True):
        """Run one scheduling-environment episode; returns an
        :class:`~repro.env.EpisodeResult`.

        ``policy`` is a policy name — ``"random"``, ``"greedy"``, any
        registered scheme name (run through a
        :class:`~repro.env.PolicyAdapter` sharing this session's trained
        artefacts and disk cache), or a ``learned:<checkpoint>`` spec
        (served from the session-transcending checkpoint model cache,
        see :meth:`learned_model`) — or a :class:`repro.env.Policy`
        instance.  ``scenario`` resolves like everywhere else: registry
        name, spec JSON path, or a
        :class:`~repro.scenarios.spec.ScenarioSpec`.
        ``record_rewards`` keeps the per-step reward trace on the
        result.  ``obs_mode="features"`` selects the array-backed fast
        observation path (bit-identical decisions/rewards/STP; see
        :class:`~repro.env.SchedulingEnv`), and ``record_utilization``
        forwards to the simulator's utilization telemetry switch.
        """
        from repro.env import Policy, make_policy
        from repro.env import rollout as run_episode
        from repro.scheduling.registry import is_registered

        if isinstance(policy, str):
            if is_registered(policy):
                self.ensure_trained((policy,))
            policy = make_policy(policy, suite=self._suite, seed=seed)
        elif not isinstance(policy, Policy):
            raise TypeError("policy must be a name or a repro.env.Policy, "
                            f"not {type(policy).__name__}")
        return run_episode(scenario, policy, seed=seed, engine=engine,
                           reward=reward,
                           time_step_min=time_step_min, max_steps=max_steps,
                           record_rewards=record_rewards, obs_mode=obs_mode,
                           record_utilization=record_utilization)

    def learned_model(self, checkpoint=None):
        """The policy network behind a ``learned`` checkpoint, cached.

        The learned scheme's artefact is a checkpoint file rather than a
        trained dataset/MoE, so it rides the checkpoint model cache
        (keyed by resolved path, mtime and size — an overwritten file is
        reloaded, an unchanged one is free) instead of the suite cache.
        ``checkpoint=None`` resolves like the scheme itself:
        ``$REPRO_LEARNED_CHECKPOINT``, then the committed package
        default.
        """
        from repro.env.train.scheme import load_policy_model

        return load_policy_model(checkpoint)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _tasks(self, plan: ExperimentPlan) -> list[tuple]:
        """Expand a plan into per-cell task tuples, scenario-major.

        Mixes are realised once per scenario and shared across schemes,
        so every scheme faces the exact same workload draws.
        """
        tasks: list[tuple] = []
        for spec in plan.scenarios:
            mixes = spec.make_mixes(n_mixes=plan.n_mixes, seed=plan.seed)
            for scheme in plan.schemes:
                for mix_index, mix in enumerate(mixes):
                    tasks.append((scheme, mix_index, mix, plan.time_step_min,
                                  plan.seed, plan.engine, spec))
        return tasks

    def _abandon(self, pool: ProcessPoolExecutor) -> None:
        """Stop using a pool, as aggressively as is safe.

        With no active stream leasing it, queued futures are cancelled
        and the workers reaped; otherwise the pool merely stops accepting
        work and drains — the final :meth:`_release` reaps it.
        """
        pool.shutdown(wait=False,
                      cancel_futures=self._leases.get(pool, 0) == 0)

    def _release(self, pool: ProcessPoolExecutor) -> None:
        """Drop one stream's lease; reap an abandoned pool's last lease."""
        self._leases[pool] -= 1
        if self._leases[pool] == 0:
            del self._leases[pool]
            if pool is not self._pool:
                pool.shutdown(wait=False, cancel_futures=True)

    def _pool_for(self, workers: int) -> ProcessPoolExecutor:
        """The shared worker pool, rebuilt only when it no longer fits.

        A pool is tied to the suite snapshot pickled into its workers at
        creation; when the suite has since materialised new artefacts (or
        a different worker count is requested), the old pool is abandoned
        (see :meth:`_abandon` — active streams on it still complete) and
        a fresh one receives the up-to-date suite.
        """
        artefacts = self._suite.materialised()
        if (self._pool is not None
                and self._pool_workers == workers
                and self._pool_artefacts == artefacts):
            return self._pool
        self.close()
        blob = pickle.dumps((self._suite,
                             registry_snapshot(picklable_only=True)))
        self._pool = ProcessPoolExecutor(max_workers=workers,
                                         initializer=_init_worker,
                                         initargs=(blob,))
        self._pool_workers = workers
        self._pool_artefacts = artefacts
        return self._pool
