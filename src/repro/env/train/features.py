"""Shared featurizer: one epoch snapshot, one candidate feature matrix.

Training and inference must see *exactly* the same numbers, wherever the
policy runs — sampling structured actions through
:class:`repro.env.SchedulingEnv` during training, or serving placements
natively as a registered scheme inside the engines' hot loop.  This
module is that single source of truth:

* :class:`EpochSnapshot` — the decision-relevant state at one scheduler
  wake-point, buildable from a typed :class:`repro.env.Observation`
  (:func:`snapshot_from_observation`) or straight from the live
  :class:`~repro.cluster.simulator.SchedulingContext`'s state columns
  (:func:`snapshot_from_state`).  Both read the same reservation-side
  numbers, so the two paths yield bit-identical arrays for the same
  simulation state.
* :func:`candidate_features` — the fixed-width feature matrix over this
  decision's *candidates*: one ``skip`` row plus one row per (live node,
  memory fraction) pair that passes the admission mask.  Invalid
  candidates are never materialised — the same convention as
  ``score_batch``'s NaN mask, applied at row-construction time.

Two rules keep the learned scheme equal across engines:

1. **Reservation-side only.**  Features read the scheduler's own
   bookkeeping (reserved memory/CPU), never the resource monitor's
   windowed usage reports: monitor state drifts *between* wake-points,
   so a monitor-derived feature would make the fixed-step engine (which
   also wakes at no-change epochs) diverge from the event engine.
2. **Time-free.**  No absolute time, epoch index or bus telemetry: at an
   idle epoch the state — and therefore the decision — must be identical
   to the previous wake-point's terminal ``skip``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FeatureConfig", "FEATURE_NAMES", "N_FEATURES", "JobCand",
           "EpochSnapshot", "snapshot_from_observation", "snapshot_from_state",
           "candidate_features", "CandidateRowCache"]

#: Column names of the candidate feature matrix, in order.  The first
#: block describes the job and cluster (shared by every candidate of one
#: decision, including ``skip``); the second block is zero on the
#: ``skip`` row and describes the (node, fraction) placement.
FEATURE_NAMES: tuple[str, ...] = (
    # decision-wide block (also on the skip row)
    "skip_flag",          # 1.0 on the skip candidate, else 0.0
    "job_input",          # input_gb / 100
    "job_unassigned",     # unassigned_gb / input_gb
    "job_cpu_load",       # per-executor CPU demand (0..1)
    "job_saturation",     # active / desired executors
    "job_remaining",      # (desired - active) / desired
    "n_ready",            # ready jobs this epoch / 10
    "cluster_free",       # total free / total RAM over live nodes
    # placement block (zero on the skip row)
    "node_ram",           # ram_gb / 100
    "node_free",          # free_gb / 100
    "node_free_frac",     # free_gb / ram_gb
    "node_free_rank",     # free_gb / max free over live nodes
    "node_cpu_free",      # 1 - reserved CPU load
    "node_execs",         # active executors / 4
    "node_empty",         # 1.0 iff no executor on the node
    "node_single",        # 1.0 iff exactly one executor
    "node_speed",         # speed factor (stragglers < 1)
    "frac",               # memory fraction of this candidate
    "budget",             # frac * free_gb / 100
    "budget_frac_ram",    # frac * free_gb / ram_gb
)

#: Width of the candidate feature matrix.
N_FEATURES: int = len(FEATURE_NAMES)


@dataclass(frozen=True)
class FeatureConfig:
    """Shape of the candidate space (frozen into every checkpoint).

    ``fractions`` are the memory budgets offered per node, as fractions
    of its *current* free reservation-side memory; ``min_budget_gb``
    drops candidates whose resulting budget would be uselessly small
    (mirroring Pairwise's 1 GB floor).  A checkpoint trained with one
    config must be served with the same config — the loader enforces it.
    """

    fractions: tuple[float, ...] = (0.25, 0.5, 1.0)
    min_budget_gb: float = 1.0
    version: int = 1

    def __post_init__(self) -> None:
        if not self.fractions:
            raise ValueError("at least one memory fraction is required")
        if any(not 0.0 < f <= 1.0 for f in self.fractions):
            raise ValueError("memory fractions must be in (0, 1]")
        if self.min_budget_gb <= 0:
            raise ValueError("min_budget_gb must be positive")

    def to_dict(self) -> dict:
        """JSON-ready dict form (stored in checkpoint metadata)."""
        return {"fractions": list(self.fractions),
                "min_budget_gb": self.min_budget_gb,
                "version": self.version}

    @classmethod
    def from_dict(cls, payload: dict) -> "FeatureConfig":
        """Inverse of :meth:`to_dict`."""
        return cls(fractions=tuple(payload["fractions"]),
                   min_budget_gb=payload["min_budget_gb"],
                   version=payload["version"])


@dataclass
class JobCand:
    """One ready job as the decision loop sees it (locally mutable)."""

    name: str
    input_gb: float
    unassigned_gb: float
    cpu_load: float
    active: int
    desired: int


@dataclass
class EpochSnapshot:
    """Decision-relevant state at one wake-point, as flat numpy columns.

    Node arrays cover *live* nodes only, in cluster order (the same
    order both builders iterate), and are mutated in place by the
    decision loop as it books placements — mirroring exactly what the
    simulator's reservation accounting will do when the placements are
    applied.
    """

    jobs: list[JobCand]
    node_ids: np.ndarray       # int64, live nodes in cluster order
    ram_gb: np.ndarray         # float64
    free_gb: np.ndarray        # float64, reservation-side free memory
    cpu_free: np.ndarray       # float64, 1 - reserved CPU load
    execs: np.ndarray          # int64, active executors per node
    speed: np.ndarray          # float64, straggler speed factor
    total_ram: float = field(init=False)

    def __post_init__(self) -> None:
        self.total_ram = float(self.ram_gb.sum())

    def book(self, slot: int, budget_gb: float, cpu_load: float) -> None:
        """Apply one placement's reservation effects to the local state."""
        self.free_gb[slot] -= budget_gb
        self.cpu_free[slot] -= cpu_load
        self.execs[slot] += 1


def snapshot_from_observation(observation, allocation_policy) -> EpochSnapshot:
    """Build the snapshot from a typed environment observation.

    Reads the same reservation-side fields
    (:attr:`~repro.env.NodeView.free_memory_gb`,
    :attr:`~repro.env.NodeView.cpu_reserved`) the context builder reads,
    so for one paused simulation both constructors return bit-identical
    arrays.
    """
    jobs = [JobCand(name=job.name, input_gb=job.input_gb,
                    unassigned_gb=job.unassigned_gb, cpu_load=job.cpu_load,
                    active=job.active_executors,
                    desired=allocation_policy.desired_executors(job.input_gb))
            for job in observation.ready_jobs]
    up = [n for n in observation.nodes if n.is_up]
    return EpochSnapshot(
        jobs=jobs,
        node_ids=np.array([n.node_id for n in up], dtype=np.int64),
        ram_gb=np.array([n.ram_gb for n in up], dtype=np.float64),
        free_gb=np.array([n.free_memory_gb for n in up], dtype=np.float64),
        cpu_free=np.array([1.0 - n.cpu_reserved for n in up],
                          dtype=np.float64),
        execs=np.array([n.active_executors for n in up], dtype=np.int64),
        speed=np.array([n.speed_factor for n in up], dtype=np.float64),
    )


def snapshot_from_state(ctx, allocation_policy) -> EpochSnapshot:
    """Build the snapshot straight from the simulator's state columns.

    The native scheme's constructor and the fast path behind
    ``obs_mode="features"``: iterates ``ctx.waiting_apps()`` (submission
    order — the order :attr:`~repro.env.Observation.ready_jobs`
    preserves) and gathers the node arrays from the cached
    :class:`~repro.cluster.simulator.NodeFeatures` epoch snapshot (one
    boolean-mask gather per column).  Every gathered column holds the
    node-row cells the :class:`~repro.cluster.node.Node` properties read,
    and the two derived columns use the same elementwise float64
    expressions (``max(ram - reserved, 0)``, ``1 - reserved_cpu``), so the
    arrays equal :func:`snapshot_from_observation`'s for the same paused
    simulation — the property tests pin it.
    """
    features = ctx.node_features()
    jobs = []
    for app in ctx.waiting_apps():
        spec = ctx.spec_of(app)
        jobs.append(JobCand(name=app.name, input_gb=app.input_gb,
                            unassigned_gb=app.unassigned_gb,
                            cpu_load=spec.cpu_load,
                            active=len(app.active_executors),
                            desired=allocation_policy.desired_executors(
                                app.input_gb)))
    up = features.up
    # Boolean-mask gathers copy, so the decision loop's in-place
    # bookings never touch the version-cached NodeFeatures columns.
    return EpochSnapshot(
        jobs=jobs,
        node_ids=features.node_ids[up],
        ram_gb=features.ram_gb[up],
        free_gb=features.free_gb[up],
        cpu_free=1.0 - features.reserved_cpu[up],
        execs=features.n_active[up].astype(np.int64),
        speed=features.speed[up],
    )


class CandidateRowCache:
    """Per-epoch cache of placement-block feature rows, bit-for-bit.

    :func:`candidate_features` rebuilds the full candidate matrix for
    every sub-decision of the fixed-point loop, although a booking only
    changes *one* node's placement columns.  This cache keeps one
    pre-computed ``N_FEATURES``-wide row per (node, fraction) pair and
    reassembles each sub-decision's matrix by gathering those rows,
    overwriting only the decision-wide block and the two global columns.

    **Row-oracle rule** (the PR 7 ``footprint_batch`` discipline): every
    cached cell is produced by the *same elementwise* float64 expression
    :func:`candidate_features` uses — elementwise IEEE ops round
    identically whether computed for one node or a whole column, unlike
    reductions, whose summation order may differ.  The two cells that
    involve reductions (``cluster_free``'s ``free_gb.sum()`` and
    ``node_free_rank``'s ``free_gb.max()``) are therefore *not* cached:
    they are recomputed per call with the exact original reductions.
    The assembled matrix is bit-identical to the uncached one, and
    :func:`candidate_features` stays in-tree as the oracle the parity
    tests compare against.

    Layout: one flat table whose row 0 is the ``skip`` row and whose row
    ``1 + slot * n_fracs + f`` is the (node ``slot``, fraction ``f``)
    candidate, with a matching slot table and a cached per-candidate
    admission mask (everything but the job's CPU check).
    A sub-decision is then one mask, one ``take`` per table, and one
    write of the decision-wide block.  The columns a booking cannot move
    (``node_ram``, ``node_speed``, ``frac``) are written once; one
    routine over a basic slice of nodes writes the rest, for the initial
    fill and for a booked node alike.
    """

    def __init__(self, snapshot: EpochSnapshot,
                 config: FeatureConfig) -> None:
        self.snapshot = snapshot
        self.config = config
        self.fractions = np.asarray(config.fractions, dtype=np.float64)
        n_nodes = snapshot.free_gb.shape[0]
        n_fracs = self.fractions.shape[0]
        self._table = np.zeros((1 + n_nodes * n_fracs, N_FEATURES),
                               dtype=np.float64)
        self._table[0, 0] = 1.0
        #: Node slot of each table row: ``(row - 1) // n_fracs``, -1 on skip.
        self._slot_of = np.arange(-1, n_nodes * n_fracs,
                                  dtype=np.int64) // n_fracs
        self._rows = self._table[1:].reshape(n_nodes, n_fracs, N_FEATURES)
        self._rows[:, :, 8] = snapshot.ram_gb[:, None] / 100.0
        self._rows[:, :, 16] = snapshot.speed[:, None]
        self._rows[:, :, 17] = self.fractions
        #: Memory fraction of each table row (0 on skip): the ``frac`` column.
        self._fraction_of = self._table[:, 17]
        self._safe_ram = np.maximum(snapshot.ram_gb, 1e-9)[:, None]
        #: The budget clears ``min_budget_gb``; since no fraction exceeds
        #: 1, a budget never exceeds its node's free memory, so this also
        #: implies the node-level ``free_gb >= min_budget_gb`` check.
        self._placeable = np.empty((n_nodes, n_fracs), dtype=bool)
        #: ``cpu_free + 1e-9``: the CPU headroom a job's load must fit.
        self._cpu_room = np.empty(n_nodes, dtype=np.float64)
        #: Per-call admission mask over the table; the skip row is always in.
        self._admit = np.ones(1 + n_nodes * n_fracs, dtype=bool)
        self._admit_grid = self._admit[1:].reshape(n_nodes, n_fracs)
        self._refresh(0, n_nodes)

    def _refresh(self, lo: int, hi: int) -> None:
        """Recompute what a booking can move for nodes ``lo:hi``."""
        snap = self.snapshot
        free = snap.free_gb[lo:hi, None]
        execs = snap.execs[lo:hi, None]
        safe_ram = self._safe_ram[lo:hi]
        budgets = free * self.fractions
        np.greater_equal(budgets, self.config.min_budget_gb,
                         out=self._placeable[lo:hi])
        np.add(snap.cpu_free[lo:hi], 1e-9, out=self._cpu_room[lo:hi])
        rows = self._rows[lo:hi]
        rows[:, :, 9] = free / 100.0
        rows[:, :, 10] = free / safe_ram
        rows[:, :, 12] = snap.cpu_free[lo:hi, None]
        rows[:, :, 13] = execs / 4.0
        rows[:, :, 14] = execs == 0
        rows[:, :, 15] = execs == 1
        rows[:, :, 18] = budgets / 100.0
        rows[:, :, 19] = budgets / safe_ram

    def invalidate(self, slot: int) -> None:
        """Mark one node's rows stale after a booking touched it."""
        self._refresh(slot, slot + 1)

    def candidate_features(self, job: JobCand,
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Assemble one sub-decision's matrix from the cached rows.

        Same contract (and same bits) as module-level
        :func:`candidate_features` on the cache's snapshot.
        """
        snap = self.snapshot
        np.logical_and((job.cpu_load <= self._cpu_room)[:, None],
                       self._placeable, out=self._admit_grid)
        index = self._admit.nonzero()[0]
        features = self._table.take(index, axis=0)
        cand_slots = self._slot_of.take(index)
        cand_fractions = self._fraction_of.take(index)
        desired = max(job.desired, 1)
        features[:, 1:8] = (
            job.input_gb / 100.0,
            job.unassigned_gb / max(job.input_gb, 1e-9),
            job.cpu_load,
            job.active / desired,
            (job.desired - job.active) / desired,
            len(snap.jobs) / 10.0,
            float(snap.free_gb.sum()) / max(snap.total_ram, 1e-9))
        if index.shape[0] > 1:
            max_free = float(snap.free_gb.max())
            features[1:, 11] = (snap.free_gb.take(cand_slots[1:])
                                / max(max_free, 1e-9))
        return features, cand_slots, cand_fractions


def candidate_features(snapshot: EpochSnapshot, job: JobCand,
                       config: FeatureConfig,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidate matrix for one sub-decision of the placement loop.

    Returns ``(features, cand_slots, cand_fractions)``:

    * ``features`` — ``(K, N_FEATURES)`` float64 matrix; row 0 is always
      the ``skip`` candidate, rows ``1..K-1`` are the admissible
      (node, fraction) placements;
    * ``cand_slots`` — ``(K,)`` int64, the snapshot node-array slot of
      each row (``-1`` for skip);
    * ``cand_fractions`` — ``(K,)`` float64 memory fraction per row
      (``0`` for skip).

    The admission mask mirrors what the simulator will enforce when the
    placement is applied (``Node.can_host`` and the environment's atomic
    batch validation): the node is live, the fractional budget clears
    ``min_budget_gb``, and the job's CPU demand fits the *reserved* CPU
    headroom.  Inadmissible candidates get no row — the featurizer's
    equivalent of ``score_batch`` returning NaN for a node it would
    never use.
    """
    n_nodes = snapshot.free_gb.shape[0]
    fractions = np.asarray(config.fractions, dtype=np.float64)
    n_fracs = fractions.shape[0]
    # Node admissibility (shared across fractions).
    node_ok = ((snapshot.free_gb >= config.min_budget_gb)
               & (job.cpu_load <= snapshot.cpu_free + 1e-9))
    # (node, fraction) budgets; a candidate exists where the budget
    # clears the floor on an admissible node.
    budgets = snapshot.free_gb[:, None] * fractions[None, :]
    ok = node_ok[:, None] & (budgets >= config.min_budget_gb)
    slots, fracs = np.nonzero(ok)
    n_cands = slots.shape[0]

    features = np.zeros((1 + n_cands, N_FEATURES), dtype=np.float64)
    # Decision-wide block, identical on every row.
    desired = max(job.desired, 1)
    total_free = float(snapshot.free_gb.sum())
    features[:, 1] = job.input_gb / 100.0
    features[:, 2] = job.unassigned_gb / max(job.input_gb, 1e-9)
    features[:, 3] = job.cpu_load
    features[:, 4] = job.active / desired
    features[:, 5] = (job.desired - job.active) / desired
    features[:, 6] = len(snapshot.jobs) / 10.0
    features[:, 7] = total_free / max(snapshot.total_ram, 1e-9)
    # Skip row: flag set, placement block stays zero.
    features[0, 0] = 1.0
    if n_cands:
        ram = snapshot.ram_gb[slots]
        free = snapshot.free_gb[slots]
        budget = budgets[slots, fracs]
        max_free = float(snapshot.free_gb.max())
        features[1:, 8] = ram / 100.0
        features[1:, 9] = free / 100.0
        features[1:, 10] = free / np.maximum(ram, 1e-9)
        features[1:, 11] = free / max(max_free, 1e-9)
        features[1:, 12] = snapshot.cpu_free[slots]
        features[1:, 13] = snapshot.execs[slots] / 4.0
        features[1:, 14] = (snapshot.execs[slots] == 0).astype(np.float64)
        features[1:, 15] = (snapshot.execs[slots] == 1).astype(np.float64)
        features[1:, 16] = snapshot.speed[slots]
        features[1:, 17] = fractions[fracs]
        features[1:, 18] = budget / 100.0
        features[1:, 19] = budget / np.maximum(ram, 1e-9)

    cand_slots = np.concatenate(([np.int64(-1)], slots.astype(np.int64)))
    cand_fractions = np.concatenate(([0.0], fractions[fracs]))
    return features, cand_slots, cand_fractions
