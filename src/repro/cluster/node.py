"""A single computing node.

Mirrors the paper's hardware: each node has 64 GB of RAM, 16 GB of swap and
an 8-core/16-thread CPU (Section 5.1).  A node hosts executor processes;
the memory *reservations* (scheduler bookkeeping, i.e. granted heap sizes)
are tracked separately from the *actual* footprints, which the simulator
computes from ground truth — the gap between the two is exactly where
mispredicted memory requirements cause paging or out-of-memory failures.

Since the array-backed kernel core (:mod:`repro.cluster.state`), a node
that belongs to a :class:`~repro.cluster.cluster.Cluster` is a thin view
over one slot of the cluster's node array: the ``is_up``/``speed_factor``
flags are dual-written (scalar for fast object reads, array column for
vectorized scans) and the cached reservation aggregates are mirrored
into the array by :meth:`Node._refresh`, so the engines' capacity
accounting runs over columns while schedulers keep the object API.
"""

from __future__ import annotations

from repro.spark.executor import Executor

__all__ = ["Node"]


class Node:
    """One compute server in the cluster.

    Parameters
    ----------
    node_id:
        Index of the node within the cluster.
    ram_gb:
        Physical memory available to executors.
    swap_gb:
        Swap space; executors spilling into swap run at a severe paging
        penalty but do not fail outright.
    cores:
        Hardware threads available for task execution.
    """

    __slots__ = ("node_id", "ram_gb", "swap_gb", "cores", "executors",
                 "_is_up", "_speed_factor", "_state", "_slot",
                 "_dirty", "_active", "_apps",
                 "_reserved_memory", "_reserved_cpu")

    def __init__(self, node_id: int, ram_gb: float = 64.0,
                 swap_gb: float = 16.0, cores: int = 16,
                 executors: list[Executor] | None = None,
                 is_up: bool = True, speed_factor: float = 1.0) -> None:
        if ram_gb <= 0:
            raise ValueError("ram_gb must be positive")
        if swap_gb < 0:
            raise ValueError("swap_gb cannot be negative")
        if cores < 1:
            raise ValueError("cores must be at least 1")
        if speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        self.node_id = node_id
        self.ram_gb = ram_gb
        self.swap_gb = swap_gb
        self.cores = cores
        self.executors: list[Executor] = (
            list(executors) if executors is not None else [])
        self._is_up = bool(is_up)
        self._speed_factor = float(speed_factor)
        # Array-slot view: set by ClusterState.adopt_node when the node
        # joins a cluster; standalone nodes work purely off the scalars.
        self._state = None
        self._slot = None
        # Reservation aggregates are queried by schedulers many times per
        # placement pass; they are cached and invalidated on membership
        # changes and executor state transitions (executors notify their
        # node).
        self._dirty = True
        self._active: list[Executor] = []
        self._apps: set[str] = set()
        self._reserved_memory = 0.0
        self._reserved_cpu = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Node(node_id={self.node_id}, ram_gb={self.ram_gb}, "
                f"swap_gb={self.swap_gb}, cores={self.cores}, "
                f"executors={self.executors}, is_up={self.is_up}, "
                f"speed_factor={self.speed_factor})")

    # ------------------------------------------------------------------
    # Dual-written dynamic flags
    # ------------------------------------------------------------------
    @property
    def is_up(self) -> bool:
        """Whether the node is currently part of the live cluster.

        Failed or decommissioned nodes stay in the topology (their id is
        stable) but are skipped by every placement scan and admission
        test.
        """
        return self._is_up

    @is_up.setter
    def is_up(self, value: bool) -> None:
        self._is_up = bool(value)
        if self._state is not None:
            self._state._node["up"][self._slot] = self._is_up

    @property
    def speed_factor(self) -> float:
        """Progress multiplier applied to every executor on this node.

        The straggler fault model lowers it below 1.0 and restores it on
        recovery.  Healthy nodes run at exactly 1.0.
        """
        return self._speed_factor

    @speed_factor.setter
    def speed_factor(self, value: float) -> None:
        self._speed_factor = float(value)
        if self._state is not None:
            self._state._node["speed"][self._slot] = self._speed_factor
            # Speed is not a reservation aggregate, so no dirty refresh
            # is needed — but version-cached feature snapshots
            # (NodeFeatures) must observe straggler onset/recovery, so
            # the mutation still has to move the state version.
            self._state.version += 1

    # ------------------------------------------------------------------
    # Dynamic-cluster state transitions
    # ------------------------------------------------------------------
    def mark_down(self) -> None:
        """Take the node out of the live cluster (failure/decommission)."""
        self.is_up = False
        self.speed_factor = 1.0
        self.invalidate_reservations()

    def mark_up(self) -> None:
        """Return a failed node to the live cluster, at full speed."""
        self.is_up = True
        self.speed_factor = 1.0
        self.invalidate_reservations()

    def set_speed(self, factor: float) -> None:
        """Set the straggler progress multiplier (1.0 = healthy)."""
        if factor <= 0:
            raise ValueError("speed_factor must be positive")
        self.speed_factor = factor

    # ------------------------------------------------------------------
    # Executor management
    # ------------------------------------------------------------------
    def add_executor(self, executor: Executor) -> None:
        """Place an executor on this node."""
        if executor.node_id != self.node_id:
            raise ValueError("executor is destined for a different node")
        self.executors.append(executor)
        executor._node = self
        if self._state is not None and executor._state is None:
            self._state.adopt_executor(executor, self._slot)
        if not self._dirty and executor.is_active:
            # Appending an active executor to a clean node updates the
            # cached aggregates incrementally.  This is bit-for-bit equal
            # to the full recompute: ``_refresh`` accumulates left to
            # right and the newcomer sits at the end of the active list,
            # so old_sum + budget IS the recomputed sum.  (Removals
            # cannot be done this way — subtraction is not the exact
            # inverse of sequential addition — and still invalidate.)
            self._active.append(executor)
            self._apps.add(executor.app_name)
            self._reserved_memory += executor.memory_budget_gb
            self._reserved_cpu += executor.cpu_demand
            if self._state is not None:
                self._write_aggregates()
        else:
            self.invalidate_reservations()
        self.rebalance_threads()

    def remove_executor(self, executor: Executor) -> None:
        """Remove an executor (finished or failed) from this node."""
        self.executors.remove(executor)
        executor._node = None
        if executor._state is not None:
            executor._state.evict_executor(executor)
        self.invalidate_reservations()
        self.rebalance_threads()

    def invalidate_reservations(self) -> None:
        """Drop the cached aggregates (membership or activity changed)."""
        self._dirty = True
        if self._state is not None:
            self._state.mark_node_dirty(self._slot)

    def _refresh(self) -> None:
        if not self._dirty:
            return
        self._active = [e for e in self.executors if e.is_active]
        self._apps = {e.app_name for e in self._active}
        # Left to right, like the incremental update in ``add_executor``
        # (``sum()`` compensates float rounding from Python 3.12).
        reserved_memory = reserved_cpu = 0.0
        for e in self._active:
            reserved_memory += e.memory_budget_gb
            reserved_cpu += e.cpu_demand
        self._reserved_memory = reserved_memory
        self._reserved_cpu = reserved_cpu
        self._dirty = False
        if self._state is not None:
            self._write_aggregates()

    def _write_aggregates(self) -> None:
        """Mirror the cached aggregates into this node's array row.

        Column first (``nodes[column][slot]``): a field write through the
        row's ``np.void`` costs about three times as much.
        """
        nodes, slot = self._state._node, self._slot
        nodes["reserved_mem_gb"][slot] = self._reserved_memory
        nodes["reserved_cpu"][slot] = self._reserved_cpu
        nodes["n_active"][slot] = len(self._active)

    def active_executors(self) -> list[Executor]:
        """Executors still running work on this node."""
        self._refresh()
        return list(self._active)

    def applications(self) -> set[str]:
        """Names of the applications with an active executor on this node."""
        self._refresh()
        return set(self._apps)

    def rebalance_threads(self) -> None:
        """Evenly distribute the node's cores across active executors.

        The paper dynamically adjusts the number of threads created by each
        executor so that co-running executors share processor cores evenly
        (Section 4.3).
        """
        self._refresh()
        active = self._active
        if not active:
            return
        share = max(1, self.cores // len(active))
        for executor in active:
            executor.threads = share

    # ------------------------------------------------------------------
    # Reservation (scheduler-side) accounting
    # ------------------------------------------------------------------
    @property
    def reserved_memory_gb(self) -> float:
        """Total heap granted to executors still running on this node."""
        self._refresh()
        return self._reserved_memory

    @property
    def free_reserved_memory_gb(self) -> float:
        """Memory not yet promised to any executor."""
        return max(self.ram_gb - self.reserved_memory_gb, 0.0)

    @property
    def reserved_cpu_load(self) -> float:
        """Aggregate CPU demand of the active executors on this node."""
        self._refresh()
        return self._reserved_cpu

    @property
    def free_cpu_load(self) -> float:
        """Remaining CPU headroom before the aggregate load reaches 100 %."""
        return max(1.0 - self.reserved_cpu_load, 0.0)

    def can_host(self, memory_gb: float, cpu_load: float) -> bool:
        """Whether a new executor with the given demands fits this node.

        This is the paper's co-location admission test: the executor's
        memory must fit in the unreserved RAM, and the aggregate CPU load
        of all co-running tasks must not exceed 100 % (Section 4.3).
        Down nodes host nothing.
        """
        if memory_gb <= 0 or not self.is_up:
            return False
        return (
            memory_gb <= self.free_reserved_memory_gb + 1e-9
            and self.reserved_cpu_load + cpu_load <= 1.0 + 1e-9
        )
