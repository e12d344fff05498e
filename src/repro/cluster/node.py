"""A single computing node.

Mirrors the paper's hardware: each node has 64 GB of RAM, 16 GB of swap and
an 8-core/16-thread CPU (Section 5.1).  A node hosts executor processes;
the memory *reservations* (scheduler bookkeeping, i.e. granted heap sizes)
are tracked separately from the *actual* footprints, which the simulator
computes from ground truth — the gap between the two is exactly where
mispredicted memory requirements cause paging or out-of-memory failures.

A node lives in a :class:`~repro.cluster.cluster.Cluster` and is a view
over one row of the cluster's node array (:mod:`repro.cluster.state`):
``is_up``, ``speed_factor`` and the reservation sums are read from and
written to that row only, so the engines' capacity accounting runs over
columns while schedulers keep the object API.  The node itself holds
its static capacities and its executor objects.
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

    # ``__weakref__``: the cluster state's back-map refers to its nodes
    # weakly, so a finished run is freed by reference counting.
    __slots__ = ("node_id", "ram_gb", "swap_gb", "cores", "executors",
                 "_state", "_slot", "_active", "__weakref__")

    def __init__(self, node_id: int, ram_gb: float = 64.0,
                 swap_gb: float = 16.0, cores: int = 16) -> None:
        if ram_gb <= 0:
            raise ValueError("ram_gb must be positive")
        if swap_gb < 0:
            raise ValueError("swap_gb cannot be negative")
        if cores < 1:
            raise ValueError("cores must be at least 1")
        self.node_id = node_id
        self.ram_gb = ram_gb
        self.swap_gb = swap_gb
        self.cores = cores
        self.executors: list[Executor] = []
        # The row this node views: set by ClusterState.adopt_node when
        # the node joins a cluster.
        self._state = None
        self._slot = None
        # The active executors in insertion order, rebuilt with the
        # reservation sums whenever the node's row is refreshed.
        self._active: list[Executor] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Node(node_id={self.node_id}, ram_gb={self.ram_gb}, "
                f"swap_gb={self.swap_gb}, cores={self.cores}, "
                f"executors={self.executors})")

    # ------------------------------------------------------------------
    # Dynamic-cluster state (the row's ``up``/``speed`` cells)
    # ------------------------------------------------------------------
    @property
    def is_up(self) -> bool:
        """Whether the node is currently part of the live cluster.

        Failed or decommissioned nodes stay in the topology (their id is
        stable) but are skipped by every placement scan and admission
        test.
        """
        return bool(self._state._node["up"][self._slot])

    @property
    def speed_factor(self) -> float:
        """Progress multiplier applied to every executor on this node.

        The straggler fault model lowers it below 1.0 and restores it on
        recovery.  Healthy nodes run at exactly 1.0.
        """
        return float(self._state._node["speed"][self._slot])

    def mark_down(self) -> None:
        """Take the node out of the live cluster (failure/decommission)."""
        nodes, slot = self._state._node, self._slot
        nodes["up"][slot] = False
        nodes["speed"][slot] = 1.0
        self.invalidate_reservations()

    def mark_up(self) -> None:
        """Return a failed node to the live cluster, at full speed."""
        nodes, slot = self._state._node, self._slot
        nodes["up"][slot] = True
        nodes["speed"][slot] = 1.0
        self.invalidate_reservations()

    def set_speed(self, factor: float) -> None:
        """Set the straggler progress multiplier (1.0 = healthy)."""
        if factor <= 0:
            raise ValueError("speed_factor must be positive")
        self._state._node["speed"][self._slot] = factor
        # Speed is not a reservation sum, so the row stays clean, but
        # version-cached feature snapshots (NodeFeatures) must observe
        # straggler onset and recovery.
        self._state.version += 1

    # ------------------------------------------------------------------
    # Executor management
    # ------------------------------------------------------------------
    def add_executor(self, executor: Executor) -> None:
        """Place an executor on this node."""
        if executor.node_id != self.node_id:
            raise ValueError("executor is destined for a different node")
        state, slot = self._state, self._slot
        self.executors.append(executor)
        executor._node = self
        state.adopt_executor(executor, slot)
        if slot not in state._dirty_nodes and executor.is_active:
            # Appending an active executor to a clean row updates its sums
            # in place.  This is bit-for-bit equal to the full recompute:
            # ``_refresh`` accumulates left to right and the newcomer sits
            # at the end of the active list, so old_sum + budget IS the
            # recomputed sum.  (Removals cannot be done this way —
            # subtraction is not the exact inverse of sequential addition
            # — and still invalidate.)  Column first (``nodes[column][slot]``):
            # a field write through the row's ``np.void`` costs about three
            # times as much.
            self._active.append(executor)
            nodes = state._node
            nodes["reserved_mem_gb"][slot] += executor.memory_budget_gb
            nodes["reserved_cpu"][slot] += executor.cpu_demand
            nodes["n_active"][slot] += 1
        else:
            self.invalidate_reservations()

    def remove_executor(self, executor: Executor) -> None:
        """Remove an executor (finished or failed) from this node."""
        self.executors.remove(executor)
        executor._node = None
        self._state.evict_executor(executor)
        self.invalidate_reservations()

    def invalidate_reservations(self) -> None:
        """Mark the row's reservation sums stale (membership or activity
        changed)."""
        self._state.mark_node_dirty(self._slot)

    def _refresh(self) -> None:
        """Recompute the row's reservation sums if they are stale."""
        state, slot = self._state, self._slot
        if slot not in state._dirty_nodes:
            return
        state._dirty_nodes.discard(slot)
        self._active = active = [e for e in self.executors if e.is_active]
        # Left to right, like the incremental update in ``add_executor``
        # (``sum()`` compensates float rounding from Python 3.12).
        reserved_memory = reserved_cpu = 0.0
        for e in active:
            reserved_memory += e.memory_budget_gb
            reserved_cpu += e.cpu_demand
        nodes = state._node
        nodes["reserved_mem_gb"][slot] = reserved_memory
        nodes["reserved_cpu"][slot] = reserved_cpu
        nodes["n_active"][slot] = len(active)

    def active_executors(self) -> list[Executor]:
        """Executors still running work on this node."""
        self._refresh()
        return list(self._active)

    # ------------------------------------------------------------------
    # Reservation (scheduler-side) accounting
    # ------------------------------------------------------------------
    @property
    def reserved_memory_gb(self) -> float:
        """Total heap granted to executors still running on this node."""
        self._refresh()
        return float(self._state._node["reserved_mem_gb"][self._slot])

    @property
    def free_reserved_memory_gb(self) -> float:
        """Memory not yet promised to any executor."""
        return max(self.ram_gb - self.reserved_memory_gb, 0.0)

    @property
    def reserved_cpu_load(self) -> float:
        """Aggregate CPU demand of the active executors on this node."""
        self._refresh()
        return float(self._state._node["reserved_cpu"][self._slot])

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
