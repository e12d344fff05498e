"""YARN-like resource-manager bookkeeping.

The paper's runtime is built on YARN (Section 4): executors run inside
containers whose memory size is granted by the resource manager.  The
:class:`ResourceManager` here provides that admission layer — schedulers
request containers with a memory size and CPU demand, and the manager
grants them only when the target node can host the request under the
co-location constraints (memory within unreserved RAM, aggregate CPU at
most 100 %).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster

__all__ = ["ContainerRequest", "ContainerGrant", "ResourceManager"]

_CONTAINER_IDS = itertools.count()


@dataclass(frozen=True)
class ContainerRequest:
    """A request for an executor container on a specific node."""

    app_name: str
    node_id: int
    memory_gb: float
    cpu_load: float

    def __post_init__(self) -> None:
        if self.memory_gb <= 0:
            raise ValueError("memory_gb must be positive")
        if not 0 < self.cpu_load <= 1.0:
            raise ValueError("cpu_load must be in (0, 1]")


@dataclass(frozen=True)
class ContainerGrant:
    """A granted container: the request plus its container identifier."""

    container_id: int
    request: ContainerRequest


@dataclass
class ResourceManager:
    """Grants executor containers subject to per-node co-location limits."""

    cluster: Cluster
    grants: list[ContainerGrant] = field(default_factory=list)

    def can_satisfy(self, request: ContainerRequest) -> bool:
        """Whether the requested container fits its target node right now."""
        node = self.cluster.node(request.node_id)
        return node.can_host(request.memory_gb, request.cpu_load)

    def grant(self, request: ContainerRequest) -> ContainerGrant:
        """Grant a container, raising ``RuntimeError`` if it does not fit.

        Granting does not place an executor.  The simulator's scheduling
        context places executors and applies the same admission test
        itself (``Node.can_host``), without filing grants.
        """
        if not self.can_satisfy(request):
            raise RuntimeError(
                f"node {request.node_id} cannot host a "
                f"{request.memory_gb:.1f} GB / {request.cpu_load:.0%} container"
            )
        grant = ContainerGrant(container_id=next(_CONTAINER_IDS), request=request)
        self.grants.append(grant)
        return grant

    def release(self, grant: ContainerGrant) -> None:
        """Release a previously granted container."""
        self.grants.remove(grant)

    def granted_memory_gb(self, node_id: int) -> float:
        """Total memory granted on a node across live grants."""
        return sum(
            g.request.memory_gb for g in self.grants if g.request.node_id == node_id
        )
