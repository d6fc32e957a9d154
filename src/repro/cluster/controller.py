"""The rack controller: centralized coarse-grained memory allocation.

Memory nodes register their pools with the controller; compute nodes'
resource managers request slabs.  Allocation is deliberately simple —
the paper assumes a centralized controller handing out large slabs off
the critical path (section 4.1) — so slabs go round-robin across live
nodes, and replicas land on distinct nodes through ``exclude``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common.errors import AllocationError, ConfigError, NodeFailure
from ..common.stats import Counter
from .memnode import MemoryNode
from .slab import Slab


class RackController:
    """Allocates disaggregated memory from registered memory nodes."""

    def __init__(self) -> None:
        self._nodes: Dict[str, MemoryNode] = {}
        self._rr_order: List[str] = []
        self._rr_next = 0
        self.counters = Counter()

    # -- registration -------------------------------------------------------------

    def register_node(self, node: MemoryNode) -> None:
        """A memory node exposes its pool to the rack."""
        if node.name in self._nodes:
            raise ConfigError(f"node {node.name!r} already registered")
        self._nodes[node.name] = node
        self._rr_order.append(node.name)
        self.counters.add("nodes_registered")

    def remove_node(self, name: str) -> None:
        """Withdraw a node's pool (decommissioning)."""
        if name not in self._nodes:
            raise ConfigError(f"node {name!r} not registered")
        del self._nodes[name]
        self._rr_order.remove(name)
        self._rr_next = 0
        self.counters.add("nodes_removed")

    @property
    def nodes(self) -> List[str]:
        """Names of registered nodes."""
        return list(self._rr_order)

    def node(self, name: str) -> MemoryNode:
        """Look up a registered node."""
        try:
            return self._nodes[name]
        except KeyError:
            raise ConfigError(f"node {name!r} not registered") from None

    # -- allocation ------------------------------------------------------------------

    def allocate_slabs(self, count: int,
                       exclude: Optional[List[str]] = None) -> List[Slab]:
        """Allocate ``count`` slabs round-robin across live nodes.

        ``exclude`` skips nodes (used to place replicas on distinct
        nodes).  Raises :class:`AllocationError` if the rack cannot
        satisfy the request.
        """
        if count <= 0:
            raise ConfigError(f"count must be positive, got {count}")
        excluded = set(exclude or ())
        candidates = [n for n in self._rr_order if n not in excluded]
        if not candidates:
            raise AllocationError("no eligible memory nodes")
        slabs: List[Slab] = []
        attempts = 0
        max_attempts = count * max(len(candidates), 1) * 2
        while len(slabs) < count:
            if attempts >= max_attempts:
                for slab in slabs:   # roll back partial allocation
                    self._nodes[slab.node].reclaim_slab(slab)
                raise AllocationError(
                    f"rack cannot satisfy {count} slabs "
                    f"(got {len(slabs)} before exhaustion)")
            attempts += 1
            node = self._pick_node(candidates)
            if not node.alive or node.pool.free_slabs == 0:
                continue
            try:
                slabs.append(node.grant_slab())
            except (AllocationError, NodeFailure):
                continue
        self.counters.add("slabs_allocated", count)
        return slabs

    def _pick_node(self, candidates: List[str]) -> MemoryNode:
        name = candidates[self._rr_next % len(candidates)]
        self._rr_next += 1
        return self._nodes[name]

    def release_slabs(self, slabs: List[Slab]) -> None:
        """Return slabs to their owning nodes (dead nodes are skipped)."""
        for slab in slabs:
            node = self._nodes.get(slab.node)
            if node is not None and node.alive:
                node.reclaim_slab(slab)
        self.counters.add("slabs_released", len(slabs))

    # -- capacity inspection -------------------------------------------------------------

    def free_slab_count(self) -> int:
        """Free slabs across all live nodes."""
        return sum(n.pool.free_slabs for n in self._nodes.values() if n.alive)

    def total_capacity(self) -> int:
        """Registered bytes across all live nodes."""
        return sum(n.capacity for n in self._nodes.values() if n.alive)
