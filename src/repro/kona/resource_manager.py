"""KLib's Resource Manager: slab pre-allocation and VFMem binding.

The resource manager talks to the rack controller *off the critical
path*: it requests slabs in batches, binds each slab to a slab-aligned
VFMem window in the remote-translation map, and records the window in
the page table once, as an always-present page range (paper section
4.4, "Allocating remote memory" — no physical memory is allocated,
only translations to the fake VFMem space).
"""

from __future__ import annotations

from typing import List, Optional

from ..common.errors import AllocationError
from ..common.stats import Counter
from ..cluster.controller import RackController
from ..cluster.slab import Slab
from ..fpga.translation import RemoteTranslationMap
from ..mem.address import AddressRange
from ..mem.pagetable import PageTable
from .config import KonaConfig


class ResourceManager:
    """Pre-allocates disaggregated memory and wires up translations."""

    def __init__(self, config: KonaConfig, controller: RackController,
                 translation: RemoteTranslationMap, vfmem: AddressRange,
                 page_table: Optional[PageTable] = None) -> None:
        self.config = config
        self.controller = controller
        self.translation = translation
        self.vfmem = vfmem
        self.page_table = page_table
        self._next_window = 0         # next unbound slab slot in VFMem
        self._windows: List[int] = [] # VFMem start addresses of bound windows
        self._slabs: List[Slab] = []
        self._replica_slabs: List[Slab] = []
        #: Replication manager (set by the runtime): learns each bound
        #: window's replica set so it can lease, promote and re-replicate.
        self.replication = None
        self.counters = Counter()

    @property
    def bound_bytes(self) -> int:
        """Remote memory currently reachable through VFMem."""
        return len(self._windows) * self.config.slab_bytes

    @property
    def vfmem_windows(self) -> int:
        """Total slab-sized windows VFMem can hold."""
        return self.vfmem.size // self.config.slab_bytes

    def ensure(self, nbytes: int) -> None:
        """Guarantee at least ``nbytes`` of bound remote memory exist.

        Called by AllocLib before an application allocation; grows the
        binding in slab batches so most calls are no-ops.
        """
        while self.bound_bytes < nbytes:
            self._grow()

    def _grow(self) -> None:
        windows_left = self.vfmem_windows - len(self._windows)
        if windows_left <= 0:
            raise AllocationError(
                f"VFMem exhausted: {self.vfmem_windows} windows bound")
        batch = min(self.config.slab_batch, windows_left)
        replicas_needed = self.config.replication_factor - 1
        primaries = self.controller.allocate_slabs(batch)
        self._slabs.extend(primaries)
        for primary in primaries:
            replica_slabs: List[Slab] = []
            if replicas_needed:
                replica_slabs = self.controller.allocate_slabs(
                    replicas_needed, exclude=[primary.node])
                self._replica_slabs.extend(replica_slabs)
            vf_addr = self.vfmem.start + self._next_window * self.config.slab_bytes
            self.translation.bind(vf_addr, primary,
                                  replicas=replica_slabs or None)
            if self.replication is not None:
                self.replication.register(vf_addr, primary, replica_slabs)
            self._windows.append(vf_addr)
            self._next_window += 1
            self._map_window(vf_addr)
        self.counters.add("slab_batches")
        self.counters.add("slabs_bound", len(primaries))

    def _map_window(self, vf_addr: int) -> None:
        """Record one VFMem window as always-present pages.

        Pages are marked present immediately — VFMem is fake physical
        memory, so no data moves; this is what removes page faults from
        Kona's data path.  One page-table record covers the window.
        """
        if self.page_table is None:
            return
        page_size = self.page_table.page_size
        count = self.config.slab_bytes // page_size
        self.page_table.map_window(vf_addr // page_size, count)
        self.counters.add("pages_mapped", count)

    def release_all(self) -> None:
        """Return every slab to the rack (process teardown) and drop
        each window's translations and page-table record."""
        self.controller.release_slabs(self._slabs + self._replica_slabs)
        for vf_addr in self._windows:
            self.translation.unbind(vf_addr)
            if self.page_table is not None:
                page_size = self.page_table.page_size
                self.page_table.unmap_window(
                    vf_addr // page_size, self.config.slab_bytes // page_size)
        self._slabs.clear()
        self._replica_slabs.clear()
        self._windows.clear()
        self._next_window = 0
        self.counters.add("teardowns")
