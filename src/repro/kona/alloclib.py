"""AllocLib: the allocation interposition library.

Applications keep calling ``malloc``/``free``/``mmap``; AllocLib
interposes (paper section 4.1) and serves them from VFMem-backed
memory, asking the Resource Manager to bind more slabs when the
reserve runs low.  The allocator is a simple segregated free-list over
a bump pointer — enough fidelity for the runtime's accounting; the
interesting behaviour (slab batching off the critical path) lives in
the Resource Manager.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common import units
from ..common.errors import AllocationError, ConfigError
from ..common.stats import Counter
from ..mem.address import AddressRange, align_up
from .resource_manager import ResourceManager

#: Allocations are rounded up to this granularity (one cache line), so
#: distinct objects never share a line and dirty tracking stays precise.
MIN_ALIGN = units.CACHE_LINE


class AllocLib:
    """malloc/free/mmap interposition over VFMem."""

    def __init__(self, resource_manager: ResourceManager) -> None:
        self.rm = resource_manager
        self._bump = resource_manager.vfmem.start
        self._limit = resource_manager.vfmem.end
        self._live: Dict[int, int] = {}          # addr -> size
        self._free_lists: Dict[int, List[int]] = {}   # size -> [addr]
        self.counters = Counter()
        self.bytes_allocated = 0
        self.bytes_freed = 0

    # -- malloc/free ---------------------------------------------------------------

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes of transparent remote memory."""
        if size <= 0:
            raise ConfigError(f"malloc of {size} bytes")
        rounded = align_up(size, MIN_ALIGN)
        addr = self._take_from_free_list(rounded)
        if addr is None:
            addr = self._bump_allocate(rounded)
        self._live[addr] = rounded
        self.bytes_allocated += rounded
        self.counters.add("mallocs")
        return addr

    def free(self, addr: int) -> None:
        """Release an allocation back to the local free lists."""
        size = self._live.pop(addr, None)
        if size is None:
            raise AllocationError(f"free of unallocated address {addr:#x}")
        self._free_lists.setdefault(size, []).append(addr)
        self.bytes_freed += size
        self.counters.add("frees")

    def mmap(self, size: int) -> AddressRange:
        """Map a page-aligned region (large allocations take this path)."""
        if size <= 0:
            raise ConfigError(f"mmap of {size} bytes")
        rounded = align_up(size, units.PAGE_4K)
        self._bump = align_up(self._bump, units.PAGE_4K)
        addr = self._bump_allocate(rounded)
        self._live[addr] = rounded
        self.bytes_allocated += rounded
        self.counters.add("mmaps")
        return AddressRange(addr, rounded)

    # -- internals --------------------------------------------------------------------

    def _take_from_free_list(self, size: int) -> Optional[int]:
        bucket = self._free_lists.get(size)
        if bucket:
            self.counters.add("free_list_hits")
            return bucket.pop()
        return None

    def _bump_allocate(self, size: int) -> int:
        if self._bump + size > self._limit:
            raise AllocationError(
                f"VFMem address space exhausted "
                f"({self._limit - self._bump} bytes left, need {size})")
        # Make sure remote backing exists before handing out the range.
        needed = (self._bump + size) - self.rm.vfmem.start
        self.rm.ensure(needed)
        addr = self._bump
        self._bump += size
        return addr

    # -- inspection ---------------------------------------------------------------------

    @property
    def live_bytes(self) -> int:
        """Bytes currently allocated to the application."""
        return sum(self._live.values())

    def size_of(self, addr: int) -> int:
        """Size of a live allocation."""
        try:
            return self._live[addr]
        except KeyError:
            raise AllocationError(f"{addr:#x} is not a live allocation") from None

    def owns(self, addr: int) -> bool:
        """True if ``addr`` is inside any live allocation."""
        for start, size in self._live.items():
            if start <= addr < start + size:
                return True
        return False
