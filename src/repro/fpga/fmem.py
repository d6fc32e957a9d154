"""FMem: the FPGA-attached DRAM used as a page cache for VFMem.

Design points straight from the paper (section 4.4, "Local translation"):

* 4-way set associative, block size = page size — a tradeoff that keeps
  the VFMem->FMem translation metadata small and the lookup latency low;
* FMem always caches whole pages; CPU caches provide temporal locality,
  FMem provides spatial locality;
* the CPU never addresses FMem; only the FPGA's agent does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..common import units
from ..common.errors import ConfigError
from ..common.stats import Counter
from ..cache.setassoc import SetAssociativeCache
from ..mem.address import is_power_of_two


@dataclass(frozen=True)
class PageEviction:
    """A page pushed out of FMem to make room."""

    vfmem_page_addr: int     # byte address of the evicted page in VFMem


class FMemCache:
    """Page-granularity cache of VFMem contents held in FMem."""

    def __init__(self, capacity: int, page_size: int = units.PAGE_4K,
                 ways: int = 4, policy: str = "lru") -> None:
        if page_size % units.PAGE_4K:
            raise ConfigError(f"page size {page_size} not 4 KiB aligned")
        if capacity < page_size * ways:
            raise ConfigError(
                f"FMem capacity {capacity} too small for {ways} ways")
        sets = capacity // (page_size * ways)
        if not is_power_of_two(sets):
            # Shrink to the largest power-of-two set count; mirrors how
            # hardware would be provisioned.
            sets = 1 << (sets.bit_length() - 1)
            capacity = sets * page_size * ways
        self.page_size = page_size
        self._cache = SetAssociativeCache("FMem", capacity, page_size,
                                          ways, policy)
        self.counters = Counter()

    @property
    def capacity(self) -> int:
        """Usable FMem bytes (power-of-two set count enforced)."""
        return self._cache.capacity

    @property
    def num_frames(self) -> int:
        """Page frames available."""
        return self.capacity // self.page_size

    def lookup(self, vfmem_addr: int) -> bool:
        """Local translation: is the page holding ``vfmem_addr`` cached?

        Does not disturb replacement state (pure probe).
        """
        return self._cache.probe(vfmem_addr)

    def touch(self, vfmem_addr: int) -> Tuple[bool, Optional[PageEviction]]:
        """Access the page for ``vfmem_addr``; fill on miss.

        Returns ``(hit, eviction)``.  The dirty state of evicted pages
        is *not* tracked here — the dirty bitmap is authoritative at
        cache-line granularity, so FMem treats all fills as clean.
        """
        hit, eviction = self._cache.access(vfmem_addr, is_write=False)
        if hit:
            self.counters.add("hits")
            return True, None
        self.counters.add("fills")
        if eviction is not None:
            self.counters.add("evictions")
            return False, PageEviction(vfmem_page_addr=eviction.block_addr)
        return False, None

    def drop(self, vfmem_page_addr: int) -> bool:
        """Invalidate one cached page (after an explicit writeback)."""
        return self._cache.invalidate(vfmem_page_addr) is not None

    def resident_pages(self) -> List[int]:
        """VFMem byte addresses of all cached pages (sorted)."""
        return self._cache.resident_blocks()

    @property
    def occupancy_fraction(self) -> float:
        """Resident pages over total frames (watermark input)."""
        return self._cache.occupancy / self.num_frames

    def evict_lru(self, count: int) -> List[int]:
        """Drop up to ``count`` least-recently-used pages.

        Used by watermark-driven proactive eviction: making room ahead
        of demand keeps evictions off the fetch path entirely.  Returns
        the VFMem page addresses dropped (the caller writes back their
        dirty lines).
        """
        dropped: List[int] = []
        for lines, policy in zip(self._cache._lines, self._cache._policies):
            # Round-robin over sets, one LRU victim per pass, until the
            # budget is spent; good enough for a background reclaimer.
            if len(dropped) >= count:
                break
            if lines:
                victim = policy.evict()
                lines.pop(victim)
                self._cache._occupied -= 1
                dropped.append(victim * self.page_size)
        if dropped:
            self.counters.add("proactive_evictions", len(dropped))
        remaining = count - len(dropped)
        if remaining > 0 and self._cache.occupancy > 0:
            dropped.extend(self.evict_lru(remaining))
        return dropped

    @property
    def occupancy(self) -> int:
        """Number of cached pages."""
        return self._cache.occupancy

    @property
    def hit_ratio(self) -> float:
        """Lifetime hit ratio of the page cache."""
        stats = self._cache.stats
        if stats.accesses == 0:
            return 0.0
        return stats.hits / stats.accesses
