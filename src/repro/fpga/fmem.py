"""FMem: the FPGA-attached DRAM used as a page cache for VFMem.

Design points straight from the paper (section 4.4, "Local translation"):

* 4-way set associative, block size = page size — a tradeoff that keeps
  the VFMem->FMem translation metadata small and the lookup latency low;
* FMem always caches whole pages; CPU caches provide temporal locality,
  FMem provides spatial locality;
* the CPU never addresses FMem; only the FPGA's agent does.

Each set is one dict of resident page tags (VFMem page indices) in LRU
order, least recent first: a hit moves its page to the end, a fill
into a full set pushes out the first page.  This is the discipline
:class:`~repro.coherence.agent.CoherentCache` keeps for the CPU cache.
:meth:`FMemCache.place` is the one access path; :meth:`FMemCache.touch`
counts what it does, and the batched engine's fused lane counts the
same events in batches (``repro.kona.engine``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common import units
from ..common.errors import ConfigError
from ..common.stats import Counter
from ..mem.address import is_power_of_two

#: FMem associativity (paper section 4.4).
WAYS = 4


class FMemCache:
    """Page-granularity cache of VFMem contents held in FMem.

    ``sets[i]`` holds the resident page tags of set ``i`` in LRU order
    (see the module docstring); ``occupancy`` is the resident page
    count.  Only :meth:`place`, :meth:`drop` and :meth:`evict_lru`
    change them, and the batched engine's replay loop, which inlines
    :meth:`place`.
    """

    def __init__(self, capacity: int, page_size: int = units.PAGE_4K) -> None:
        if page_size % units.PAGE_4K or not is_power_of_two(page_size):
            raise ConfigError(
                f"page size {page_size} is not a power-of-two multiple "
                f"of 4 KiB")
        if capacity < page_size * WAYS:
            raise ConfigError(
                f"FMem capacity {capacity} too small for {WAYS} ways")
        # Round down to the largest power-of-two set count; mirrors how
        # hardware would be provisioned.
        sets = capacity // (page_size * WAYS)
        sets = 1 << (sets.bit_length() - 1)
        self.page_size = page_size
        self.num_sets = sets
        self.set_mask = sets - 1
        self.sets: List[Dict[int, None]] = [{} for _ in range(sets)]
        self.occupancy = 0
        self.counters = Counter()

    @property
    def capacity(self) -> int:
        """Usable FMem bytes (power-of-two set count enforced)."""
        return self.num_sets * WAYS * self.page_size

    @property
    def num_frames(self) -> int:
        """Page frames available."""
        return self.num_sets * WAYS

    def lookup(self, vfmem_addr: int) -> bool:
        """Local translation: is the page holding ``vfmem_addr`` cached?

        Does not disturb replacement state (pure probe).
        """
        tag = vfmem_addr // self.page_size
        return tag in self.sets[tag & self.set_mask]

    def place(self, tag: int) -> Tuple[bool, Optional[int]]:
        """Access page ``tag`` in LRU order; counts nothing.

        A resident page moves to the end of its set; a missing page is
        filled, pushing out the set's first (least recent) page when
        the set is full.  Returns ``(hit, victim_tag)``.
        """
        pages = self.sets[tag & self.set_mask]
        if tag in pages:
            del pages[tag]
            pages[tag] = None
            return True, None
        victim = None
        if len(pages) >= WAYS:
            victim = next(iter(pages))
            del pages[victim]
        else:
            self.occupancy += 1
        pages[tag] = None
        return False, victim

    def touch(self, vfmem_addr: int) -> Tuple[bool, Optional[int]]:
        """Access the page for ``vfmem_addr``; fill on miss.

        Returns ``(hit, victim_page_addr)``: the VFMem byte address of
        the page pushed out to make room, or None.  The dirty state of
        evicted pages is *not* tracked here — the dirty bitmap is
        authoritative at cache-line granularity, so FMem treats all
        fills as clean.
        """
        hit, victim = self.place(vfmem_addr // self.page_size)
        if hit:
            self.counters.add("hits")
            return True, None
        self.counters.add("fills")
        if victim is None:
            return False, None
        self.counters.add("evictions")
        return False, victim * self.page_size

    def drop(self, vfmem_page_addr: int) -> bool:
        """Invalidate one cached page (after an explicit writeback)."""
        tag = vfmem_page_addr // self.page_size
        pages = self.sets[tag & self.set_mask]
        if tag not in pages:
            return False
        del pages[tag]
        self.occupancy -= 1
        return True

    def resident_pages(self) -> List[int]:
        """VFMem byte addresses of all cached pages (sorted)."""
        return sorted(tag * self.page_size
                      for pages in self.sets for tag in pages)

    @property
    def occupancy_fraction(self) -> float:
        """Resident pages over total frames (watermark input)."""
        return self.occupancy / self.num_frames

    def evict_lru(self, count: int) -> List[int]:
        """Drop up to ``count`` least-recently-used pages.

        Used by watermark-driven proactive eviction: making room ahead
        of demand keeps evictions off the fetch path entirely.  Each
        pass takes the LRU page of every non-empty set, in set order,
        until the budget is spent — good enough for a background
        reclaimer.  Returns the VFMem page addresses dropped, in drop
        order (the caller writes back their dirty lines).
        """
        dropped: List[int] = []
        while len(dropped) < count and self.occupancy:
            for pages in self.sets:
                if len(dropped) >= count:
                    break
                if pages:
                    victim = next(iter(pages))
                    del pages[victim]
                    self.occupancy -= 1
                    dropped.append(victim * self.page_size)
        if dropped:
            self.counters.add("proactive_evictions", len(dropped))
        return dropped

    @property
    def hit_ratio(self) -> float:
        """Lifetime hit ratio of the page cache."""
        hits = self.counters["hits"]
        accesses = hits + self.counters["fills"]
        return hits / accesses if accesses else 0.0
