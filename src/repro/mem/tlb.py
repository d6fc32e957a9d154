"""A set-associative TLB model.

Page-based remote-memory systems pay TLB costs twice: every protection
change (dirty-tracking round) and every eviction requires invalidating
entries, and on multi-core hosts that means inter-processor-interrupt
shootdowns.  Kona's data path never touches translations, so its TLB
behaviour is that of an ordinary local-memory application.

The TLB here is a single-level model; multi-level TLBs only change
constants, not the comparison the paper makes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common import units
from ..common.errors import ConfigError
from ..common.stats import Counter
from .address import is_power_of_two


class TLB:
    """Set-associative translation lookaside buffer (LRU per set)."""

    def __init__(self, entries: int = 1536, ways: int = 12,
                 page_size: int = units.PAGE_4K) -> None:
        if entries <= 0 or ways <= 0 or entries % ways:
            raise ConfigError(
                f"entries={entries} must be a positive multiple of ways={ways}")
        self.num_sets = entries // ways
        if not is_power_of_two(self.num_sets):
            raise ConfigError(f"number of sets {self.num_sets} must be a power of two")
        self.ways = ways
        self.page_size = page_size
        # Each set is an LRU-ordered list of VPNs (most recent last).
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self._where: Dict[int, int] = {}
        self.counters = Counter()

    def _set_of(self, vpn: int) -> int:
        return vpn & (self.num_sets - 1)

    def lookup(self, vpn: int) -> bool:
        """Probe the TLB; True on hit.  Hits are LRU-promoted."""
        idx = self._where.get(vpn)
        if idx is None:
            self.counters.add("misses")
            return False
        entries = self._sets[idx]
        entries.remove(vpn)
        entries.append(vpn)
        self.counters.add("hits")
        return True

    def insert(self, vpn: int) -> Optional[int]:
        """Fill after a walk; returns the evicted VPN if a victim was chosen."""
        idx = self._set_of(vpn)
        entries = self._sets[idx]
        victim: Optional[int] = None
        if vpn in self._where:
            entries.remove(vpn)
        elif len(entries) >= self.ways:
            victim = entries.pop(0)
            del self._where[victim]
            self.counters.add("evictions")
        entries.append(vpn)
        self._where[vpn] = idx
        self.counters.add("fills")
        return victim

    def invalidate(self, vpn: int) -> bool:
        """Drop one translation (after a PTE change); True if it was cached."""
        idx = self._where.pop(vpn, None)
        self.counters.add("invalidations")
        if idx is None:
            return False
        self._sets[idx].remove(vpn)
        return True

    def flush(self) -> int:
        """Flush everything (full shootdown); returns entries dropped."""
        dropped = len(self._where)
        self._sets = [[] for _ in range(self.num_sets)]
        self._where.clear()
        self.counters.add("flushes")
        return dropped

    @property
    def occupancy(self) -> int:
        """Number of live translations."""
        return len(self._where)
