"""A write-back, write-allocate set-associative cache model.

The scalar engine of KCacheSim's hierarchy
(:mod:`repro.cache.hierarchy`), used both for the on-chip levels (64 B
blocks) and for the DRAM cache level (4 KB blocks, 4-way — paper
section 4.4 "Local translation").  The model tracks residency and
dirtiness per block; it does not carry data, which is what keeps
trace-driven simulation fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..common.errors import ConfigError
from ..mem.address import is_power_of_two
from .replacement import ReplacementPolicy, make_policy


@dataclass(frozen=True)
class Eviction:
    """A victim pushed out of the cache on a fill."""

    block_addr: int    # byte address of the block's first byte
    dirty: bool


@dataclass
class CacheStats:
    """Hit/miss/writeback counts for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses observed."""
        return self.hits + self.misses


class SetAssociativeCache:
    """One level of cache with configurable geometry and policy."""

    def __init__(self, name: str, capacity: int, block_size: int,
                 ways: int, policy: str = "lru") -> None:
        if capacity <= 0 or block_size <= 0 or ways <= 0:
            raise ConfigError("capacity, block_size and ways must be positive")
        if not is_power_of_two(block_size):
            raise ConfigError(f"block_size {block_size} must be a power of two")
        if capacity % (block_size * ways):
            raise ConfigError(
                f"capacity {capacity} not divisible by block_size*ways "
                f"({block_size}*{ways})")
        num_sets = capacity // (block_size * ways)
        if not is_power_of_two(num_sets):
            raise ConfigError(f"number of sets {num_sets} must be a power of two")
        self.name = name
        self.capacity = capacity
        self.block_size = block_size
        self.ways = ways
        self.num_sets = num_sets
        # Per set: dict of tag -> dirty flag, plus a replacement policy.
        self._lines: List[Dict[int, bool]] = [{} for _ in range(num_sets)]
        self._policies: List[ReplacementPolicy] = [
            make_policy(policy) for _ in range(num_sets)]
        # Resident-block count, maintained incrementally: occupancy is
        # polled on hot paths (watermark checks every 256 accesses) and
        # summing thousands of set dicts there is measurable.
        self._occupied = 0
        self.stats = CacheStats()

    def _locate(self, addr: int) -> Tuple[int, int]:
        block = addr // self.block_size
        return block & (self.num_sets - 1), block

    # -- the access path ------------------------------------------------------

    def access(self, addr: int, is_write: bool) -> Tuple[bool, Optional[Eviction]]:
        """Access one byte address.

        Returns ``(hit, eviction)``.  On a miss the block is allocated
        (write-allocate) and the returned eviction describes the victim,
        if the set was full.
        """
        set_idx, tag = self._locate(addr)
        lines = self._lines[set_idx]
        policy = self._policies[set_idx]
        # One dict lookup resolves residency and dirtiness together;
        # only a clean->dirty transition writes back into the dict.
        dirty = lines.get(tag)
        if dirty is not None:
            self.stats.hits += 1
            policy.touch(tag)
            if is_write and not dirty:
                lines[tag] = True
            return True, None

        self.stats.misses += 1
        eviction: Optional[Eviction] = None
        if len(lines) >= self.ways:
            victim = policy.evict()
            dirty = lines.pop(victim)
            self.stats.evictions += 1
            if dirty:
                self.stats.dirty_writebacks += 1
            eviction = Eviction(block_addr=victim * self.block_size, dirty=dirty)
        else:
            self._occupied += 1
        lines[tag] = is_write
        policy.insert(tag)
        return False, eviction

    def is_dirty(self, addr: int) -> bool:
        """True if the containing block is resident and dirty."""
        set_idx, tag = self._locate(addr)
        return self._lines[set_idx].get(tag, False)

    @property
    def occupancy(self) -> int:
        """Number of resident blocks (O(1); incrementally maintained)."""
        return self._occupied

    def resident_blocks(self) -> List[int]:
        """Sorted byte addresses of all resident blocks."""
        blocks = []
        for lines in self._lines:
            blocks.extend(tag * self.block_size for tag in lines)
        return sorted(blocks)
