"""A multi-level cache hierarchy driven by memory-access traces.

This is the engine under KCacheSim (paper section 5): run a trace
through L1/L2/L3 plus an optional DRAM cache level (FMem for Kona,
local page cache for the baselines) and report where each access was
served.  The paper's AMAT methodology needs only the per-level service
counts; data movement costs are priced afterwards by
:mod:`repro.cache.amat`.

Two interchangeable engines drive the trace:

* ``engine="scalar"`` — one access at a time through per-set dicts
  (:class:`~repro.cache.setassoc.SetAssociativeCache`).  Slow, simple,
  supports every replacement policy; the reference oracle.
* ``engine="vectorized"`` — the bulk ndarray kernel
  (:class:`~repro.cache.vectorized.VectorizedCache`).  Each level
  consumes only the miss stream of the level above, filtered with
  boolean masks, so lower levels see tiny arrays on cache-friendly
  traces.  Bit-identical to the scalar engine for LRU/FIFO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..common import units
from ..common.errors import ConfigError
from .setassoc import SetAssociativeCache
from .vectorized import VectorizedCache

#: Engines a hierarchy can run on.
ENGINES = ("scalar", "vectorized")

#: Accesses converted per batch in the scalar trace loop (keeps the
#: int conversion fast without materializing whole-trace lists).
_SCALAR_CHUNK = 1 << 16

CacheLevel = Union[SetAssociativeCache, VectorizedCache]


@dataclass(frozen=True)
class LevelSpec:
    """Geometry of one cache level."""

    name: str
    capacity: int
    block_size: int
    ways: int
    policy: str = "lru"

    def build(self, engine: str = "scalar") -> CacheLevel:
        """Instantiate the level on the requested engine."""
        cls = VectorizedCache if engine == "vectorized" else SetAssociativeCache
        return cls(self.name, self.capacity, self.block_size,
                   self.ways, self.policy)


#: Skylake-like on-chip hierarchy used throughout the evaluation.
DEFAULT_CPU_LEVELS: Tuple[LevelSpec, ...] = (
    LevelSpec("L1", 32 * units.KB, units.CACHE_LINE, 8),
    LevelSpec("L2", 1 * units.MB, units.CACHE_LINE, 16),
    LevelSpec("L3", 8 * units.MB, units.CACHE_LINE, 16),
)


def dram_cache_spec(capacity: int, block_size: int = units.PAGE_4K,
                    ways: int = 4, policy: str = "lru") -> LevelSpec:
    """The software-managed DRAM cache level (FMem or local page cache).

    The paper designs FMem as 4-way set associative with page-sized
    blocks (section 4.4); capacity is the experiment's "% local memory".
    """
    return LevelSpec("DRAM$", capacity, block_size, ways, policy)


@dataclass
class HierarchyResult:
    """Outcome of running a trace through the hierarchy."""

    accesses: int
    level_hits: Dict[str, int]
    remote_fetches: int
    remote_writebacks: int
    dram_cache_name: Optional[str] = None

    def served_fractions(self) -> Dict[str, float]:
        """Fraction of accesses served at each level, plus ``remote``.

        The ``remote`` bucket covers every access that missed the whole
        hierarchy — including hierarchies with no DRAM cache, where the
        misses fetch straight from (remote) memory.  The fractions
        always sum to 1 for a non-empty trace.
        """
        if self.accesses == 0:
            return {}
        out = {name: hits / self.accesses
               for name, hits in self.level_hits.items()}
        out["remote"] = self.remote_fetches / self.accesses
        return out


class CacheHierarchy:
    """L1..L3 (+ optional DRAM cache) with a fast trace-simulation loop."""

    def __init__(self, levels: Sequence[LevelSpec] = DEFAULT_CPU_LEVELS,
                 dram_cache: Optional[LevelSpec] = None,
                 engine: str = "scalar") -> None:
        if not levels:
            raise ConfigError("hierarchy needs at least one level")
        if engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {engine!r}; choose from {list(ENGINES)}")
        block = None
        for spec in levels:
            if block is not None and spec.block_size < block:
                raise ConfigError(
                    "lower levels must not have smaller blocks than upper ones")
            block = spec.block_size
        self.engine = engine
        self.levels: List[CacheLevel] = [s.build(engine) for s in levels]
        self.dram_cache: Optional[CacheLevel] = (
            dram_cache.build(engine) if dram_cache is not None else None)
        self.accesses = 0
        self.remote_fetches = 0
        self.remote_writebacks = 0

    def access(self, addr: int, is_write: bool) -> str:
        """Access one address; return the name of the serving level.

        ``"remote"`` means the access missed everywhere (including the
        DRAM cache if present) and had to fetch from remote memory;
        ``"memory"`` is the same event on a hierarchy configured
        without a DRAM cache.  Both count as remote fetches, exactly as
        in :meth:`simulate`.  Dirty DRAM-cache victims count as remote
        writebacks.
        """
        self.accesses += 1
        for level in self.levels:
            hit, _ = level.access(addr, is_write)
            if hit:
                return level.name
        if self.dram_cache is None:
            self.remote_fetches += 1
            return "memory"
        hit, eviction = self.dram_cache.access(addr, is_write)
        if eviction is not None and eviction.dirty:
            self.remote_writebacks += 1
        if hit:
            return self.dram_cache.name
        self.remote_fetches += 1
        return "remote"

    def simulate(self, addrs: np.ndarray, writes: np.ndarray) -> HierarchyResult:
        """Run a whole trace; the hot path of KCacheSim.

        ``addrs`` is a uint64 array of byte addresses, ``writes`` a bool
        array of the same length.  Counters accumulate across calls;
        the returned snapshot covers everything this hierarchy has seen.
        """
        if addrs.shape != writes.shape:
            raise ConfigError("addrs and writes must have identical shape")
        if self.engine == "vectorized":
            self._simulate_vectorized(addrs, writes)
        else:
            self._simulate_scalar(addrs, writes)
        self.accesses += int(addrs.size)
        return self.result()

    def _simulate_vectorized(self, addrs: np.ndarray,
                             writes: np.ndarray) -> None:
        """Bulk path: each level filters the stream level by level."""
        stream_addrs = np.asarray(addrs, dtype=np.uint64).ravel()
        stream_writes = np.asarray(writes, dtype=bool).ravel()
        for level in self.levels:
            if stream_addrs.size == 0:
                return
            miss = level.simulate_batch(stream_addrs, stream_writes)
            stream_addrs = stream_addrs[miss]
            stream_writes = stream_writes[miss]
        if stream_addrs.size == 0:
            return
        dram = self.dram_cache
        if dram is None:
            self.remote_fetches += int(stream_addrs.size)
            return
        dirty_before = dram.stats.dirty_writebacks
        miss = dram.simulate_batch(stream_addrs, stream_writes)
        self.remote_writebacks += dram.stats.dirty_writebacks - dirty_before
        self.remote_fetches += int(np.count_nonzero(miss))

    def _simulate_scalar(self, addrs: np.ndarray, writes: np.ndarray) -> None:
        """Reference path: one access at a time through the dict model."""
        # Bind hot attributes to locals: this loop dominates simulation
        # time.  Convert in bounded chunks — plain-int iteration is much
        # faster than ndarray scalars, but whole-trace tolist() would
        # transiently double the trace's memory footprint.
        level_access = [lvl.access for lvl in self.levels]
        dram = self.dram_cache
        dram_access = dram.access if dram is not None else None
        remote_fetches = 0
        remote_writebacks = 0
        flat_addrs = np.ravel(addrs)
        flat_writes = np.ravel(writes)
        for lo in range(0, flat_addrs.size, _SCALAR_CHUNK):
            chunk = slice(lo, lo + _SCALAR_CHUNK)
            for addr, is_write in zip(flat_addrs[chunk].tolist(),
                                      flat_writes[chunk].tolist()):
                for access in level_access:
                    hit, _ = access(addr, is_write)
                    if hit:
                        break
                else:
                    if dram_access is not None:
                        hit, eviction = dram_access(addr, is_write)
                        if eviction is not None and eviction.dirty:
                            remote_writebacks += 1
                        if not hit:
                            remote_fetches += 1
                    else:
                        remote_fetches += 1
        self.remote_fetches += remote_fetches
        self.remote_writebacks += remote_writebacks

    def result(self, accesses: Optional[int] = None) -> HierarchyResult:
        """Snapshot the per-level service counts.

        ``accesses`` defaults to the hierarchy's own cumulative access
        counter, which stays consistent with the cumulative hit and
        remote counters across repeated :meth:`simulate` and
        :meth:`access` calls.
        """
        level_hits = {lvl.name: lvl.stats.hits for lvl in self.levels}
        if self.dram_cache is not None:
            level_hits[self.dram_cache.name] = self.dram_cache.stats.hits
        total = accesses if accesses is not None else self.accesses
        return HierarchyResult(
            accesses=total,
            level_hits=level_hits,
            remote_fetches=self.remote_fetches,
            remote_writebacks=self.remote_writebacks,
            dram_cache_name=(self.dram_cache.name
                             if self.dram_cache is not None else None),
        )
