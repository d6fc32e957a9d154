"""Configuration of the Kona runtime."""

from __future__ import annotations

from dataclasses import dataclass

from ..common import units
from ..common.errors import ConfigError
from ..cluster.slab import DEFAULT_SLAB_BYTES


@dataclass(frozen=True)
class KonaConfig:
    """Tunables of a Kona deployment on one compute node.

    The defaults mirror the paper's evaluation setup: 4 KB fetch blocks
    into a 4-way FMem cache, cache-line dirty tracking, asynchronous
    eviction through an aggregated cache-line log.
    """

    # Memory sizing
    fmem_capacity: int = 256 * units.MB     # local DRAM cache for remote data
    vfmem_capacity: int = 1 * units.GB      # fake physical space exposed
    slab_bytes: int = DEFAULT_SLAB_BYTES    # coarse allocation unit
    page_size: int = units.PAGE_4K

    # Fetch path
    fetch_block: int = units.PAGE_4K        # bytes fetched per FMem fill
    #: Prefetch policy name ("none", "next-page", "stride", "leap").
    prefetch_policy: str = "none"

    # Eviction path
    evict_high_watermark: float = 0.90      # start evicting above this
    evict_low_watermark: float = 0.75       # stop evicting below this
    rdma_batch_bytes: int = 64 * units.KB   # max log bytes per RDMA write
    full_page_threshold: int = 56           # >= this many dirty lines:
                                            # ship the whole page instead
    replication_factor: int = 1             # replicas written on eviction

    # Durability under faults (section 4.5)
    #: Capacity of the pending-writeback park for dirty lines whose
    #: destination node is unreachable (records, 64 B each).
    pending_writeback_records: int = 8192
    #: Fraction of the park above which eviction signals backpressure.
    writeback_backpressure: float = 0.75
    #: Retry budget for eviction-path RDMA writes.
    retry_max_attempts: int = 4
    #: First backoff after a failed eviction write (doubles per retry).
    retry_base_backoff_ns: float = 4_000.0
    #: Seed of the retry-jitter RNG (campaign determinism).
    retry_seed: int = 0
    #: Total-deadline budget on cumulative retry backoff per call
    #: (0 = unbounded).  Keeps fenced/partitioned replicas from
    #: retrying past the failover window inside a campaign.
    retry_deadline_ns: float = 0.0

    # Replication & failover (memnode failure recovery)
    #: Primaryship lease TTL on the simulated clock.  Promotion after
    #: a primary crash must wait out the dead node's lease, so this is
    #: the floor of the modeled failover unavailability window.
    lease_ttl_ns: float = 50_000.0
    #: Slots re-replicated per background maintenance tick.
    rereplication_slots_per_tick: int = 1

    # Tracking
    eager_upgrade_tracking: bool = False
    #: Coherence protocol family ("msi", "mesi", "moesi").  MSI makes
    #: every first write an explicit upgrade (useful with eager
    #: tracking); MOESI defers writebacks through dirty sharing.
    protocol: str = "mesi"

    # Resource management
    slab_batch: int = 4                     # slabs pre-allocated per request

    def __post_init__(self) -> None:
        if self.fmem_capacity <= 0 or self.vfmem_capacity <= 0:
            raise ConfigError("memory capacities must be positive")
        if self.vfmem_capacity < self.fmem_capacity:
            raise ConfigError("VFMem must be at least as large as FMem")
        if self.vfmem_capacity % self.slab_bytes:
            raise ConfigError("VFMem capacity must be a multiple of slab size")
        if not 0.0 < self.evict_low_watermark <= self.evict_high_watermark <= 1.0:
            raise ConfigError(
                f"watermarks must satisfy 0 < low <= high <= 1, got "
                f"{self.evict_low_watermark}/{self.evict_high_watermark}")
        if self.replication_factor < 1:
            raise ConfigError("replication factor must be >= 1")
        if not 1 <= self.full_page_threshold <= units.LINES_PER_PAGE:
            raise ConfigError("full_page_threshold must be in [1, 64]")
        if self.slab_batch < 1:
            raise ConfigError("slab_batch must be >= 1")
        if self.page_size % units.PAGE_4K:
            raise ConfigError("page_size must be a 4 KiB multiple")
        if self.fetch_block < units.CACHE_LINE:
            raise ConfigError("fetch_block must be at least one cache line")
        if self.pending_writeback_records < 1:
            raise ConfigError("pending_writeback_records must be >= 1")
        if not 0.0 < self.writeback_backpressure <= 1.0:
            raise ConfigError("writeback_backpressure must be in (0, 1]")
        if self.retry_max_attempts < 1:
            raise ConfigError("retry_max_attempts must be >= 1")
        if self.retry_base_backoff_ns < 0:
            raise ConfigError("retry_base_backoff_ns must be non-negative")
        if self.retry_deadline_ns < 0:
            raise ConfigError("retry_deadline_ns must be non-negative")
        if self.lease_ttl_ns <= 0:
            raise ConfigError("lease_ttl_ns must be positive")
        if self.rereplication_slots_per_tick < 1:
            raise ConfigError("rereplication_slots_per_tick must be >= 1")
        if self.protocol not in ("msi", "mesi", "moesi"):
            raise ConfigError(
                f"unknown protocol {self.protocol!r}; "
                f"choose msi, mesi or moesi")
