"""The FPGA memory agent: where coherence meets remote memory.

The agent owns the VFMem directory.  Every CPU cache-line request to
VFMem arrives here (paper section 4.3), and the agent implements the
two primitives:

* **cache-remote-data** — on a line FILL, consult FMem (local
  translation); on an FMem miss, resolve the page's remote location and
  fetch it over RDMA, with the *requested line returned to the CPU as
  soon as it arrives* while the rest of the page streams into FMem in
  the background.  No page faults, no TLB activity.
* **track-local-data** — on a DIRTY_WRITEBACK, set the line's bit in
  the dirty bitmap.  Optionally mark eagerly on UPGRADE.

FMem victims are handed to an eviction sink (Kona's Eviction Handler)
together with their dirty masks.  An optional prefetcher models the
paper's observation that Kona re-enables hardware prefetching across
page boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..common import units
from ..common.clock import Account
from ..common.errors import ConfigError
from ..common.latency import DEFAULT_LATENCY, LatencyModel
from ..common.stats import Counter
from ..coherence.directory import Directory
from ..coherence.states import CoherenceEvent, EventKind, Protocol
from ..mem.address import AddressRange
from ..obs.trace import Tracer
from .bitmap import DirtyBitmap
from .fmem import FMemCache
from .prefetcher import Prefetcher
from .translation import RemoteTranslationMap


#: Callback invoked when FMem evicts a page: (vfmem_page_addr, dirty_mask).
EvictionSink = Callable[[int, int], None]


@dataclass
class AgentConfig:
    """Tunables of the memory agent."""

    fetch_block: int = units.PAGE_4K   # bytes fetched per FMem fill (Fig 8d)
    eager_upgrade_tracking: bool = False  # mark dirty on UPGRADE, not PutM

    def __post_init__(self) -> None:
        if self.fetch_block < units.CACHE_LINE:
            raise ConfigError("fetch block smaller than a cache line")
        if self.fetch_block % units.CACHE_LINE:
            raise ConfigError("fetch block must be line aligned")


class MemoryAgent:
    """The FPGA bitstream: VFMem directory + FMem cache + dirty bitmap."""

    def __init__(self, vfmem: AddressRange, fmem: FMemCache,
                 translation: RemoteTranslationMap,
                 latency: LatencyModel = DEFAULT_LATENCY,
                 config: Optional[AgentConfig] = None,
                 remote_read_ns: Optional[Callable[[str, int], float]] = None,
                 locate: Optional[Callable[[int], "object"]] = None,
                 prefetcher: Optional[Prefetcher] = None,
                 protocol: Protocol = Protocol.MESI,
                 tracer: Optional[Tracer] = None) -> None:
        self.vfmem = vfmem
        self.fmem = fmem
        self.translation = translation
        self.latency = latency
        self.config = config if config is not None else AgentConfig()
        self.directory = Directory(vfmem, protocol=protocol)
        self.directory.subscribe(self._on_event,
                                 on_batch=self._on_event_batch)
        self.bitmap = DirtyBitmap(page_size=fmem.page_size)
        self.account = Account()
        self.counters = Counter()
        self.tracer = tracer
        self._eviction_sinks: List[EvictionSink] = []
        self._last_access_ns = 0.0
        # Causal fault capture (runtime.attach_causal_capture): the
        # demand-fill path emits one record per serve when attached.
        self._capture = None
        # Pluggable remote read cost (node, nbytes) -> ns; defaults to a
        # linked RDMA read on the latency model.
        self._remote_read_ns = (
            remote_read_ns if remote_read_ns is not None
            else lambda node, nbytes: latency.rdma_transfer_ns(
                nbytes, linked=True, signaled=True))
        # Pluggable location resolver: the runtime injects a
        # failure-aware resolver that fails over to replicas.
        self._locate = locate if locate is not None else translation.resolve
        # Pluggable prefetch policy (none by default).
        self._prefetcher: Optional[Prefetcher] = prefetcher

    # -- wiring ---------------------------------------------------------------------

    def on_page_eviction(self, sink: EvictionSink) -> None:
        """Register an eviction sink (the runtime's Eviction Handler)."""
        self._eviction_sinks.append(sink)

    @property
    def last_access_ns(self) -> float:
        """Critical-path latency of the most recent directory event."""
        return self._last_access_ns

    # -- event handling --------------------------------------------------------------

    def _on_event(self, event: CoherenceEvent) -> None:
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        if event.kind is EventKind.FILL:
            if tracing:
                # The fill span nests its RDMA read and any eviction it
                # triggers; the critical-path cost is charged explicitly
                # because the sim clock does not advance in here.
                with tracer.span("fetch.fill", "fetch",
                                 line=event.line_addr) as span:
                    cost = self._serve_fill(event.line_addr)
                    span.extend(cost)
                    span.set(critical_ns=round(cost, 1))
                self._last_access_ns = cost
            else:
                self._last_access_ns = self._serve_fill(event.line_addr)
        elif event.kind is EventKind.DIRTY_WRITEBACK:
            self.bitmap.mark_line(event.line_addr)
            self.counters.add("writebacks_tracked")
            if tracing:
                tracer.instant("coherence.writeback", "coherence",
                               line=event.line_addr)
            self._last_access_ns = 0.0   # off the critical path
        elif event.kind is EventKind.UPGRADE:
            if self.config.eager_upgrade_tracking:
                self.bitmap.mark_line(event.line_addr)
            self.counters.add("upgrades_seen")
            if tracing:
                tracer.instant("coherence.upgrade", "coherence",
                               line=event.line_addr)
            self._last_access_ns = self.latency.coherence_msg_ns
        elif event.kind is EventKind.SNOOPED:
            self.bitmap.mark_line(event.line_addr)
            self.counters.add("lines_snooped")
            self._last_access_ns = self.latency.snoop_ns

    def _on_event_batch(self, events: List[CoherenceEvent]) -> None:
        """Bulk handler for the directory's batched writeback drain.

        ``put_modified_many`` only batches DIRTY_WRITEBACK events, which
        lets tracking take the bulk bitmap path; anything else falls
        back to the per-event handler.
        """
        if any(e.kind is not EventKind.DIRTY_WRITEBACK for e in events):
            for event in events:
                self._on_event(event)
            return
        self.bitmap.mark_lines([e.line_addr for e in events])
        self.counters.add("writebacks_tracked", len(events))
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            for event in events:
                tracer.instant("coherence.writeback", "coherence",
                               line=event.line_addr)
        self._last_access_ns = 0.0   # off the critical path

    def _serve_fill(self, line_addr: int) -> float:
        """Serve a CPU line request from FMem or remote memory."""
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        if self.fmem.lookup(line_addr):
            self.fmem.touch(line_addr)   # LRU promotion
            self.counters.add("fmem_hits")
            cost = self.latency.fmem_ns
            self.account.charge("fmem_hit", cost)
            cap = self._capture
            if cap is not None:
                cap.record(cap.seq, line_addr, None, 0, 0.0, 0.0, cost)
            if tracing:
                tracer.emit("fetch.fmem_hit", cost, "fetch")
            # Stream detection also fires on hits — that is what keeps
            # a sequential scan ahead of the fetch engine.
            self._maybe_prefetch(line_addr)
            return cost
        # FMem miss: fetch the page's block from its memory node.  The
        # remote location is resolved *before* allocating an FMem frame
        # so a failed fetch cannot leave a dataless page resident.  The
        # requested line unblocks the CPU after one line-sized transfer;
        # the remainder of the block streams in behind it.
        self.counters.add("remote_fetches")
        location = self._locate(line_addr)
        _, victim = self.fmem.touch(line_addr)
        if victim is not None:
            self._evict_page(victim)
        read_ns = self._remote_read_ns(location.node, units.CACHE_LINE)
        critical = self.latency.coherence_msg_ns + read_ns
        cap = self._capture
        if cap is not None:
            cap.record(cap.seq, line_addr, location.node, 1,
                       self.latency.coherence_msg_ns, read_ns, 0.0)
        if tracing:
            tracer.emit("rdma.read", read_ns, "rdma", node=location.node,
                        nbytes=units.CACHE_LINE)
        remainder = max(self.config.fetch_block - units.CACHE_LINE, 0)
        if remainder:
            fill = self.latency.rdma_per_byte_ns * remainder
            self.account.charge("fill_background", fill)
        self.account.charge("remote_fetch", critical)
        self._maybe_prefetch(line_addr)
        return critical

    def _maybe_prefetch(self, line_addr: int) -> None:
        if self._prefetcher is None:
            return
        page_index = line_addr // self.fmem.page_size
        for target in self._prefetcher.on_access(page_index):
            self._prefetch_page(target)

    def _prefetch_page(self, page_index: int) -> None:
        page_addr = page_index * self.fmem.page_size
        if page_addr not in self.vfmem:
            return
        if self.fmem.lookup(page_addr):
            return
        try:
            self.translation.resolve(page_addr)
        except Exception:
            return   # page not backed; nothing to prefetch
        _, victim = self.fmem.touch(page_addr)
        if victim is not None:
            self._evict_page(victim)
        self.counters.add("pages_prefetched")
        fill = self.latency.rdma_per_byte_ns * self.config.fetch_block
        self.account.charge("prefetch_background", fill)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit("fetch.prefetch", fill, "fetch",
                             page=page_index)

    def proactive_evict(
            self, count: int,
            drain_pages: Optional[Callable[[List[int]], None]] = None) -> int:
        """Background reclaim: drop ``count`` LRU pages from FMem.

        Keeps occupancy below the high watermark so demand fills never
        wait for a victim.  Each dropped page is drained (snooped, its
        dirty mask popped and handed to the eviction sinks) in drop
        order, one page at a time; ``drain_pages`` instead takes the
        whole list in one call (the batched engine passes its fused,
        behaviourally identical drain).  Returns pages reclaimed.
        """
        dropped = self.fmem.evict_lru(count)
        if drain_pages is not None:
            drain_pages(dropped)
        else:
            for page_addr in dropped:
                self._evict_page(page_addr)
        self.counters.add("proactive_reclaims", len(dropped))
        return len(dropped)

    def _evict_page(self, vfmem_page_addr: int) -> None:
        page = vfmem_page_addr // self.fmem.page_size
        # Snoop any still-cached modified lines so the writeback carries
        # the latest data (paper section 4.4).  The bulk drain performs
        # the same per-line transitions as 64 ``Directory.snoop`` calls
        # but skips the Python call overhead on untracked lines.
        self.directory.snoop_page(vfmem_page_addr, self.fmem.page_size)
        mask = self.bitmap.clear_page(page)
        self.counters.add("pages_evicted")
        for sink in self._eviction_sinks:
            sink(vfmem_page_addr, mask)
