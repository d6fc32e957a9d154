"""The Eviction Handler: cache-line-granularity writeback via a CL log.

When FMem drops a page, only its *dirty cache lines* travel back to the
memory node (paper section 4.4): the handler scans the page's dirty
bitmap, copies the dirty lines into an RDMA-registered log buffer
(aggregating lines from many pages), and ships the log with few, large
RDMA writes.  A receiver thread on the memory node scatters the lines
and acknowledges.

Near-fully-dirty pages are cheaper to ship whole (one 4 KB write, no
log framing, no remote scatter), so a threshold switches strategy
per page — this is also what keeps Kona "on par" with page-granularity
eviction when every line is dirty (Figure 11a at 64 lines).

Replication (paper section 4.5): with ``replication_factor`` > 1 each
replica is written before the eviction completes; the extra writes are
charged but overlap on the wire.  A writeback to an unreachable node is
never dropped: it fails over to a live replica, or parks in a bounded
:class:`PendingWritebackBuffer` until
:meth:`EvictionHandler.drain_recovered` redelivers it.  Flushes to a
flaky node retry under a seeded exponential-backoff
:class:`~repro.common.retry.Retrier` first.  Past the park's watermark
the handler signals backpressure; records past its capacity charge a
producer-throttle stall but are still accepted, because losing
acknowledged-dirty data is the one failure mode the design rules out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..common import units
from ..common.clock import Account
from ..common.errors import NetworkError, RetryExhausted
from ..common.latency import DEFAULT_LATENCY, LatencyModel
from ..common.retry import Retrier
from ..common.stats import Counter
from ..cluster.controller import RackController
from ..fpga.translation import RemoteTranslationMap
from ..net.fabric import Fabric
from ..net.ring import RECORD_BYTES, LogRecord
from ..obs.trace import NULL_SPAN, Tracer, traced
from .config import KonaConfig


#: One bit per line of a 4 KiB page (the log record granularity).
_PAGE_LINES_MASK = (1 << units.LINES_PER_PAGE) - 1

#: Masks the copy-cost memo holds before it starts over (~2,250 per run).
_COPY_MEMO_LIMIT = 1 << 14


@dataclass
class EvictionStats:
    """What eviction moved and how long each stage took."""

    pages_evicted: int = 0
    clean_pages: int = 0
    full_page_writes: int = 0
    lines_logged: int = 0
    dirty_bytes: int = 0          # useful payload (the dirty lines)
    wire_bytes: int = 0           # payload + log framing actually sent
    account: Account = field(default_factory=Account)

    @property
    def elapsed_ns(self) -> float:
        """Total eviction time across all stages."""
        return self.account.total

    def goodput_bytes_per_s(self) -> float:
        """Useful dirty bytes per second of eviction time (Figure 11)."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.dirty_bytes / (self.elapsed_ns / units.S)


class PendingWritebackBuffer:
    """Bounded per-node park for records whose destination is down.

    The buffer is the durability backstop: records enter when every
    path to their home node is dead and leave through
    :meth:`EvictionHandler.drain_recovered`.  ``backpressure`` trips at
    ``watermark * capacity`` so the producer can throttle before the
    hard limit; past capacity the buffer *still accepts* (dropping
    dirty data is not an option) but reports the overflow so the caller
    can charge a stall.
    """

    def __init__(self, capacity_records: int, watermark: float) -> None:
        self.capacity = capacity_records
        self.watermark = watermark
        self._parked: Dict[str, List[LogRecord]] = {}
        self.counters = Counter()

    def park(self, node: str, records: List[LogRecord]) -> int:
        """Park records destined for ``node``; returns overflow count."""
        if not records:
            return 0
        before = self.total_records
        self._parked.setdefault(node, []).extend(records)
        self.counters.add("records_parked", len(records))
        overflow = max(0, before + len(records) - self.capacity)
        if overflow:
            self.counters.add("overflow_records", overflow)
        return overflow

    def drain(self, node: str) -> List[LogRecord]:
        """Remove and return everything parked for ``node``."""
        records = self._parked.pop(node, [])
        if records:
            self.counters.add("records_drained", len(records))
        return records

    def nodes(self) -> List[str]:
        """Nodes with parked records."""
        return list(self._parked)

    @property
    def total_records(self) -> int:
        """Records currently parked across all nodes."""
        return sum(len(v) for v in self._parked.values())

    @property
    def backpressure(self) -> bool:
        """Whether occupancy crossed the throttle watermark."""
        return self.total_records >= self.watermark * self.capacity


class EvictionHandler:
    """Aggregates dirty lines and writes them to memory nodes."""

    def __init__(self, config: KonaConfig, translation: RemoteTranslationMap,
                 controller: Optional[RackController] = None,
                 latency: LatencyModel = DEFAULT_LATENCY,
                 retrier: Optional[Retrier] = None,
                 on_fault: Optional[Callable[[str], None]] = None,
                 fabric: Optional[Fabric] = None,
                 local_node: str = "compute",
                 tracer: Optional[Tracer] = None) -> None:
        self.config = config
        self.translation = translation
        self.controller = controller
        self.latency = latency
        self.retrier = retrier
        self.on_fault = on_fault
        self.fabric = fabric
        self.local_node = local_node
        self.tracer = tracer
        self.stats = EvictionStats()
        self.counters = Counter()
        #: Replication manager (set by the runtime when the factor > 1):
        #: routes writebacks by epoch, fences stale ones, mirrors
        #: delivered batches to backup stores.
        self.replication = None
        #: Data plane (set by ``KonaRuntime.attach_data_plane``): stamps
        #: records with line versions/payloads and keeps the
        #: acknowledged-write ledger for durability proofs.
        self.content = None
        # Pending log records per destination node, staged in the
        # RDMA-registered buffer until a batch is worth a doorbell.
        self._pending: Dict[str, List[LogRecord]] = {}
        # Dirty mask -> (copy ns, segment count); see _copy_cost.
        self._copy_costs: Dict[int, Tuple[float, int]] = {}
        self.writeback_buffer = PendingWritebackBuffer(
            config.pending_writeback_records,
            config.writeback_backpressure)

    # -- the eviction sink (wired to MemoryAgent.on_page_eviction) -----------------

    def can_defer(self) -> bool:
        """Whether :meth:`evict_pages` can neither fail nor change state
        that a later access observes.

        That holds with no replication manager and no content shadow,
        a lossless fabric (``Fabric.lossless``), and every memory node
        alive with ring room for the largest log flush (the batch
        threshold plus one page's lines): every writeback then lands on
        its primary at the first attempt, so nothing parks, no health
        transition fires and no retry or link-loss RNG is drawn.  While
        it holds, the batched engine may queue evicted pages past their
        drain (see ``_FusedLane.drain_page``).  Chaos changes these
        inputs only between trace chunks, so callers may evaluate it
        once per slice.
        """
        if self.replication is not None or self.content is not None:
            return False
        if self.fabric is not None and not self.fabric.lossless():
            return False
        controller = self.controller
        if controller is None:
            return True
        largest = (-(-self.config.rdma_batch_bytes // RECORD_BYTES)
                   + units.LINES_PER_PAGE)
        return all(node.alive and node.log.free_records >= largest
                   for node in map(controller.node, controller.nodes))

    def evict_page(self, vfmem_page_addr: int, dirty_mask: int) -> float:
        """Evict one page given its dirty-line mask; returns ns spent."""
        return self.evict_pages((vfmem_page_addr,), (dirty_mask,))[0]

    def evict_pages(self, page_addrs: Sequence[int],
                    masks: Sequence[int]) -> List[float]:
        """Evict pages given their dirty-line masks, in order; returns
        each page's ns.

        The handler's only eviction body, one pass over the batch.
        Clean pages are dropped silently (no network at all) and counted
        once per call.  Each dirty page, in order (under a live tracer,
        in its own ``evict.page`` span), ships whole at
        ``full_page_threshold`` dirty lines; otherwise its lines go to
        the pending log of its primary, or of the first live replica (a
        failover), or park when no copy is live.  Every float chain (the
        ``stats.account`` buckets, the caller's sum of the returned
        times) is charged page by page, a page's time keeping the
        association ``scan + (copy + flush)``, so one call over N pages
        leaves the state of N one-page calls.

        Each slab slot's primary and each node's liveness are looked up
        once per call.  These memos are exact: the body changes neither
        the translation map nor any node's liveness, and it drops them
        after every call-out (a flush, a park, a whole-page write), the
        only points where outside code runs (retries, health transitions,
        SLO context providers).  Log-line stats and counters are summed
        in the loop and published before every call-out: a park's health
        transition may sample the ``eviction.*`` gauges.
        """
        stats, counters = self.stats, self.counters
        n = len(page_addrs)
        elapsed = [0.0] * n
        dirty = [i for i, mask in enumerate(masks) if mask]
        stats.pages_evicted += n
        if len(dirty) < n:
            stats.clean_pages += n - len(dirty)
            counters.add("silent_evictions", n - len(dirty))
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        charge = stats.account.charge
        # Scanning the bitmap for set bits costs per tracked line.
        scan = self.latency.bitmap_scan_per_line_ns * units.LINES_PER_PAGE
        threshold = self.config.full_page_threshold
        batch_bytes = self.config.rdma_batch_bytes
        translation, content = self.translation, self.content
        base, slab_bytes = translation.vfmem_base, translation.slab_bytes
        copy_costs, pending = self._copy_costs, self._pending
        homes: Dict[int, Tuple[str, int]] = {}  # slot -> (node, remote - addr)
        alive = functools.cache(self._node_alive)
        logged = 0              # log lines not yet in stats and counters
        span = None             # the open evict.page span
        try:
            for i in dirty:
                addr, mask = page_addrs[i], masks[i]
                lines = mask.bit_count()
                if tracing:
                    span = tracer.span("evict.page", "evict", page=addr,
                                       dirty_lines=lines)
                    span.__enter__()
                    tracer.emit("evict.bitmap_scan", scan, "evict")
                charge("bitmap", scan)
                if lines >= threshold:
                    self._call_out(logged, homes, alive)
                    logged = 0
                    cost = self._write_full_page(addr)
                else:
                    slot = (addr - base) // slab_bytes
                    if slot not in homes:
                        loc = translation.resolve(addr)   # the primary
                        homes[slot] = (loc.node, loc.remote_addr - addr)
                    node, delta = homes[slot]
                    up = alive(node)
                    if not up:
                        for replica in translation.resolve_replicas(addr)[1:]:
                            if alive(replica.node):
                                counters.add("eviction_failovers")
                                node, up = replica.node, True
                                delta = replica.remote_addr - addr
                                break
                    cost, segments = (copy_costs.get(mask)
                                      or self._copy_cost(mask))
                    charge("copy", cost)
                    if tracing:
                        tracer.emit("evict.copy", cost, "evict",
                                    segments=segments)
                    # Stage records, lowest line first, to log or to park.
                    log = pending.setdefault(node, []) if up else []
                    bits = mask & _PAGE_LINES_MASK
                    logged += bits.bit_count()
                    if content is None:
                        remote = addr + delta
                        while bits:
                            low = bits & -bits
                            log.append(LogRecord(
                                remote + (low.bit_length() - 1)
                                * units.CACHE_LINE))
                            bits ^= low
                    else:
                        log.extend(self._records_for(addr, mask,
                                                     addr + delta))
                    if not up or len(log) * RECORD_BYTES >= batch_bytes:
                        self._call_out(logged, homes, alive)
                        logged = 0
                        cost += (self.flush_node(node) if up
                                 else self._park_records(node, log))
                elapsed[i] = scan + cost
                if tracing:
                    span.extend(elapsed[i])
                    span.__exit__(None, None, None)
                    span = None
        finally:
            self._call_out(logged, homes, alive)
            if span is not None:    # a page raised under a live tracer
                span.__exit__(None, None, None)
        return elapsed

    def _copy_cost(self, mask: int) -> Tuple[float, int]:
        """(ns, runs) to copy a page's dirty runs, cold, into the log buffer
        (Figure 11c's "Copy" slice), memoized: it depends only on the
        mask and the latency model."""
        segments, rest = [], mask
        while rest:
            # Skip the zeros below the lowest set bit; count the ones.
            rest >>= (rest & -rest).bit_length() - 1
            segments.append(((rest + 1) & ~rest).bit_length() - 1)
            rest >>= segments[-1]
        if len(self._copy_costs) >= _COPY_MEMO_LIMIT:
            self._copy_costs.clear()
        cost = self._copy_costs[mask] = (
            self.latency.copy_segments_ns(segments), len(segments))
        return cost

    def _call_out(self, lines: int, homes: dict, alive) -> None:
        """Before code outside the body runs: count the ``lines`` log
        lines it staged, and drop its per-call memos."""
        homes.clear()
        alive.cache_clear()
        if lines:
            self.stats.lines_logged += lines
            self.stats.dirty_bytes += lines * units.CACHE_LINE
            self.counters.add("lines_enqueued", lines)

    def _emit(self, name: str, dur_ns: float, **args) -> None:
        """Record a child span when the tracer is live (hot-path cheap)."""
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(name, dur_ns, "evict", **args)

    # -- whole-page path ---------------------------------------------------------------

    def _write_full_page(self, vfmem_page_addr: int) -> float:
        page = self.config.page_size
        locations = self.translation.resolve_replicas(vfmem_page_addr)[
            :self.config.replication_factor]
        copy = self.latency.memcpy_ns(page)
        self.stats.account.charge("copy", copy)
        self._emit("evict.copy", copy, nbytes=page)
        live = [loc for loc in locations if self._node_alive(loc.node)]
        self.stats.full_page_writes += 1
        self.stats.dirty_bytes += page
        self.counters.add("full_page_writes")
        if not live:
            # No copy is live: park the lines for the primary's recovery.
            records = self._records_for(vfmem_page_addr, _PAGE_LINES_MASK,
                                        locations[0].remote_addr)
            self.counters.add("lines_enqueued", len(records))
            return copy + self._park_records(locations[0].node, records)
        if len(live) < len(locations):
            self.counters.add("replica_writes_skipped",
                              len(locations) - len(live))
        wire = self.latency.rdma_transfer_ns(page, linked=True, signaled=False)
        self.stats.wire_bytes += page * len(live)
        self.stats.account.charge("rdma_write", wire)
        self._emit("rdma.write", wire, nbytes=page * len(live),
                   full_page=True)
        if self.content is not None and self.controller is not None:
            # Every written line lands on each live copy; the stores
            # fence versions, so applying a page twice is harmless.
            records = self._records_for(vfmem_page_addr, _PAGE_LINES_MASK,
                                        live[0].remote_addr)
            for location in live:
                store = self.controller.node(location.node).store
                for record in records:
                    store.apply(record)
            self.content.acknowledge(records)
        return copy + wire

    def flush_node(self, node: str) -> float:
        """Ship the node's pending log with one RDMA write; wait for ack.

        Replica writes are fully priced (wire bytes and posting time)
        but only the primary's receiver thread is materialized in the
        simulation — replica receivers run the identical scatter loop,
        so modeling one is sufficient for every quantity we measure.
        """
        records = self._pending.pop(node, [])
        if not records:
            return 0.0
        with (self.tracer.span("evict.flush", "evict", node=node,
                               records=len(records))
              if self.tracer is not None else NULL_SPAN) as span:
            elapsed = self._flush_records(node, records)
            span.extend(elapsed)
        return elapsed

    def _flush_records(self, node: str, records: List[LogRecord]) -> float:
        elapsed = 0.0
        if self.replication is not None:
            # Epoch fence: records stamped under a deposed primary are
            # re-stamped and rerouted to the promoted one before they
            # touch the wire.
            records, moved = self.replication.redirect_records(node, records)
            for target, batch in moved.items():
                self.counters.add("lines_redirected", len(batch))
                elapsed += self._flush_ringfuls(target, batch)
            if not records:
                return elapsed
        if not self._node_alive(node):
            # The node died between staging and the doorbell: park
            # without burning the retry budget on a known-dead target.
            self.counters.add("flushes_deferred")
            return elapsed + self._park_records(node, records)
        log_bytes = len(records) * RECORD_BYTES
        if (self.replication is not None and self.content is not None
                and self.fabric is not None):
            # Fan the write out to the primary plus each slot's live
            # backups; wire time overlaps, each extra destination adds
            # a posting, the slowest injected link delay gates the ack.
            dsts = [node] + self.replication.backup_nodes_for(records)
            wire = self.fabric.replicated_log_write_cost_ns(
                self.local_node, dsts, log_bytes)
            replicas = len(dsts)
        else:
            replicas = max(self.config.replication_factor, 1)
            # A pipelined producer exposes only the posting cost and
            # part of the wire time (the NIC DMAs while the next batch
            # is staged).
            posting = (self.latency.rdma_linked_wr_ns
                       + self.latency.rdma_nic_wr_ns)
            wire = (posting + self.latency.log_wire_exposure
                    * self.latency.rdma_per_byte_ns * log_bytes)
            # Replica writes are posted back-to-back; wire time overlaps
            # but each extra replica adds a posting cost.
            wire += (replicas - 1) * posting
        self.stats.account.charge("rdma_write", wire)
        self.stats.wire_bytes += log_bytes * replicas
        self._emit("rdma.write", wire, nbytes=log_bytes * replicas,
                   node=node)
        # Remote scatter + acknowledgment round trip, partially hidden
        # behind preparing the next batch (the small "Ack wait" slice
        # of Figure 11c).
        backoff_ns = 0.0
        try:
            if self.retrier is not None:
                self.retrier.call(lambda: self._deliver(node, records))
                backoff_ns = self.retrier.last_outcome.backoff_ns
                retries = self.retrier.last_outcome.attempts - 1
                if retries > 0:
                    self.counters.add("flush_retries", retries)
                    self.stats.account.charge("retry_backoff", backoff_ns)
                    self._emit("evict.retry_backoff", backoff_ns,
                               retries=retries)
            else:
                self._deliver(node, records)
        except (NetworkError, RetryExhausted):
            if self.retrier is not None:
                backoff_ns = self.retrier.last_outcome.backoff_ns
                self.counters.add(
                    "flush_retries", self.retrier.last_outcome.attempts - 1)
                self.stats.account.charge("retry_backoff", backoff_ns)
            self.counters.add("flush_failures")
            return elapsed + wire + backoff_ns + self._park_records(
                node, records)
        if self.replication is not None:
            self.replication.apply_to_backups(records)
        if self.content is not None:
            self.content.acknowledge(records)
        ack_exposed = self.latency.rdma_base_ns * 1.2
        self.stats.account.charge("ack_wait", ack_exposed)
        self._emit("evict.ack_wait", ack_exposed)
        self.counters.add("log_flushes")
        return elapsed + wire + backoff_ns + ack_exposed

    def flush_all(self) -> float:
        """Flush every node's pending records (barrier/teardown)."""
        total = 0.0
        for node in list(self._pending):
            total += self.flush_node(node)
        return total

    # -- helpers ------------------------------------------------------------------------------

    def _node_alive(self, node_name: str) -> bool:
        """Whether ``node_name`` is up *and* reachable from here.

        A partitioned node counts as dead for writeback purposes: its
        records park and drain once the partition heals.
        """
        if (self.fabric is not None
                and self.fabric.has_node(node_name)
                and not self.fabric.reachable(self.local_node, node_name)):
            return False
        if self.controller is None:
            return True
        return self.controller.node(node_name).alive

    def _records_for(self, vfmem_page_addr: int, dirty_mask: int,
                     remote_page: int) -> List[LogRecord]:
        """Records for a page's dirty lines (ascending) at ``remote_page``
        for whole pages, and stamped ones (VFMem address, version, epoch,
        payload) for the data plane's fencing and ledger.  The body
        stages the rest."""
        offsets = [line * units.CACHE_LINE
                   for line in range(units.LINES_PER_PAGE)
                   if dirty_mask >> line & 1]
        if self.content is None:
            return [LogRecord(remote_page + off) for off in offsets]
        epoch = (self.replication.epoch_of(vfmem_page_addr)
                 if self.replication is not None else 0)
        records = []
        for off in offsets:
            version, payload = self.content.content(vfmem_page_addr + off)
            records.append(LogRecord(remote_page + off, vfmem_page_addr + off,
                                     version, epoch, payload))
        return records

    def _park_records(self, node: str, records: List[LogRecord]) -> float:
        """Park records for ``node`` until it recovers; returns stall ns."""
        self.counters.add("lines_requeued", len(records))
        overflow = self.writeback_buffer.park(node, records)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant("evict.park", "evict", node=node,
                                records=len(records), overflow=overflow)
        if self.on_fault is not None:
            self.on_fault(f"writebacks parked for {node}")
        if overflow == 0:
            return 0.0
        # Past hard capacity the producer is throttled: model the wait
        # as one base round trip per overflowing record.
        stall = overflow * self.latency.rdma_base_ns
        self.stats.account.charge("backpressure_stall", stall)
        self.counters.add("backpressure_stalls")
        self._emit("evict.backpressure_stall", stall, overflow=overflow)
        return stall

    @traced("evict.redirect_parked", cat="recovery")
    def redirect_parked(self, dead_node: str) -> float:
        """Reroute writebacks parked for a node that just failed over.

        Once the replication manager promoted backups, records parked
        for the dead primary have a live home again: re-stamp them to
        the promoted primaries (epoch fence included) and flush there
        instead of waiting out the dead node's restart.  Records whose
        window has no live replica (orphaned slots) stay parked.
        """
        if self.replication is None:
            return 0.0
        records = self.writeback_buffer.drain(dead_node)
        if not records:
            return 0.0
        keep, moved = self.replication.redirect_records(dead_node, records)
        total = 0.0
        if keep:
            # No promoted home for these; they wait for the node itself.
            self.writeback_buffer.park(dead_node, keep)
        for target, batch in moved.items():
            self.counters.add("lines_redelivered", len(batch))
            self.counters.add("lines_redirected", len(batch))
            total += self._flush_ringfuls(target, batch)
        return total

    @traced("evict.drain_recovered", cat="recovery")
    def drain_recovered(self) -> float:
        """Redeliver parked writebacks to every node that came back.

        Called on the recovery path; returns simulated ns spent.  Nodes
        still down keep their parked records.
        """
        total = 0.0
        for node in self.writeback_buffer.nodes():
            if not self._node_alive(node):
                continue
            records = self.writeback_buffer.drain(node)
            self.counters.add("lines_redelivered", len(records))
            total += self._flush_ringfuls(node, records)
        return total

    def _flush_ringfuls(self, node: str, records: List[LogRecord]) -> float:
        """Stage ``records`` for ``node`` and flush them a ringful at a
        time: a flush larger than the node's ring fails (and parks
        again).  Returns simulated ns spent."""
        step = max(self.controller.node(node).log.capacity_records
                   if self.controller is not None else len(records), 1)
        total = 0.0
        for lo in range(0, len(records), step):
            self._pending.setdefault(node, []).extend(records[lo:lo + step])
            total += self.flush_node(node)
        return total

    def _deliver(self, node_name: str, records: List[LogRecord]) -> None:
        """Hand the log batch to the memory node's receiver thread."""
        if self.controller is None:
            return
        node = self.controller.node(node_name)
        if not node.alive:
            raise NetworkError(f"memory node {node_name!r} is down")
        if (self.fabric is not None and self.fabric.has_node(node_name)
                and self.fabric.drops_transfer(self.local_node, node_name)):
            raise NetworkError(
                f"flaky link dropped log flush to {node_name!r}")
        node.receive_log(records)
        receipt = node.drain_log()
        # Remote unpack time is remote CPU time; it overlaps with the
        # producer, so it is recorded but not charged to eviction.
        self.counters.add("records_delivered", receipt.records)

    @property
    def pending_records(self) -> int:
        """Records staged but not yet shipped."""
        return sum(len(v) for v in self._pending.values())

    @property
    def parked_records(self) -> int:
        """Records parked awaiting a node recovery."""
        return self.writeback_buffer.total_records

    @property
    def backpressure(self) -> bool:
        """Whether the pending-writeback park is past its watermark."""
        return self.writeback_buffer.backpressure
