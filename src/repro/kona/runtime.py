"""KLib: the Kona runtime facade.

This is the library an application links against (paper Figure 4).  It
assembles the whole stack — rack controller, memory nodes, FPGA memory
agent, CPU coherent cache, resource manager, AllocLib, dirty-data
tracker, eviction handler — and exposes the application-facing
operations: ``malloc``/``free``/``mmap`` plus ``read``/``write`` memory
accesses, all transparently backed by disaggregated memory.

Time accounting: every access returns its critical-path cost; the
runtime splits time into application compute, FMem hits, remote
fetches, and (background) eviction so the experiment harness can
reproduce the paper's breakdowns.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..common import units
from ..common.clock import Account
from ..common.errors import (AddressError, ConfigError, NodeFailure,
                             SimulationError)
from ..common.latency import DEFAULT_LATENCY, LatencyModel
from ..common.retry import Retrier, RetryPolicy
from ..common.stats import Counter
from ..cluster.controller import RackController
from ..cluster.memnode import MemoryNode
from ..cluster.replication import DataPlane, ReplicationManager
from ..coherence.agent import CoherentCache
from ..coherence.states import Protocol
from ..fpga.agent import AgentConfig, MemoryAgent
from ..fpga.fmem import FMemCache
from ..fpga.translation import RemoteTranslationMap
from ..mem.address import AddressRange, align_down
from ..mem.pagetable import PageTable
from ..net.fabric import Fabric
from ..obs import FlightRecorder, traced
from ..vm.swap import ExecutionReport
from .alloclib import AllocLib
from .config import KonaConfig
from .engine import _FusedLane, run_trace_batched
from .eviction import EvictionHandler
from .failures import FailureManager, FallbackMode, MachineCheckException
from .health import HealthMonitor, HealthState
from .resource_manager import ResourceManager
from .tracker import DirtyDataTracker

#: Physical base address where the FPGA exposes VFMem.
VFMEM_BASE = 4 * units.GB

#: Accesses materialized per chunk by the scalar trace loop.
_SCALAR_CHUNK = 1 << 16

_CACHE_HELD = ("a batched run_trace_stream holds the CPU-cache state; its "
               "chunk iterator must not call access/read/write/flush/"
               "run_trace (the dict cache is stale until the stream ends)")


def build_rack(fabric: Fabric, num_nodes: int, node_capacity: int,
               slab_bytes: int) -> RackController:
    """Stand up a rack controller with ``num_nodes`` memory nodes."""
    controller = RackController()
    for i in range(num_nodes):
        node = MemoryNode(f"mem{i}", node_capacity, fabric,
                          slab_bytes=slab_bytes)
        controller.register_node(node)
    return controller


class KonaRuntime:
    """A complete Kona deployment for one application."""

    def __init__(self, config: Optional[KonaConfig] = None,
                 latency: LatencyModel = DEFAULT_LATENCY,
                 controller: Optional[RackController] = None,
                 fabric: Optional[Fabric] = None,
                 num_memory_nodes: int = 2,
                 cpu_cache_capacity: int = 8 * units.MB,
                 app_ns_per_access: float = 70.0,
                 failure_mode: FallbackMode = FallbackMode.PAGE_FAULT_FALLBACK,
                 recorder: Optional[FlightRecorder] = None) -> None:
        self.config = config if config is not None else KonaConfig()
        self.latency = latency
        self.app_ns_per_access = app_ns_per_access
        cfg = self.config

        # -- observability ---------------------------------------------------
        # The flight recorder (metrics registry + span tracer + sampler)
        # shares the fabric's sim clock; when the caller supplies both a
        # fabric and a recorder, the recorder is rebound to the fabric's
        # clock so timestamps agree.
        self.obs = recorder if recorder is not None else FlightRecorder()
        # Bound once: the access hot path checks tracer.enabled without
        # going through the recorder's property chain.
        self._tracer = self.obs.tracer

        # -- rack ------------------------------------------------------------
        if fabric is None:
            fabric = Fabric(latency, clock=self.obs.clock)
        self.fabric = fabric
        self.obs.bind_clock(self.fabric.clock)
        if not self.fabric.has_node("compute"):
            self.fabric.add_node("compute")
        if controller is None:
            per_node = max(
                2 * cfg.vfmem_capacity // max(num_memory_nodes, 1),
                4 * cfg.slab_bytes)
            controller = build_rack(self.fabric, num_memory_nodes,
                                    per_node, cfg.slab_bytes)
        self.controller = controller

        # -- compute-node hardware --------------------------------------------
        self.vfmem = AddressRange(VFMEM_BASE, cfg.vfmem_capacity)
        self.fmem = FMemCache(cfg.fmem_capacity, cfg.page_size)
        # The largest FMem occupancy that fails ``maybe_evict``'s test,
        # ``k / frames > high and k > int(low * frames)`` (monotone in
        # ``k``; the float quotient decides).  Hot passes run up to it.
        frames, high = self.fmem.num_frames, cfg.evict_high_watermark
        limit = min(int(high * frames) + 1, frames)
        while limit / frames > high:
            limit -= 1
        self.reclaim_limit = max(limit, int(cfg.evict_low_watermark
                                            * frames))
        self.translation = RemoteTranslationMap(self.vfmem.start,
                                                cfg.slab_bytes)
        self.page_table = PageTable(cfg.page_size)
        self.failures = FailureManager(self.translation, self.controller,
                                       mode=failure_mode,
                                       page_table=self.page_table,
                                       latency=latency,
                                       fabric=self.fabric)
        prefetcher = None
        if cfg.prefetch_policy != "none":
            from ..fpga.prefetcher import make_prefetcher
            prefetcher = make_prefetcher(cfg.prefetch_policy)
        self.agent = MemoryAgent(
            self.vfmem, self.fmem, self.translation, latency,
            AgentConfig(fetch_block=cfg.fetch_block,
                        eager_upgrade_tracking=cfg.eager_upgrade_tracking),
            remote_read_ns=self._remote_read_ns,
            locate=self._locate_with_failover,
            prefetcher=prefetcher,
            protocol=Protocol(cfg.protocol),
            tracer=self.obs.tracer,
        )
        self.cpu_cache = CoherentCache(
            agent_id=0, resolver=self._directory_for,
            capacity=cpu_cache_capacity, protocol=Protocol(cfg.protocol))
        self.cpu_cache.attach(self.agent.directory)

        # -- KLib components -----------------------------------------------------
        self.resource_manager = ResourceManager(
            cfg, self.controller, self.translation, self.vfmem,
            self.page_table)
        self.alloclib = AllocLib(self.resource_manager)
        self.tracker = DirtyDataTracker(self.agent.bitmap, cfg.page_size)
        self.health = HealthMonitor(self.fabric.clock,
                                    tracer=self.obs.tracer)
        self.retrier = Retrier(
            RetryPolicy(max_attempts=cfg.retry_max_attempts,
                        base_backoff_ns=cfg.retry_base_backoff_ns,
                        max_total_backoff_ns=cfg.retry_deadline_ns),
            seed=cfg.retry_seed, clock=self.fabric.clock)
        self.eviction = EvictionHandler(cfg, self.translation,
                                        self.controller, latency,
                                        retrier=self.retrier,
                                        on_fault=self.health.degrade,
                                        fabric=self.fabric,
                                        tracer=self.obs.tracer)
        self.agent.on_page_eviction(self._eviction_sink)

        # -- replication & durability ---------------------------------------------
        #: Optional content shadow (attach_data_plane) for durability
        #: proofs; while one is attached, trace runs use the scalar
        #: oracle.
        self.content: Optional[DataPlane] = None
        self.replication: Optional[ReplicationManager] = None
        if cfg.replication_factor > 1:
            self.replication = ReplicationManager(
                self.controller, self.translation, self.fabric.clock,
                vfmem_base=self.vfmem.start, slab_bytes=cfg.slab_bytes,
                replication_factor=cfg.replication_factor,
                lease_ttl_ns=cfg.lease_ttl_ns, tracer=self.obs.tracer)
            self.resource_manager.replication = self.replication
            self.eviction.replication = self.replication
            self.failures.replication = self.replication

        # -- accounting ------------------------------------------------------------
        self.account = Account()
        self.counters = Counter()
        self.background_ns = 0.0
        #: Causal fault capture (attach_causal_capture); None keeps the
        #: access and replay hot paths at a single pointer test.
        self._capture = None
        #: True while the batched engine's front-end holds the CPU-cache
        #: state, so the dict cache must not be read.
        self._cache_stale = False
        self._register_metrics()

    # -- wiring helpers -----------------------------------------------------------

    def _register_metrics(self) -> None:
        """Register every component metric as a labeled registry gauge.

        Hot paths keep their cheap :class:`Counter` bags; the registry
        overlays them with callable gauges so telemetry, the sampler
        and the exporters all read one namespace (see
        :func:`repro.kona.telemetry.snapshot`, now a registry view).
        """
        reg = self.obs.registry
        gauges = {
            "memory.vfmem_bytes": lambda: self.vfmem.size,
            "memory.fmem_bytes": lambda: self.fmem.capacity,
            "memory.fmem_occupancy": lambda: self.fmem.occupancy,
            "memory.fmem_hit_ratio": lambda: round(self.fmem.hit_ratio, 4),
            "memory.bound_remote_bytes":
                lambda: self.resource_manager.bound_bytes,
            "memory.live_alloc_bytes": lambda: self.alloclib.live_bytes,
            "fetch.cache_hits": lambda: self.counters["cache_hits"],
            "fetch.cache_misses": lambda: self.counters["cache_misses"],
            "fetch.fmem_hits": lambda: self.agent.counters["fmem_hits"],
            "fetch.remote_fetches":
                lambda: self.agent.counters["remote_fetches"],
            "fetch.pages_prefetched":
                lambda: self.agent.counters["pages_prefetched"],
            "tracking.writebacks_tracked":
                lambda: self.agent.counters["writebacks_tracked"],
            "tracking.lines_snooped":
                lambda: self.agent.counters["lines_snooped"],
            "tracking.dirty_lines_pending":
                lambda: self.agent.bitmap.total_dirty_lines(),
            "eviction.pages_evicted": lambda: self.eviction.stats.pages_evicted,
            "eviction.clean_pages": lambda: self.eviction.stats.clean_pages,
            "eviction.full_page_writes":
                lambda: self.eviction.stats.full_page_writes,
            "eviction.lines_logged": lambda: self.eviction.stats.lines_logged,
            "eviction.dirty_bytes": lambda: self.eviction.stats.dirty_bytes,
            "eviction.wire_bytes": lambda: self.eviction.stats.wire_bytes,
            "eviction.goodput_mb_s": lambda: round(
                self.eviction.stats.goodput_bytes_per_s() / units.MB, 2)
                if self.eviction.stats.elapsed_ns > 0 else 0.0,
            "faults.page_faults":
                lambda: self.page_table.counters["faults_missing"],
            "faults.protection_faults":
                lambda: self.page_table.counters["faults_protection"],
            "faults.replica_failovers":
                lambda: self.failures.counters["replica_failovers"],
            "faults.degraded_pages":
                lambda: len(self.failures.degraded_pages),
            "health.state": lambda: self.health.state.name,
            "health.degradations":
                lambda: self.health.counters["degradations"],
            "health.recoveries":
                lambda: self.health.counters["recoveries_completed"],
            "health.mttr_ns": lambda: round(self.health.mttr_ns, 1),
            "health.time_in_degraded_ns":
                lambda: round(self.health.time_in_degraded_ns, 1),
            "health.flush_retries":
                lambda: self.eviction.counters["flush_retries"],
            "health.flush_failures":
                lambda: self.eviction.counters["flush_failures"],
            "health.lines_requeued":
                lambda: self.eviction.counters["lines_requeued"],
            "health.lines_redelivered":
                lambda: self.eviction.counters["lines_redelivered"],
            "health.parked_records": lambda: self.eviction.parked_records,
            "health.backpressure_stalls":
                lambda: self.eviction.counters["backpressure_stalls"],
            "health.eviction_failovers":
                lambda: self.eviction.counters["eviction_failovers"],
            "replication.factor": lambda: (
                self.replication.replication_factor
                if self.replication is not None
                else self.config.replication_factor),
            "replication.backlog_slots": lambda: (
                self.replication.backlog_slots
                if self.replication is not None else 0),
            "replication.lag_records": lambda: (
                self.replication.lag_records
                if self.replication is not None else 0),
            "replication.failovers": lambda: (
                self.replication.counters["failovers"]
                if self.replication is not None else 0),
            "replication.promotions": lambda: (
                self.replication.counters["promotions"]
                if self.replication is not None else 0),
            "replication.max_epoch": lambda: (
                self.replication.max_epoch
                if self.replication is not None else 0),
            "replication.stale_epoch_fenced": lambda: (
                self.replication.counters["stale_epoch_writes_fenced"]
                if self.replication is not None else 0),
            "replication.lines_replicated": lambda: (
                self.replication.counters["lines_replicated"]
                if self.replication is not None else 0),
            "replication.lines_rereplicated": lambda: (
                self.replication.counters["lines_rereplicated"]
                if self.replication is not None else 0),
            "replication.checksum_mismatches": lambda: (
                self.replication.counters["checksum_mismatches"]
                if self.replication is not None else 0),
            "replication.read_repairs": lambda: (
                self.replication.counters["read_repairs"]
                if self.replication is not None else 0),
            "replication.failover_mttr_ns":
                lambda: round(self.health.mttr_ns, 1),
            "replication.writebacks_redirected":
                lambda: self.eviction.counters["lines_redirected"],
            "network.transfers": lambda: self.fabric.counters["transfers"],
            "network.bytes_moved": lambda: self.fabric.bytes_moved,
            "network.failed_transfers":
                lambda: self.fabric.counters["failed_transfers"],
            "coherence.get_s": lambda: self.agent.directory.counters["get_s"],
            "coherence.get_m": lambda: self.agent.directory.counters["get_m"],
            "coherence.put_m": lambda: self.agent.directory.counters["put_m"],
            "coherence.snoops":
                lambda: self.agent.directory.counters["snoops"],
            "coherence.invalidations":
                lambda: self.agent.directory.counters["invalidations"],
            "coherence.owned_transitions":
                lambda: self.agent.directory.counters["owned_transitions"],
        }
        for name, fn in gauges.items():
            reg.gauge(name, fn=fn)
        # Latency distributions, fed on the access path while tracing
        # is enabled (log-bucketed; p50/p95/p99 in the exports).
        self._stall_hist = reg.histogram(
            "kona_access_stall_ns",
            help="critical-path stall per CPU-cache miss (ns)")
        self._evict_hist = reg.histogram(
            "kona_evict_page_ns",
            help="eviction-handler time per evicted page (ns)")

    @property
    def tracer(self):
        """The flight recorder's span tracer (for ``@traced`` methods)."""
        return self.obs.tracer

    def _directory_for(self, line_addr: int):
        return self.agent.directory if line_addr in self.vfmem else None

    def _remote_read_ns(self, node: str, nbytes: int) -> float:
        # The FPGA agent's fetch completes when the data arrives on the
        # coherent link; there is no CQE for software to poll on the
        # critical path (hardware data path, section 3).
        return self.fabric.transfer_cost_ns("compute", node, nbytes,
                                            linked=True, signaled=False)

    def _locate_with_failover(self, vfmem_addr: int):
        try:
            outcome = self.failures.resolve_for_fetch(vfmem_addr)
        except (NodeFailure, MachineCheckException):
            self.health.degrade("fetch path lost all replicas")
            raise
        if outcome.used_replica:
            self.counters.add("replica_reads")
            self.health.degrade("fetch failed over to replica")
        if outcome.extra_latency_ns:
            self.account.charge("failover_wait", outcome.extra_latency_ns)
        if self._capture is not None and (outcome.extra_latency_ns
                                          or outcome.used_replica):
            # Stash the failover outcome for the fault record the fill
            # is about to emit (the fetch that triggered this locate).
            self._capture._repl_ns = outcome.extra_latency_ns
            self._capture._used_replica = outcome.used_replica
        if self.content is not None:
            # Checksum-verify the page as the fill streams in; repairs
            # overlap with the DMA, so the cost stays off the critical
            # path but is still accounted.
            page = align_down(vfmem_addr, self.config.page_size)
            verify_ns = self.failures.verify_fetch(page, outcome)
            if verify_ns:
                self.account.charge("integrity_verify", verify_ns)
                self.background_ns += verify_ns
        return outcome.location

    def _eviction_sink(self, vfmem_page_addr: int, dirty_mask: int) -> None:
        self._evict_pages((vfmem_page_addr,), (dirty_mask,))

    def _evict_pages(self, page_addrs, masks) -> None:
        """Hand FMem victims to the eviction handler in one call.

        Eviction runs off the critical path (paper section 4.4): each
        page's handler time accrues to the background budget, folded
        in page order (one float chain; see the ordering contract in
        ``docs/architecture.md``).  The agent's sink passes one page;
        the batched engine passes its queue (``_FusedLane.flush``).
        """
        background = self.background_ns
        hist = self._evict_hist if self.obs.enabled else None
        for elapsed in self.eviction.evict_pages(page_addrs, masks):
            background += elapsed
            if hist is not None:
                hist.observe(elapsed)
        self.background_ns = background

    def attach_data_plane(self) -> DataPlane:
        """Attach the content shadow used for durability proofs.

        Once attached, every completed write advances its line's
        version, eviction records carry versioned payloads into the
        memnode stores, and fetches checksum-verify stored lines.
        Trace runs fall back to the scalar engine, whose per-access
        path observes every write.
        """
        if self.content is None:
            self.content = DataPlane()
            self.eviction.content = self.content
            if self.replication is not None:
                self.replication.content_active = True
        return self.content

    def attach_causal_capture(self, **kwargs):
        """Attach per-access causal fault capture; returns the sink.

        Every CPU-cache miss served from here on emits one columnar
        record ``(seq, line, node, kind, per-hop stall breakdown,
        health/chaos state)`` into a :class:`~repro.obs.causal.
        CausalCapture`; read the mergeable aggregate via ``.log``.
        Capture only observes — counters, accounts and the simulated
        clock are untouched, so runs with and without it are
        bit-identical (differential-tested).  ``kwargs`` pass through
        to :class:`~repro.obs.causal.CausalCapture` (window size,
        top-K, reservoir seed...).
        """
        if self._capture is None:
            from ..obs.causal import CausalCapture
            kwargs.setdefault("page_size", self.config.page_size)
            cap = CausalCapture(**kwargs)
            cap.bind_fabric(self.fabric._down)
            cap.on_health(self.health.state.name)
            self.health.add_context_provider(cap.on_health)
            self._capture = cap
            self.agent._capture = cap
        return self._capture

    def fleet_snapshot(self, component: Optional[str] = None,
                       tenant: Optional[str] = None, slo=None):
        """This runtime's telemetry as a fleet component snapshot.

        Freezes the flight recorder (metrics, histograms, sampled
        series, tracer events) plus the health monitor's annotated
        transitions and — when causal capture is attached — the
        drained fault log, under the recorder's component identity
        (override with ``component``/``tenant``).  ``slo`` is an
        optional :class:`~repro.obs.slo.SLOEngine` whose verdicts ride
        along.  Pure observation: nothing simulation-visible changes.
        """
        from ..obs.fleet import ComponentSnapshot
        return ComponentSnapshot.from_recorder(
            self.obs, component=component, tenant=tenant,
            health=self.health, fault_log=self._capture, slo=slo)

    def fleet_members(self, component: Optional[str] = None,
                      tenant: Optional[str] = None, slo=None) -> list:
        """Snapshots for this runtime *and* its rack: runtime, fabric,
        every registered memory node.

        The one-call way to capture a whole single-runtime topology
        into a :class:`~repro.obs.fleet.FleetRecorder`; sharded
        drivers instead collect per-shard members with distinct
        component labels.
        """
        members = [self.fleet_snapshot(component=component,
                                       tenant=tenant, slo=slo)]
        members.append(self.fabric.component_snapshot(tenant=tenant))
        for name in self.controller.nodes:
            members.append(
                self.controller.node(name).component_snapshot(
                    tenant=tenant))
        return members

    # -- allocation API ---------------------------------------------------------------

    def malloc(self, size: int) -> int:
        """Transparent allocation backed by disaggregated memory."""
        return self.alloclib.malloc(size)

    def free(self, addr: int) -> None:
        """Release an allocation."""
        self.alloclib.free(addr)

    def mmap(self, size: int) -> AddressRange:
        """Map a large region backed by disaggregated memory."""
        return self.alloclib.mmap(size)

    # -- data-path API -----------------------------------------------------------------

    def access(self, addr: int, is_write: bool) -> float:
        """One memory access; returns its critical-path latency in ns.

        A CPU-cache hit costs nothing extra beyond application compute;
        a miss pays the FMem or remote-fetch latency the agent reports.
        Page faults never appear on this path — VFMem pages are always
        present.
        """
        if self._cache_stale:
            raise SimulationError(_CACHE_HELD)
        return self._access(addr, is_write)

    def _access(self, addr: int, is_write: bool) -> float:
        # The trace loops check the stale-cache guard once per call,
        # not once per access.
        if addr not in self.vfmem:
            raise AddressError(f"{addr:#x} is not Kona-managed memory")
        cap = self._capture
        if cap is not None:
            # Scalar path: each access is the next global ordinal.  The
            # batched engine numbers a stream's faults from ``base`` and
            # advances it past every access it started, also when one
            # raises, so both engines number faults identically.
            cap.seq = cap.base
            cap.base += 1
        hit = self.cpu_cache.access(addr, is_write)
        if is_write and self.content is not None:
            # The access completed (no fault raised): the write is now
            # application-visible, so its version is durable-pending.
            self.content.record_write(addr)
        if hit:
            self.counters.add("cache_hits")
            return 0.0
        cost = self.agent.last_access_ns
        self.account.charge("memory_stall", cost)
        self.counters.add("cache_misses")
        if self._tracer.enabled:
            self._stall_hist.observe(cost)
        return cost

    def read(self, addr: int, size: int = units.WORD) -> float:
        """Read ``size`` bytes; returns total stall ns across lines."""
        return self._span_access(addr, size, is_write=False)

    def write(self, addr: int, size: int = units.WORD) -> float:
        """Write ``size`` bytes; returns total stall ns across lines."""
        return self._span_access(addr, size, is_write=True)

    def _span_access(self, addr: int, size: int, is_write: bool) -> float:
        if size <= 0:
            raise ConfigError(f"access of {size} bytes")
        if self._cache_stale:
            raise SimulationError(_CACHE_HELD)
        first = align_down(addr, units.CACHE_LINE)
        last = align_down(addr + size - 1, units.CACHE_LINE)
        total = 0.0
        for line in range(first, last + 1, units.CACHE_LINE):
            total += self._access(line, is_write)
        return total

    def run_workload(self, model, windows: int = 2, seed: int = 0,
                     max_accesses: Optional[int] = None,
                     engine: str = "batched") -> ExecutionReport:
        """Run a :class:`~repro.workloads.base.WorkloadModel` end to end.

        Convenience wrapper: generates the workload's trace, maps a
        region for its heap, rebases the addresses into Kona-managed
        memory and executes the stream.  ``max_accesses`` truncates the
        stream for quick runs.
        """
        trace = model.generate(windows=windows, seed=seed)
        region = self.mmap(model.memory_bytes)
        n = len(trace) if max_accesses is None else min(max_accesses,
                                                        len(trace))
        addrs = trace.addrs[:n] + np.uint64(region.start)
        writes = trace.writes[:n].copy()
        report = self.run_trace(addrs, writes, engine=engine)
        report.name = f"kona[{model.name}]"
        return report

    def run_trace(self, addrs: np.ndarray, writes: np.ndarray,
                  engine: str = "batched", base: int = 0) -> ExecutionReport:
        """Execute an access stream; returns the same report shape as
        the page-based engine, so Figure 7 can compare them directly.

        ``engine="batched"`` (default) bulk-resolves pure CPU-cache
        hits through the vectorized front-end and replays everything
        else through the fused miss lane (see :mod:`repro.kona.engine`);
        ``engine="scalar"`` is the one-access-at-a-time oracle.  Both
        produce bit-identical reports, counters and component state.
        A runtime the lane's proofs do not cover — tracing on, a
        content shadow, or other coherence agents or directory
        observers — runs the scalar oracle whichever engine is asked
        for.

        ``base`` adds a constant offset to every address as it is
        consumed — streamed columnar traces store region-relative
        addresses, and rebasing per chunk avoids materializing a
        shifted copy of a 100M-entry array.
        """
        return self.run_trace_stream([(addrs, writes)], engine=engine,
                                     base=base)

    def run_trace_stream(self, chunks, engine: str = "batched",
                         base: int = 0) -> ExecutionReport:
        """Execute a chunked access stream without holding it in RAM.

        ``chunks`` yields ``(addrs, writes)`` array pairs (e.g. from
        :func:`repro.workloads.trace.iter_trace_chunks`); empty ones
        are skipped.  Every chunk except the last must be a multiple of
        the 256-access maintenance cadence, which makes the
        ``maybe_evict``/sampler schedule — and therefore every counter
        and the bit-exact ``elapsed_ns`` — identical to one monolithic
        ``run_trace`` over the concatenated trace.  One float
        stall-accumulation chain threads through all chunks (see the
        ordering contract in ``docs/architecture.md``).

        The batched engine holds the CPU-cache state from the first
        chunk to the end of the stream, so the chunk iterator must not
        use the data path: ``access``/``read``/``write``/``flush`` and
        a nested ``run_trace`` raise :class:`SimulationError` there.
        Counter reads, maintenance (``maybe_evict``) and fabric and
        health calls (``fabric.fail_node``, ``recover``) are fine.  A
        causal capture, gauge sampler or tracer is bound when the stream
        starts, and so is the engine: a runtime the fused miss lane
        cannot serve (see ``run_trace``) runs the whole stream on the
        scalar oracle.
        """
        if engine not in ("batched", "scalar"):
            raise ConfigError(f"unknown run_trace engine {engine!r}; "
                              "choose 'batched' or 'scalar'")
        if self._cache_stale:
            raise SimulationError(_CACHE_HELD)
        if engine != "scalar" and not _FusedLane.eligible(self):
            # The batched engine is the fused lane or nothing: tracing,
            # a content shadow and extra agents or observers need the
            # per-access path.
            engine = "scalar"
        total = 0

        def validated():
            nonlocal total
            ragged = False   # a non-multiple chunk must be the last one
            for addrs, writes in chunks:
                if addrs.shape != writes.shape:
                    raise ConfigError("addrs and writes must have "
                                      "identical shape")
                n = int(addrs.size)
                if n == 0:
                    continue
                if ragged:
                    raise ConfigError(
                        "streamed chunks must be multiples of the "
                        "256-access maintenance cadence (only the final "
                        "chunk may be ragged)")
                ragged = n % 256 != 0
                total += n
                yield addrs, writes

        if engine == "scalar":
            stall = 0.0
            for addrs, writes in validated():
                stall = self._run_trace_scalar(addrs, writes, stall,
                                               base=base)
        else:
            stall = run_trace_batched(self, validated(), base=base)
        app = self.app_ns_per_access * total
        self.account.charge("app_compute", app)
        return ExecutionReport(
            name="kona",
            accesses=total,
            elapsed_ns=stall + app,
            background_ns=self.background_ns,
            account=self.account,
            counters=self.counters,
            bytes_fetched=(self.agent.counters["remote_fetches"]
                           * self.config.fetch_block),
            bytes_written_back=self.eviction.stats.wire_bytes,
        )

    def _run_trace_scalar(self, addrs: np.ndarray, writes: np.ndarray,
                          stall: float = 0.0, base: int = 0) -> float:
        """The oracle loop: one Python call chain per access.

        Iterates the trace in fixed-size chunks so large traces never
        materialize whole-array ``tolist`` copies.  ``stall`` seeds the
        accumulator so the scalar stream can continue one
        float-accumulation chain across its chunks — float addition is
        not associative, and the engines must agree bit for bit.
        """
        access = self._access   # callers checked _cache_stale
        maybe_evict = self.maybe_evict
        # The tick only drives the gauge sampler; skip it entirely when
        # none is attached instead of paying a call every 256 accesses.
        tick = self.obs.tick if self.obs.sampler is not None else None
        n = int(addrs.size)
        i = 0
        for pos in range(0, n, _SCALAR_CHUNK):
            hi = min(pos + _SCALAR_CHUNK, n)
            for addr, is_write in zip(addrs[pos:hi].tolist(),
                                      writes[pos:hi].tolist()):
                stall += access(int(addr) + base, is_write)
                if i & 0xFF == 0:
                    maybe_evict()   # background reclaimer ticks periodically
                    if tick is not None:
                        tick()      # gauge sampler, when one is attached
                i += 1
        return stall

    # -- maintenance ----------------------------------------------------------------------

    def maybe_evict(self, drain_pages=None) -> int:
        """Watermark-driven proactive eviction (config watermarks).

        When FMem occupancy exceeds ``reclaim_limit`` (the high
        watermark, unless the low one leaves nothing to reclaim),
        reclaim LRU pages down to the low watermark — off the critical
        path, the way the paper's Eviction Handler "monitors the cache
        utilization and evicts pages to make room" (section 4.1).
        ``drain_pages`` optionally takes the whole reclaim batch in
        place of the agent's per-page drain (see
        ``MemoryAgent.proactive_evict``; the batched engine passes
        ``_FusedLane.drain_pages``).  Returns pages reclaimed.
        """
        if self.replication is not None and self.replication.backlog_slots:
            # Background maintenance: rebuild the replication factor a
            # few slots per tick, then let health observe progress.
            ns = self.replication.re_replicate(
                self.config.rereplication_slots_per_tick)
            self.background_ns += ns
            self._check_replication_recovered()
        occupancy = self.fmem.occupancy
        if occupancy <= self.reclaim_limit:
            return 0
        count = occupancy - int(self.config.evict_low_watermark
                                * self.fmem.num_frames)
        self.counters.add("watermark_reclaims")
        return self.agent.proactive_evict(count, drain_pages=drain_pages)

    def _check_replication_recovered(self) -> None:
        """Close the health loop once redundancy is fully rebuilt."""
        if (self.health.state is HealthState.RECOVERING
                and self.eviction.parked_records == 0
                and len(self.failures.degraded_pages) == 0
                and (self.replication is None
                     or self.replication.backlog_slots == 0)):
            self.health.recovered()

    @traced("runtime.failover", cat="recovery")
    def on_memnode_failure(self, node_name: str) -> float:
        """Controller-driven failover after a memory-node crash.

        Promotes backups for every window the dead node primaried
        (waiting out its lease — the modeled unavailability window),
        redirects the writebacks parked for it to the promoted
        primaries, and moves health DEGRADED -> RECOVERING while the
        background re-replication task rebuilds redundancy.  Returns
        simulated ns consumed by the failover.
        """
        if self.replication is None:
            return 0.0
        report = self.replication.on_node_failure(node_name)
        if not report.affected:
            return 0.0
        self.health.degrade(f"memnode {node_name} failed")
        if report.lease_wait_ns > 0:
            # New primaries must not serve before the dead node's lease
            # expires; the fencing wait is real unavailability.
            self.fabric.clock.advance(report.lease_wait_ns)
            self.account.charge("failover_lease_wait", report.lease_wait_ns)
        # In-flight batches staged for the dead node reroute through the
        # epoch fence; parked ones drain to the promoted primaries.
        redirected_ns = self.eviction.flush_node(node_name)
        redirected_ns += self.eviction.redirect_parked(node_name)
        self.background_ns += redirected_ns
        self.counters.add("memnode_failovers")
        if report.promoted_slots:
            self.health.start_recovery()
            self._check_replication_recovered()
        return report.lease_wait_ns + redirected_ns

    @traced("runtime.recover", cat="recovery")
    def recover(self) -> float:
        """Recovery path after an outage clears (paper section 4.5).

        Drains parked writebacks to every node that came back, re-arms
        pages degraded to fault-on-access, rebuilds any remaining
        replication deficit and scrubs stored checksums, then walks the
        health state machine RECOVERING -> HEALTHY once nothing is left
        parked or under-replicated.  Returns background ns consumed.
        """
        repl_ns = 0.0
        if self.replication is not None:
            repl_ns = self.replication.re_replicate_all()
            _, repaired, scrub_ns = self.replication.scrub()
            repl_ns += scrub_ns
            if repaired:
                self.counters.add("scrub_repairs", repaired)
            self.background_ns += repl_ns
        if (self.health.state is HealthState.HEALTHY
                and self.eviction.parked_records == 0):
            return repl_ns
        if self.health.state is HealthState.DEGRADED:
            self.health.start_recovery()
        drained_ns = self.eviction.drain_recovered()
        self.background_ns += drained_ns
        pages = self.failures.recover_degraded()
        if pages:
            self.counters.add("pages_rearmed", pages)
        if (self.health.state is HealthState.RECOVERING
                and self.eviction.parked_records == 0
                and (self.replication is None
                     or self.replication.backlog_slots == 0)):
            self.health.recovered()
        return drained_ns + repl_ns

    @traced("runtime.flush", cat="runtime")
    def flush(self) -> float:
        """Write everything back: CPU caches, FMem, pending logs.

        Returns background ns consumed.  Used at teardown and by tests
        asserting end-to-end dirty-data conservation.
        """
        if self._cache_stale:
            raise SimulationError(_CACHE_HELD)
        before = self.background_ns
        self.cpu_cache.flush_tracked()
        for page_addr in self.fmem.resident_pages():
            self.fmem.drop(page_addr)
            mask = self.agent.bitmap.clear_page(
                page_addr // self.config.page_size)
            self.background_ns += self.eviction.evict_page(page_addr, mask)
        self.background_ns += self.eviction.flush_all()
        return self.background_ns - before

    def close(self) -> None:
        """Flush and release every slab back to the rack."""
        self.flush()
        if self.replication is not None:
            self.replication.release_all_slabs()
        self.resource_manager.release_all()

    def __enter__(self) -> "KonaRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
