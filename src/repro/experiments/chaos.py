"""The section 4.5 chaos campaign: kill a memory node, survive, recover.

The paper's failure story is qualitative — network delays become MCEs
or page-fault fallbacks, memory-node failures are survived via
eviction-time replication — so this experiment makes it quantitative:
a seeded campaign kills one memory node mid-run (while dirty pages are
being evicted to it), lets the runtime degrade, restores the node, and
checks the recovery invariants:

* **writeback conservation** — every dirty line the eviction handler
  accepted is delivered, staged, or parked; none lost;
* **no scatter loss** — every acknowledged record was scattered on a
  memory node;
* **full recovery** — the health machine returns to HEALTHY with the
  park drained and degraded pages re-armed;
* **AMAT recovery** — the final measurement window is back within a
  tolerance of the pre-fault baseline.

Fault times are simulated-clock timestamps.  Because total runtime
depends on the workload, a short calibration run (same seed, same
config) estimates ns-per-access first, and the kill/recover points are
placed at fractions of the estimated total.

Every campaign is also monitored: a flight recorder samples the gauges
into a time-series store, and an SLO engine with the Kona rule set
(:data:`KONA_SLOS`) is attached to the health monitor before the first
access, so each health transition carries the burn-rate alerts firing
at that instant.  ``tracing=True`` records spans; ``fleet=True``
freezes the runtime and its rack into a
:class:`~repro.obs.fleet.FleetRecorder`, the run artifact ``repro
dashboard`` renders and ``repro perfdiff`` compares.  The rule set
lives here, not in :mod:`repro.obs`, because metric names and bounds
are runtime knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..chaos import CampaignResult, ChaosEngine
from ..common import units
from ..kona import KonaConfig, KonaRuntime
from ..obs import FleetRecorder, FlightRecorder, SLOEngine, SLORule

#: Mapped region driven by the campaign (spans both memory nodes).
REGION_BYTES = 32 * units.MB

#: Sim-clock interval between sampler rows (50 us keeps a 30k-access
#: campaign at a few dozen time-series points).
SAMPLE_INTERVAL_NS = 50_000.0

#: The Kona SLO rule set evaluated over every node-failure campaign.
#:
#: Bounds are calibrated against the default campaign scale (seed 0,
#: 8k accesses): the fault-path rules are *meant* to burn during the
#: outage — that is what ties alerts to the DEGRADED transition —
#: while the recovery rules (park drained, MTTR ceiling, stall tail)
#: must hold once the campaign ends.
KONA_SLOS: Tuple[SLORule, ...] = (
    SLORule(name="no-degraded-pages", metric="faults.degraded_pages",
            kind="rate", op="<=", bound=0.0,
            description="no page degrades to fault-on-access"),
    SLORule(name="no-replica-failovers", metric="faults.replica_failovers",
            kind="rate", op="<=", bound=0.0,
            description="no fetch fails over to a replica"),
    SLORule(name="no-eviction-backpressure",
            metric="health.backpressure_stalls",
            kind="rate", op="<=", bound=0.0,
            description="the writeback park never stalls the app"),
    SLORule(name="park-drained", metric="health.parked_records",
            kind="level", op="<=", bound=0.0,
            description="no dirty records parked awaiting a dead node"),
    SLORule(name="access-stall-p99", metric="kona_access_stall_ns",
            kind="quantile", op="<=", bound=60_000.0, quantile=0.99,
            description="p99 miss stall stays under 60 us"),
    SLORule(name="mttr-ceiling", metric="health.mttr_ns",
            kind="level", op="<=", bound=2_000_000.0,
            description="mean time to repair stays under 2 ms"),
)


@dataclass
class ChaosRun:
    """One monitored campaign: its result, recorder, SLO engine and
    (``fleet=True`` only) the fleet artifact."""

    result: CampaignResult
    recorder: FlightRecorder
    engine: SLOEngine
    fleet: Optional[FleetRecorder] = None

    @property
    def passed(self) -> bool:
        """Whether every recovery invariant held."""
        return self.result.passed

    def fingerprint(self) -> str:
        """The campaign fingerprint (monitoring never changes it)."""
        return self.result.fingerprint()

    def degraded_alerts(self) -> List[str]:
        """Alert briefs attached to DEGRADED transitions.

        Non-empty means the burn-rate alerting explained at least one
        degradation *at the instant it happened*.
        """
        return [brief for _, state, context in self.result.health_transitions
                if state == "DEGRADED" for brief in context.get("alerts", [])]


def monitor(runtime: KonaRuntime, rules: Sequence[SLORule]) -> SLOEngine:
    """Attach an SLO engine over the runtime's sampled series to its
    health monitor, before the first access."""
    recorder = runtime.obs
    engine = SLOEngine(recorder.tsdb, list(rules),
                       registry=recorder.registry,
                       sampler=recorder.sampler)
    engine.attach(runtime.health)
    return engine


def campaign_fleet(runtime: KonaRuntime, name: str, component: str,
                   tenant: Optional[str], engine: SLOEngine
                   ) -> FleetRecorder:
    """The runtime, its fabric and every memnode as one fleet, with the
    SLO verdicts on the runtime member."""
    fleet = FleetRecorder(name=name)
    for member in runtime.fleet_members(component=component, tenant=tenant,
                                        slo=engine):
        fleet.add(member)
    return fleet


def build_chaos_runtime(seed: int = 0, replication: int = 1,
                        recorder: Optional[FlightRecorder] = None
                        ) -> KonaRuntime:
    """A laptop-sized two-node runtime with seeded retry jitter.

    Pass a :class:`FlightRecorder` to monitor or trace the campaign; by
    default the runtime gets a disabled recorder.
    """
    config = KonaConfig(fmem_capacity=4 * units.MB,
                        vfmem_capacity=64 * units.MB,
                        slab_bytes=16 * units.MB,
                        replication_factor=replication,
                        retry_seed=seed)
    runtime = KonaRuntime(config, num_memory_nodes=2,
                          app_ns_per_access=70.0, recorder=recorder)
    # The default 100 us coherence timeout would swallow the whole
    # outage window in a handful of faulted accesses at this scale;
    # a 10 us timeout keeps the degraded phase populated with work.
    runtime.failures.coherence_timeout_ns = 10_000.0
    return runtime


def chaos_stream(region_start: int, ops: int,
                 seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """A seeded mixed read/write stream with mild page locality."""
    rng = np.random.default_rng(seed)
    pages = REGION_BYTES // units.PAGE_4K
    # Zipf-ish locality: cluster around a drifting hot set.
    hot = rng.integers(0, pages, size=ops // 64 + 1)
    page_idx = hot[np.arange(ops) // 64]
    jitter = rng.integers(0, 16, size=ops)
    page = (page_idx + jitter) % pages
    line = rng.integers(0, units.PAGE_4K // units.CACHE_LINE, size=ops)
    addrs = (region_start + page * units.PAGE_4K
             + line * units.CACHE_LINE).astype(np.uint64)
    writes = rng.random(ops) < 0.5
    return addrs, writes


def _estimate_ns_per_access(ops: int, seed: int) -> float:
    """Calibrate the campaign clock with a fault-free dry run."""
    probe = min(4000, ops)
    runtime = build_chaos_runtime(seed)
    region = runtime.mmap(REGION_BYTES)
    addrs, writes = chaos_stream(region.start, probe, seed)
    engine = ChaosEngine(runtime, seed=seed)
    engine.run(addrs, writes)
    return runtime.fabric.clock.now / probe


def run_chaos(seed: int = 0, ops: int = 30_000,
              kill_fraction: float = 0.30,
              recover_fraction: float = 0.70,
              amat_tolerance: float = 0.35,
              victim: str = "mem0",
              tracing: bool = False,
              fleet: bool = False,
              tenant: Optional[str] = None) -> ChaosRun:
    """Run the memory-node-failure campaign end to end.

    Schedule: kill the victim at ``kill_fraction`` of the estimated
    runtime, force a memory-pressure eviction burst mid-outage (so the
    failure provably lands while dirty lines homed on the dead node are
    being written back), then restore the node and let the runtime
    drain.

    The SLO engine (:data:`KONA_SLOS`) judges the sampled series;
    after the campaign a full sweep completes the alert timeline.
    ``tracing`` records spans; ``fleet`` returns the ``runtime:chaos``
    topology as a fleet (``tenant`` labels every component).
    """
    ns_per_access = _estimate_ns_per_access(ops, seed)
    total_est = ns_per_access * ops
    recorder = FlightRecorder(tracing=tracing,
                              sample_interval_ns=SAMPLE_INTERVAL_NS)
    runtime = build_chaos_runtime(seed, recorder=recorder)
    slo = monitor(runtime, KONA_SLOS)
    region = runtime.mmap(REGION_BYTES)
    addrs, writes = chaos_stream(region.start, ops, seed)
    engine = ChaosEngine(runtime, seed=seed,
                         amat_tolerance=amat_tolerance)
    mid_outage = (kill_fraction + recover_fraction) / 2 * total_est
    engine.kill_node(kill_fraction * total_est, victim)
    engine.pressure(mid_outage, pages=runtime.fmem.num_frames // 2)
    engine.recover_node(recover_fraction * total_est, victim)
    result = engine.run(addrs, writes)
    slo.sweep()
    return ChaosRun(
        result=result, recorder=recorder, engine=slo,
        fleet=(campaign_fleet(runtime, "node-failure", "runtime:chaos",
                              tenant, slo) if fleet else None))
