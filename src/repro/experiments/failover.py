"""Memnode failover with zero data loss: the durability proof.

The replication design (section 4.5) promises that losing a memory
node loses no acknowledged write: every remote page has live backups,
a dead primary's slots are promoted behind the lease fence, in-flight
and parked writebacks are redirected to the new primaries, and the
replication factor is rebuilt in the background.  This driver turns
that promise into a *differential* experiment:

1. **Oracle run** — the exact same seeded access stream on an
   identical runtime with no faults; flush, recover, and snapshot the
   remote-memory image (per-line ``(version, payload)`` from the
   current primaries).
2. **Fault run** — same stream, but the campaign kills the victim
   memnode mid-run (it never comes back), forces a memory-pressure
   eviction burst during the outage, and silently corrupts stored
   lines on a surviving node.  After the campaign the driver flushes,
   recovers (re-replication plus checksum scrub with read-repair), and
   snapshots the image again.

The two images must be **dict-equal** — same lines, same versions,
same payloads — which is appended to the campaign's invariant list as
``durability_image_match``.  Because a backup exists for every slot,
the fault run must also complete with *zero* faulted accesses
(``no_faulted_accesses``): failover is invisible to the application
beyond the lease-wait stall.

An SLO engine rides along (the same wiring as the node-failure
campaign) so the failover story is judged by recovery rules too: the
park drains, the re-replication backlog clears promptly, and the
health machine's MTTR stays under the ceiling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..chaos import ChaosEngine, InvariantCheck
from ..common import units
from ..kona import KonaConfig, KonaRuntime
from ..obs import FlightRecorder, SLORule
from .chaos import (
    REGION_BYTES,
    SAMPLE_INTERVAL_NS,
    ChaosRun,
    campaign_fleet,
    chaos_stream,
    monitor,
)

#: Recovery rules for the failover campaign.  The backlog rule is
#: *meant* to go bad during the outage window — re-replication takes
#: simulated time — so its objective tolerates that window; the park
#: and MTTR rules must hold essentially everywhere.
FAILOVER_SLOS: Tuple[SLORule, ...] = (
    SLORule(name="park-drained", metric="health.parked_records",
            kind="level", op="<=", bound=0.0, objective=0.95,
            description="no dirty records parked awaiting a dead node"),
    SLORule(name="replication-backlog-drained",
            metric="replication.backlog_slots",
            kind="level", op="<=", bound=0.0, objective=0.70,
            description="re-replication restores the factor promptly"),
    SLORule(name="mttr-ceiling", metric="health.mttr_ns",
            kind="level", op="<=", bound=2_000_000.0,
            description="failover mean time to repair stays under 2 ms"),
)


def build_failover_runtime(seed: int = 0,
                           recorder: Optional[FlightRecorder] = None
                           ) -> KonaRuntime:
    """A three-node, factor-2 replicated runtime with a data plane.

    48 MB of virtual far memory over three nodes gives each node a
    page-aligned 32 MB (4 slabs of 8 MB): enough headroom that every
    slot killed with its primary can be re-replicated onto the two
    survivors.  The data plane is attached so writebacks carry real
    (versioned, checksummed) content and the final image is provable.
    """
    config = KonaConfig(fmem_capacity=4 * units.MB,
                        vfmem_capacity=48 * units.MB,
                        slab_bytes=8 * units.MB,
                        replication_factor=2,
                        retry_seed=seed,
                        retry_deadline_ns=200_000.0,
                        lease_ttl_ns=30_000.0,
                        rereplication_slots_per_tick=1)
    runtime = KonaRuntime(config, num_memory_nodes=3,
                          app_ns_per_access=70.0, recorder=recorder)
    runtime.failures.coherence_timeout_ns = 10_000.0
    runtime.attach_data_plane()
    return runtime


def _image_digest(image: Dict[int, Tuple[int, int]]) -> str:
    """Stable hex digest of a remote-memory image."""
    hasher = hashlib.sha256()
    for addr in sorted(image):
        version, payload = image[addr]
        hasher.update(f"{addr}:{version}:{payload};".encode())
    return hasher.hexdigest()[:16]


def _settled_image(runtime: KonaRuntime) -> Dict[int, Tuple[int, int]]:
    """Flush, recover (scrub + re-replicate), and snapshot the image."""
    runtime.flush()
    runtime.recover()
    return runtime.replication.image()


def _oracle_image(seed: int, ops: int) -> Tuple[Dict[int, Tuple[int, int]],
                                                float]:
    """The no-fault image plus the total simulated runtime (for fault
    placement: the fault run sees the identical stream, so the oracle
    clock doubles as the calibration run)."""
    runtime = build_failover_runtime(seed)
    region = runtime.mmap(REGION_BYTES)
    addrs, writes = chaos_stream(region.start, ops, seed)
    ChaosEngine(runtime, seed=seed).run(addrs, writes)
    image = _settled_image(runtime)
    total_ns = runtime.fabric.clock.now
    runtime.close()
    return image, total_ns


@dataclass(kw_only=True)
class FailoverResult(ChaosRun):
    """The durability verdict for one failover campaign."""

    image_lines: int
    oracle_lines: int
    image_matches: bool
    image_digest: str
    mttr_ns: float
    failovers: int
    promotions: int
    scrub_repairs: int
    #: Causal fault log of the fault run (``capture=True`` only).
    #: Deliberately outside :meth:`fingerprint` — capture must never
    #: change campaign outcomes, and the tests pin that separately.
    fault_log: Optional[Any] = None

    @property
    def passed(self) -> bool:
        """Invariants (including the image proof) plus SLO verdicts."""
        return self.result.passed and all(
            met for _, _, met in self.engine.verdicts())

    def fingerprint(self) -> str:
        """Campaign fingerprint extended with the image digest."""
        return (self.result.fingerprint()
                + f"\nimage={self.image_digest}:{self.image_lines}")

    def rows(self) -> List[Tuple[str, object]]:
        """(metric, value) rows for the CLI report."""
        out: List[Tuple[str, object]] = [
            ("image_lines", self.image_lines),
            ("oracle_lines", self.oracle_lines),
            ("image_digest", self.image_digest),
            ("image_matches", "yes" if self.image_matches else "NO"),
            ("failovers", self.failovers),
            ("promotions", self.promotions),
            ("scrub_repairs", self.scrub_repairs),
            ("mttr_us", round(self.mttr_ns / 1e3, 1)),
        ]
        out.extend(self.result.rows())
        return out


def run_failover(seed: int = 0, ops: int = 20_000,
                 kill_fraction: float = 0.35,
                 corrupt_fraction: float = 0.60,
                 corrupt_lines: int = 24,
                 victim: str = "mem0",
                 corrupt_node: str = "mem1",
                 amat_tolerance: float = 0.50,
                 tracing: bool = False,
                 capture: bool = False,
                 fleet: bool = False,
                 tenant: Optional[str] = None) -> FailoverResult:
    """Run the memnode-failover durability campaign end to end.

    Schedule: kill the victim at ``kill_fraction`` of the (oracle-
    measured) total runtime and *never restart it*; force a pressure
    burst mid-outage so dirty lines homed on the dead node are
    provably in flight; silently corrupt ``corrupt_lines`` stored
    lines on a surviving node at ``corrupt_fraction``.  The final
    image must still equal the no-fault oracle's, bit for bit.

    ``capture=True`` attaches causal fault tracing to the fault run:
    every remote fetch is attributed hop by hop, health transitions
    carry the dominant hop and tail exemplars, and the result's
    ``fault_log`` pins the outage-window tail to the fabric and
    replication hops.

    ``fleet=True`` additionally snapshots the whole topology —
    runtime, fabric, every memnode — into a
    :class:`~repro.obs.fleet.FleetRecorder` on ``result.fleet``
    (with SLO verdicts and, when capturing, the fault log attached),
    the artifact ``repro dashboard`` renders.  ``tenant`` labels
    every component for per-tenant attribution.
    """
    oracle, total_est = _oracle_image(seed, ops)
    recorder = FlightRecorder(tracing=tracing,
                              sample_interval_ns=SAMPLE_INTERVAL_NS)
    runtime = build_failover_runtime(seed, recorder=recorder)
    slo_engine = monitor(runtime, FAILOVER_SLOS)
    cap = runtime.attach_causal_capture() if capture else None
    if cap is not None:
        slo_engine.attach_fault_log(cap)
    region = runtime.mmap(REGION_BYTES)
    addrs, writes = chaos_stream(region.start, ops, seed)
    engine = ChaosEngine(runtime, seed=seed, amat_tolerance=amat_tolerance)
    engine.kill_node(kill_fraction * total_est, victim)
    engine.pressure((kill_fraction + 0.10) * total_est,
                    pages=runtime.fmem.num_frames // 2)
    engine.corrupt_data(corrupt_fraction * total_est, corrupt_node,
                        corrupt_lines)
    result = engine.run(addrs, writes)
    image = _settled_image(runtime)
    slo_engine.sweep()
    matches = image == oracle
    result.invariants.append(InvariantCheck(
        name="durability_image_match",
        passed=matches,
        detail=(f"lines={len(image)} oracle_lines={len(oracle)} "
                f"digest={_image_digest(image)} "
                f"oracle_digest={_image_digest(oracle)}")))
    result.invariants.append(InvariantCheck(
        name="no_faulted_accesses",
        passed=result.faulted_accesses == 0,
        detail=(f"faulted={result.faulted_accesses} — replication must "
                f"make the outage invisible to the application")))
    flat: Dict[str, Any] = result.telemetry.flat()
    return FailoverResult(
        result=result,
        image_lines=len(image),
        oracle_lines=len(oracle),
        image_matches=matches,
        image_digest=_image_digest(image),
        mttr_ns=float(runtime.health.mttr_ns),
        failovers=int(flat.get("replication.failovers", 0)),
        promotions=int(flat.get("replication.promotions", 0)),
        scrub_repairs=int(runtime.counters["scrub_repairs"]),
        recorder=recorder,
        engine=slo_engine,
        fault_log=cap.log if cap is not None else None,
        fleet=(campaign_fleet(runtime, "memnode-failover",
                              "runtime:failover", tenant, slo_engine)
               if fleet else None),
    )
