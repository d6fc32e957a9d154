"""Partition-sharded trace execution over worker processes.

A 100M+-access columnar trace replays faster when split across CPU
cores, but only if the split cannot change the answer.  This runner
partitions by *address*, not by position: shard ``s`` of ``S`` owns
every access whose 4 KB page satisfies ``page % S == s``.  That gives
two properties the tests pin down:

* **disjoint and covering** — every access lands in exactly one shard,
  so the shard access counts always sum to the trace length;
* **deterministic** — a shard's sub-stream depends only on the trace
  and ``(s, S)``, never on scheduling, so serial and parallel runs
  merge to identical totals.

Each worker models an independent compute node running its own full
Kona runtime over its address partition (the scale-out deployment of
the paper's section 5: per-node coherence domains over shared FMem);
per-shard counters aggregate with :meth:`Counter.merge`.  Because the
partition is by page, a worker's FMem/front-cache behaviour is closed
under its own addresses — no shard ever observes another's lines.

Workers stream their partition from the memory-mapped columnar trace
in fixed chunks, so peak RSS per worker stays at chunk size no matter
the trace length.  ``processes<=1`` runs serially in-process — same
results, no pool — matching :mod:`repro.experiments.sweep`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..common import units
from ..common.errors import ConfigError
from ..common.stats import Counter
from ..workloads.trace import open_columnar

#: The engine maintenance cadence (see ``repro.kona.engine._CADENCE``):
#: all but the last chunk handed to ``run_trace_stream`` must be a
#: multiple of this for bit-exact equivalence with a monolithic run.
_CADENCE = 256


@dataclass(frozen=True)
class ShardSpec:
    """One shard's work order (picklable: sent to pool workers)."""

    trace_path: str               # columnar trace directory
    shard: int
    num_shards: int
    engine: str = "batched"
    chunk_size: int = 1 << 20     # trace read granularity (accesses)
    fmem_mb: int = 64
    vfmem_mb: int = 256
    app_ns: float = 70.0
    capture: bool = False         # per-shard causal fault capture
    fleet: bool = False           # snapshot the shard's fleet members
    tenant: Optional[str] = None  # tenant label on fleet snapshots

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigError(f"num_shards {self.num_shards} must be "
                              f"positive")
        if not 0 <= self.shard < self.num_shards:
            raise ConfigError(f"shard {self.shard} outside "
                              f"[0, {self.num_shards})")
        if self.chunk_size <= 0 or self.chunk_size % _CADENCE:
            raise ConfigError(f"chunk_size {self.chunk_size} must be a "
                              f"positive multiple of {_CADENCE}")


@dataclass
class ShardOutcome:
    """What one worker hands back (picklable)."""

    shard: int
    accesses: int
    elapsed_ns: float
    counters: Counter
    remote_fetches: int
    pages_evicted: int
    fault_log: Optional[object] = None   # FaultLog when capture was on
    #: ComponentSnapshots of the shard's topology when ``fleet`` was
    #: on.  Component labels are shard-qualified (``runtime:shard3``,
    #: ``memnode:shard3.mem0``...) so fleet membership stays unique.
    snapshots: Optional[List[object]] = None


@dataclass
class ShardedRunResult:
    """All shards of one run, plus the merged totals."""

    specs: List[ShardSpec]
    outcomes: List[ShardOutcome]
    totals: Counter

    @property
    def accesses(self) -> int:
        """Total accesses executed across all shards."""
        return sum(o.accesses for o in self.outcomes)

    @property
    def elapsed_ns(self) -> float:
        """Wall-model time of the sharded deployment: the slowest
        shard (they run concurrently on independent nodes)."""
        return max((o.elapsed_ns for o in self.outcomes), default=0.0)

    def fault_log(self):
        """All shards' causal fault logs merged into one (None when
        capture was off).  Per-shard record streams are disjoint
        (page-modulo partition), so the merge is the exact cluster
        aggregate — see ``FaultLog.merge``."""
        merged = None
        for outcome in self.outcomes:
            log = outcome.fault_log
            if log is None:
                continue
            if merged is None:
                from ..obs.causal import FaultLog
                merged = FaultLog(window_size=log.window_size,
                                  top_k=log.top_k,
                                  reservoir_size=log.reservoir_size,
                                  seed=log.seed)
            merged.merge(log)
        return merged

    def fleet(self, name: str = "sharded-run"):
        """All shards' component snapshots as one FleetRecorder.

        None unless the specs asked for ``fleet`` capture.  Shard
        partitions are disjoint, so the fleet's :meth:`~repro.obs.
        fleet.FleetRecorder.totals` over the runtime components equal
        a monolithic run's counters exactly — the property the fleet
        aggregation tests pin.
        """
        members = [snap for outcome in self.outcomes
                   for snap in (outcome.snapshots or [])]
        if not members:
            return None
        from ..obs.fleet import FleetRecorder
        fleet = FleetRecorder(name=name)
        for member in members:
            fleet.add(member)
        return fleet


def shard_mask(addrs: np.ndarray, shard: int, num_shards: int,
               page_size: int = units.PAGE_4K) -> np.ndarray:
    """The boolean partition mask: page-modulo ownership.

    Pages (not lines) are the unit so a shard owns whole FMem fetch
    blocks — a page's lines never split across runtimes.  With a
    power-of-two page size and shard count the owner is taken by shift
    and mask on an int64 view: the arithmetic shift changes only high
    bits of the page number, which the mask drops, so addresses at or
    above 2^63 get the modulo's owner too.
    """
    addrs = np.asarray(addrs, dtype=np.uint64)
    if not (page_size & (page_size - 1) or num_shards & (num_shards - 1)):
        pages = addrs.view(np.int64) >> (page_size.bit_length() - 1)
        pages &= num_shards - 1
        return pages == shard
    pages = addrs // np.uint64(page_size)
    return pages % np.uint64(num_shards) == np.uint64(shard)


def _aligned_chunks(parts: Iterator[Tuple[np.ndarray, np.ndarray]]
                    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Re-chunk a filtered stream to maintenance-cadence multiples.

    Partition filtering leaves ragged chunk lengths, and
    ``run_trace_stream`` is bit-exact only if just the last chunk is
    ragged.  Each part's aligned body is yielded as a slice of it; only
    the ragged tail is carried, topped up from the next part's head.
    """
    tail: Optional[Tuple[np.ndarray, np.ndarray]] = None
    for addrs, writes in parts:
        if tail is not None:
            head = min(_CADENCE - tail[0].size, addrs.size)
            tail = (np.concatenate((tail[0], addrs[:head])),
                    np.concatenate((tail[1], writes[:head])))
            addrs, writes = addrs[head:], writes[head:]
            if tail[0].size < _CADENCE:
                continue
            yield tail
        body = addrs.size - addrs.size % _CADENCE
        if body:
            yield addrs[:body], writes[:body]
        tail = (addrs[body:], writes[body:]) if body < addrs.size else None
    if tail is not None:
        yield tail


def run_shard(spec: ShardSpec) -> ShardOutcome:
    """Execute one shard (module-level: picklable for the pool).

    Builds a fresh runtime, maps the trace's region, and streams the
    shard's partition of the memory-mapped trace through
    ``run_trace_stream`` with per-chunk rebasing — the trace is never
    materialized, shifted or copied whole.
    """
    from ..kona.config import KonaConfig
    from ..kona.runtime import KonaRuntime

    columnar = open_columnar(spec.trace_path)
    cfg = KonaConfig(fmem_capacity=spec.fmem_mb * units.MB,
                     vfmem_capacity=spec.vfmem_mb * units.MB,
                     slab_bytes=16 * units.MB)
    rt = KonaRuntime(cfg, app_ns_per_access=spec.app_ns)
    region = rt.mmap(columnar.memory_bytes)
    cap = rt.attach_causal_capture() if spec.capture else None

    def parts():
        for addrs, writes in columnar.iter_chunks(spec.chunk_size):
            # Gather from plain views: memmap indexing wraps each result.
            addrs = addrs.view(np.ndarray)
            keep = np.flatnonzero(
                shard_mask(addrs, spec.shard, spec.num_shards))
            if keep.size:
                yield (addrs.view(np.int64).take(keep),
                       writes.view(np.ndarray).take(keep))

    report = rt.run_trace_stream(_aligned_chunks(parts()),
                                 engine=spec.engine, base=region.start)
    counters = Counter()
    counters.merge(rt.counters)
    counters.add("shard_accesses", report.accesses)
    counters.add("remote_fetches", rt.agent.counters["remote_fetches"])
    counters.add("pages_evicted", rt.eviction.stats.pages_evicted)
    snapshots = None
    if spec.fleet:
        # Shard-qualify every component label: each worker runs a full
        # private topology, so ``memnode:mem0`` would collide across
        # shards without the ``shardN.`` qualifier.
        snapshots = [rt.fleet_snapshot(
            component=f"runtime:shard{spec.shard}", tenant=spec.tenant)]
        snapshots.append(rt.fabric.component_snapshot(
            component=f"fabric:shard{spec.shard}", tenant=spec.tenant))
        for name in rt.controller.nodes:
            snapshots.append(rt.controller.node(name).component_snapshot(
                component=f"memnode:shard{spec.shard}.{name}",
                tenant=spec.tenant))
    return ShardOutcome(
        shard=spec.shard, accesses=report.accesses,
        elapsed_ns=report.elapsed_ns, counters=counters,
        remote_fetches=rt.agent.counters["remote_fetches"],
        pages_evicted=rt.eviction.stats.pages_evicted,
        fault_log=cap.log if cap is not None else None,
        snapshots=snapshots)


def make_shards(trace_path: str, num_shards: int,
                engine: str = "batched", chunk_size: int = 1 << 20,
                fmem_mb: int = 64, vfmem_mb: int = 256,
                app_ns: float = 70.0, capture: bool = False,
                fleet: bool = False,
                tenant: Optional[str] = None) -> List[ShardSpec]:
    """Build the spec list for every shard of a trace."""
    return [ShardSpec(trace_path=trace_path, shard=s,
                      num_shards=num_shards, engine=engine,
                      chunk_size=chunk_size, fmem_mb=fmem_mb,
                      vfmem_mb=vfmem_mb, app_ns=app_ns,
                      capture=capture, fleet=fleet, tenant=tenant)
            for s in range(num_shards)]


def run_sharded(specs: Sequence[ShardSpec],
                processes: Optional[int] = None) -> ShardedRunResult:
    """Run every shard, fanning out over a process pool.

    Results are in shard order either way, and identical between
    serial and parallel modes.  The partition-coverage invariant is
    asserted here: the shard access counts must sum to the trace
    length, or the partition dropped or duplicated accesses.
    """
    specs = list(specs)
    if not specs:
        raise ConfigError("sharded run needs at least one shard")
    paths = {spec.trace_path for spec in specs}
    shards = {(spec.shard, spec.num_shards) for spec in specs}
    if len(paths) != 1 or len(shards) != len(specs):
        raise ConfigError("shard specs must cover one trace with "
                          "distinct shard indices")
    if processes is None:
        processes = min(os.cpu_count() or 1, len(specs))
    if processes <= 1:
        outcomes = [run_shard(spec) for spec in specs]
    else:
        with Pool(processes=processes) as pool:
            outcomes = pool.map(run_shard, specs)
    totals = Counter()
    for outcome in outcomes:
        totals.merge(outcome.counters)
    expected = open_columnar(specs[0].trace_path).length
    if (len(specs) == specs[0].num_shards
            and sum(o.accesses for o in outcomes) != expected):
        raise ConfigError(
            f"partition violated coverage: shard accesses sum to "
            f"{sum(o.accesses for o in outcomes)}, trace has {expected}")
    return ShardedRunResult(specs=specs, outcomes=outcomes, totals=totals)
