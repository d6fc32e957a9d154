"""The benchmark's four workloads: inputs, set-up, replay and checks.

Each workload is driven only through the simulator's public entry
points: ``KonaConfig``/``KonaRuntime`` (``mmap``, ``run_trace`` with
``engine="batched"`` or ``"scalar"``, ``run_trace_stream``,
``attach_causal_capture`` and the components' counters), ``WORKLOADS``,
``StreamingTraceWriter``/``open_columnar`` and
``make_shards``/``run_sharded``.  Inputs are made here from the seed;
the simulator only receives the generated accesses.

Run ``python bench/cases.py`` to print the input digests of the pinned
seeds in the shape of ``bench/digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import repro  # noqa: E402
from repro.common import units  # noqa: E402
from repro.experiments.shard import make_shards, run_sharded  # noqa: E402
from repro.kona.config import KonaConfig  # noqa: E402
from repro.kona.runtime import KonaRuntime  # noqa: E402
from repro.workloads import WORKLOADS as MODELS  # noqa: E402
from repro.workloads.trace import (StreamingTraceWriter,  # noqa: E402
                                   open_columnar)

if not os.path.abspath(repro.__file__).startswith(
        os.path.join(ROOT, "src", "repro") + os.sep):
    raise ImportError(f"repro imported from {repro.__file__}, not from "
                      f"this checkout's src/")

MB = units.MB
APP_NS = 70.0
SLAB_BYTES = 16 * MB

#: Hot-mix traces are drawn in chunks of this many accesses, chunk ``i``
#: from ``default_rng([seed, i])``; a trace whose length is a multiple
#: of it is an exact prefix of every longer trace with the same seed.
GEN_CHUNK = 1 << 16

#: Seeds whose input digests are pinned in ``digests.json``.
PINNED_SEEDS = (7, 11)
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")

Pairs = Iterable[Tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class HotMix:
    """Uniform reuse over ``hot_lines`` cache lines; each access is
    instead a cold line elsewhere in the region with probability
    ``cold_fraction``."""

    accesses: int
    hot_lines: int
    cold_fraction: float
    region_mb: int
    write_fraction: float

    @property
    def region_bytes(self) -> int:
        return self.region_mb * MB

    def chunks(self, seed: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Region-relative ``(addrs uint64, writes bool)`` chunks."""
        total_lines = self.region_bytes // units.CACHE_LINE
        for index, pos in enumerate(range(0, self.accesses, GEN_CHUNK)):
            n = min(GEN_CHUNK, self.accesses - pos)
            rng = np.random.default_rng([seed, index])
            lines = rng.integers(0, self.hot_lines, size=n, dtype=np.int64)
            cold = rng.random(n) < self.cold_fraction
            lines[cold] = rng.integers(self.hot_lines, total_lines,
                                       size=int(cold.sum()), dtype=np.int64)
            yield ((lines * units.CACHE_LINE).astype(np.uint64),
                   rng.random(n) < self.write_fraction)


# -- shared pieces ------------------------------------------------------------


def build_runtime(fmem_mb: int, vfmem_mb: int, region_bytes: int
                  ) -> Tuple[KonaRuntime, int]:
    """A fresh runtime with one mapped region; returns it and the
    region's base address."""
    cfg = KonaConfig(fmem_capacity=fmem_mb * MB,
                     vfmem_capacity=vfmem_mb * MB, slab_bytes=SLAB_BYTES)
    rt = KonaRuntime(cfg, app_ns_per_access=APP_NS)
    return rt, rt.mmap(region_bytes).start


def write_columnar(path: str, pairs: Pairs, region_bytes: int):
    """Stream ``pairs`` into a columnar trace and open it memory-mapped."""
    with StreamingTraceWriter(path, region_bytes, name="bench") as writer:
        for addrs, writes in pairs:
            writer.append(addr=addrs, write=writes)
    return open_columnar(path)


def input_digest(pairs: Pairs) -> str:
    """sha256 of a trace's addresses (as uint64) and write flags,
    independent of how the trace is chunked."""
    addr_hash, write_hash = hashlib.sha256(), hashlib.sha256()
    for addrs, writes in pairs:
        addr_hash.update(np.ascontiguousarray(addrs, dtype=np.uint64))
        write_hash.update(np.ascontiguousarray(writes, dtype=np.bool_))
    return hashlib.sha256(addr_hash.digest()
                          + write_hash.digest()).hexdigest()


def digest(fingerprint) -> str:
    """sha256 of a fingerprint's canonical JSON (floats round-trip
    exactly, so equal digests mean bit-identical results)."""
    text = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint_diff(oracle: Dict, batched: Dict) -> Optional[str]:
    """Which fingerprint sections differ, or None when equal."""
    if oracle == batched:
        return None
    keys = sorted(set(oracle) | set(batched))
    return "differs in " + ", ".join(
        k for k in keys if oracle.get(k) != batched.get(k))


def compare_engines(fingerprint_of: Callable[[str], Dict]) -> Optional[str]:
    """Run ``fingerprint_of`` with the scalar oracle, then the batched
    engine; returns :func:`fingerprint_diff` of the two."""
    return fingerprint_diff(fingerprint_of("scalar"),
                            fingerprint_of("batched"))


def runtime_fingerprint(rt: KonaRuntime, report, capture=None) -> Dict:
    """Everything observable after a replay: the report, every
    component's counters, the dirty bitmap and the time accounts."""
    bitmap = rt.agent.bitmap
    ev = rt.eviction.stats
    fp = {
        "accesses": report.accesses,
        "elapsed_ns": report.elapsed_ns,
        "background_ns": report.background_ns,
        "bytes_fetched": report.bytes_fetched,
        "bytes_written_back": report.bytes_written_back,
        "runtime": rt.counters.as_dict(),
        "cpu_cache": rt.cpu_cache.counters.as_dict(),
        "agent": rt.agent.counters.as_dict(),
        "directory": rt.agent.directory.counters.as_dict(),
        "fmem": rt.fmem.counters.as_dict(),
        "fabric": rt.fabric.counters.as_dict(),
        "bitmap": [[page, bitmap.page_mask(page)]
                   for page in sorted(bitmap.dirty_pages())],
        "bitmap_counters": bitmap.counters.as_dict(),
        "eviction": {"pages_evicted": ev.pages_evicted,
                     "clean_pages": ev.clean_pages,
                     "full_page_writes": ev.full_page_writes,
                     "lines_logged": ev.lines_logged,
                     "dirty_bytes": ev.dirty_bytes,
                     "wire_bytes": ev.wire_bytes,
                     "account": ev.account.as_dict()},
        "account": rt.account.as_dict(),
        "agent_account": rt.agent.account.as_dict(),
    }
    if capture is not None:
        fp["capture"] = capture.log.aggregate()
    return fp


def sim_metrics(*, accesses: int, elapsed_ns: float, hits: int,
                misses: int, external_invalidations: int, directory: Dict,
                fmem_hits: int, fmem_fills: int, remote_fetches: int,
                eviction: Dict, eviction_ns: float, capture_log,
                chunks: int) -> Dict[str, float]:
    """The simulated per-layer counts, named as in BENCHMARK.json."""
    hops = capture_log.hop_totals() if capture_log is not None else {}
    wire = eviction["wire_bytes"]
    return {
        "frontend.cpu_hit_ratio": hits / max(hits + misses, 1),
        "frontend.external_invalidations": external_invalidations,
        "directory.get_s": directory["get_s"],
        "directory.get_m": directory["get_m"],
        "directory.snoops": directory["snoops"],
        "fmem.hits": fmem_hits,
        "fmem.fills": fmem_fills,
        "fmem.hit_ratio": fmem_hits / max(fmem_hits + remote_fetches, 1),
        "remote.fetches": remote_fetches,
        "eviction.pages_evicted": eviction["pages_evicted"],
        "eviction.clean_pages": eviction["clean_pages"],
        "eviction.lines_logged": eviction["lines_logged"],
        "eviction.full_page_writes": eviction["full_page_writes"],
        "eviction.wire_bytes": wire,
        "eviction.wire_efficiency": eviction["dirty_bytes"] / wire
        if wire else 0.0,
        "eviction.sim_ns": eviction_ns,
        "telemetry.capture_records": capture_log.n
        if capture_log is not None else 0,
        **{f"telemetry.stall_ns.{hop}": hops.get(hop, 0.0)
           for hop in ("dir", "fab", "mem", "repl")},
        "trace_io.chunks": chunks,
        "sim.ns_per_access": elapsed_ns / accesses,
        "sim.memory_stall_share": 1.0 - APP_NS * accesses / elapsed_ns,
    }


def runtime_sim_metrics(rt: KonaRuntime, report, capture=None,
                        chunks: int = 0) -> Dict[str, float]:
    """:func:`sim_metrics` of one runtime (cumulative over its life)."""
    ev = rt.eviction.stats
    return sim_metrics(
        accesses=report.accesses, elapsed_ns=report.elapsed_ns,
        hits=rt.counters["cache_hits"], misses=rt.counters["cache_misses"],
        external_invalidations=rt.cpu_cache.counters[
            "external_invalidations"],
        directory=rt.agent.directory.counters,
        fmem_hits=rt.fmem.counters["hits"],
        fmem_fills=rt.fmem.counters["fills"],
        remote_fetches=rt.agent.counters["remote_fetches"],
        eviction=vars(ev), eviction_ns=ev.elapsed_ns,
        capture_log=capture.log if capture is not None else None,
        chunks=chunks)


# -- the workloads ------------------------------------------------------------


class Workload:
    """One benchmark workload.  ``setup`` is timed as set-up, ``replay``
    as the run; ``oracle`` checks the batched engine against the scalar
    oracle on a prefix and returns a mismatch description or None."""

    name = ""
    #: Per-layer metrics this workload cannot observe (reported as 0).
    not_exposed: Tuple[str, ...] = ()

    def setup(self, seed: int, quick: bool, workdir: str,
              traced: bool = False) -> SimpleNamespace:
        raise NotImplementedError

    def inputs(self, seed: int, quick: bool) -> Pairs:
        """The generated trace, as replay consumes it."""
        raise NotImplementedError

    def replayed_inputs(self, state: SimpleNamespace) -> Pairs:
        """The trace ``state`` replays (what ``setup`` generated)."""
        raise NotImplementedError

    def replay(self, state: SimpleNamespace):
        raise NotImplementedError

    def fingerprint(self, state: SimpleNamespace, result) -> Dict:
        raise NotImplementedError

    def sim_counts(self, state: SimpleNamespace, result) -> Dict[str, float]:
        raise NotImplementedError

    def oracle(self, state: SimpleNamespace, workdir: str) -> Optional[str]:
        raise NotImplementedError


class InMemoryReplay(Workload):
    """``run_trace`` over a trace held in memory."""

    fmem_mb = 0
    vfmem_mb = 256
    oracle_prefix = (0, 0)   # (full, quick)

    def trace(self, seed: int, quick: bool):
        """``(addrs int64, writes, region_bytes, warmup addrs or None)``."""
        raise NotImplementedError

    def inputs(self, seed: int, quick: bool) -> Pairs:
        addrs, writes, _, _ = self.trace(seed, quick)
        return [(addrs, writes)]

    def replayed_inputs(self, state):
        return [(state.addrs, state.writes)]

    def fresh_runtime(self, state, engine: str) -> Tuple[KonaRuntime, int]:
        rt, base = build_runtime(self.fmem_mb, self.vfmem_mb, state.region)
        if state.warm is not None:
            rt.run_trace(state.warm, np.zeros(state.warm.size, dtype=bool),
                         engine=engine, base=base)
        return rt, base

    def setup(self, seed, quick, workdir, traced=False):
        addrs, writes, region, warm = self.trace(seed, quick)
        state = SimpleNamespace(addrs=addrs, writes=writes, region=region,
                                warm=warm, quick=quick)
        state.rt, state.base = self.fresh_runtime(state, "batched")
        return state

    def replay(self, state):
        return state.rt.run_trace(state.addrs, state.writes, base=state.base)

    def fingerprint(self, state, result):
        return runtime_fingerprint(state.rt, result)

    def sim_counts(self, state, result):
        return runtime_sim_metrics(state.rt, result)

    def oracle(self, state, workdir):
        n = self.oracle_prefix[state.quick]

        def fingerprint_of(engine):
            rt, base = self.fresh_runtime(state, engine)
            report = rt.run_trace(state.addrs[:n], state.writes[:n],
                                  engine=engine, base=base)
            return runtime_fingerprint(rt, report)

        return compare_engines(fingerprint_of)


def reuse_mix(accesses: int) -> HotMix:
    """The hot-set mix of ``hot-reuse`` and ``shard-replay``."""
    return HotMix(accesses=accesses, hot_lines=16384, cold_fraction=0.002,
                  region_mb=192, write_fraction=0.3)


class HotReuse(InMemoryReplay):
    name = "hot-reuse"
    fmem_mb = 64
    oracle_prefix = (1 << 18, 1 << 16)

    def trace(self, seed, quick):
        mix = reuse_mix((1 << 19) if quick else 4_000_000)
        parts = list(mix.chunks(seed))
        addrs = np.concatenate([a for a, _ in parts]).astype(np.int64)
        writes = np.concatenate([w for _, w in parts])
        # An untimed sweep over the hot set fills it before the replay,
        # so the timed run measures steady state, not cold fills.
        warm = np.arange(mix.hot_lines, dtype=np.int64) * units.CACHE_LINE
        return addrs, writes, mix.region_bytes, warm


class MissEvict(InMemoryReplay):
    name = "miss-evict"
    fmem_mb = 8
    oracle_prefix = (1 << 16, 1 << 14)

    def trace(self, seed, quick):
        model = MODELS["page-rank"]()
        trace = model.generate(windows=1 if quick else 4, seed=seed)
        return (trace.addrs.astype(np.int64),
                np.ascontiguousarray(trace.writes), model.memory_bytes, None)


class WriteStream(Workload):
    """``run_trace_stream`` over a columnar trace written in set-up,
    with causal capture attached."""

    name = "write-stream"
    fmem_mb = 32
    vfmem_mb = 512
    chunk = 1 << 16
    oracle_prefix = (1 << 15, 1 << 13)

    def mix(self, quick: bool) -> HotMix:
        return HotMix(accesses=(1 << 16) if quick else 250_000,
                      hot_lines=4096, cold_fraction=0.6, region_mb=256,
                      write_fraction=0.5)

    def inputs(self, seed, quick):
        return self.mix(quick).chunks(seed)

    def replayed_inputs(self, state):
        return state.trace.iter_chunks(self.chunk)

    def fresh_runtime(self, state):
        rt, base = build_runtime(self.fmem_mb, self.vfmem_mb,
                                 state.trace.memory_bytes)
        return rt, base, rt.attach_causal_capture()

    def setup(self, seed, quick, workdir, traced=False):
        mix = self.mix(quick)
        state = SimpleNamespace(quick=quick, trace=write_columnar(
            os.path.join(workdir, self.name), mix.chunks(seed),
            mix.region_bytes))
        state.rt, state.base, state.capture = self.fresh_runtime(state)
        return state

    def replay(self, state):
        return state.rt.run_trace_stream(state.trace.iter_chunks(self.chunk),
                                         base=state.base)

    def fingerprint(self, state, result):
        return runtime_fingerprint(state.rt, result, state.capture)

    def sim_counts(self, state, result):
        return runtime_sim_metrics(
            state.rt, result, state.capture,
            chunks=math.ceil(state.trace.length / self.chunk))

    def oracle(self, state, workdir):
        n = self.oracle_prefix[state.quick]
        prefix = [(state.trace.addrs[:n], state.trace.writes[:n])]

        def fingerprint_of(engine):
            rt, base, capture = self.fresh_runtime(state)
            report = rt.run_trace_stream(iter(prefix), engine=engine,
                                         base=base)
            return runtime_fingerprint(rt, report, capture)

        return compare_engines(fingerprint_of)


class ShardReplay(Workload):
    """``run_sharded`` over a columnar trace, shards run one after the
    other in this process."""

    name = "shard-replay"
    shards = 2
    chunk = 1 << 18
    not_exposed = ("frontend.external_invalidations", "fmem.fills",
                   "eviction.sim_ns")
    oracle_prefix = (1 << 18, 1 << 16)

    def mix(self, quick: bool) -> HotMix:
        return reuse_mix((1 << 19) if quick else 4_000_000)

    def inputs(self, seed, quick):
        return self.mix(quick).chunks(seed)

    def replayed_inputs(self, state):
        return state.trace.iter_chunks(self.chunk)

    def setup(self, seed, quick, workdir, traced=False):
        mix = self.mix(quick)
        path = os.path.join(workdir, self.name)
        trace = write_columnar(path, mix.chunks(seed), mix.region_bytes)
        # Fleet snapshots carry the shards' component counters that
        # run_sharded does not return; only the untimed traced round
        # pays for them.
        specs = make_shards(path, self.shards, chunk_size=self.chunk,
                            fleet=traced)
        return SimpleNamespace(quick=quick, seed=seed, trace=trace,
                               specs=specs)

    def replay(self, state):
        return run_sharded(state.specs, processes=1)

    def fingerprint(self, state, result):
        return [{"shard": o.shard, "accesses": o.accesses,
                 "elapsed_ns": o.elapsed_ns,
                 "counters": o.counters.as_dict(),
                 "remote_fetches": o.remote_fetches,
                 "pages_evicted": o.pages_evicted}
                for o in result.outcomes]

    def sim_counts(self, state, result):
        totals = result.totals
        snap: Dict[str, float] = {}
        for outcome in result.outcomes:
            for name, value in outcome.snapshots[0].metrics.items():
                if isinstance(value, (int, float)):
                    snap[name] = snap.get(name, 0) + value
        return sim_metrics(
            accesses=result.accesses,
            elapsed_ns=sum(o.elapsed_ns for o in result.outcomes),
            hits=totals["cache_hits"], misses=totals["cache_misses"],
            external_invalidations=0,
            directory={k: snap.get(f"coherence.{k}", 0)
                       for k in ("get_s", "get_m", "snoops")},
            fmem_hits=snap.get("fetch.fmem_hits", 0), fmem_fills=0,
            remote_fetches=totals["remote_fetches"],
            eviction={k: snap.get(f"eviction.{k}", 0)
                      for k in ("pages_evicted", "clean_pages",
                                "lines_logged", "full_page_writes",
                                "wire_bytes", "dirty_bytes")},
            eviction_ns=0.0, capture_log=None,
            chunks=self.shards * math.ceil(state.trace.length / self.chunk))

    def oracle(self, state, workdir):
        mix = reuse_mix(self.oracle_prefix[state.quick])
        path = os.path.join(workdir, self.name + "-prefix")
        write_columnar(path, mix.chunks(state.seed), mix.region_bytes)

        def fingerprint_of(engine):
            result = run_sharded(make_shards(path, self.shards, engine=engine,
                                             chunk_size=self.chunk),
                                 processes=1)
            return {"shards": self.fingerprint(state, result)}

        return compare_engines(fingerprint_of)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (HotReuse(), MissEvict(), WriteStream(),
                        ShardReplay())}


def load_pinned() -> Dict[str, Dict[str, str]]:
    """Pinned full-size input digests: ``{seed: {workload: sha256}}``."""
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def pinned_digests() -> Dict[str, Dict[str, str]]:
    """Recompute the input digests of the pinned seeds."""
    return {str(seed): {name: input_digest(w.inputs(seed, quick=False))
                        for name, w in WORKLOADS.items()}
            for seed in PINNED_SEEDS}


if __name__ == "__main__":
    print(json.dumps(pinned_digests(), indent=2, sort_keys=True))
