"""Engine benchmarks: one interleaved timing harness, two suites.

``repro bench`` times each scalar oracle against its bulk engine on
the same generated traces and writes a machine-readable report:
``BENCH_kcachesim.json`` for the cache-hierarchy engines,
``BENCH_runtime.json`` for ``KonaRuntime.run_trace`` end to end.  Both
suites time through :func:`measure_variants`:

* every run replays the case's trace on freshly built state, after
  the case's untimed warm-up (the runtime suite's hot-mix cases sweep
  their hot set first); best-of-N wall time is reported per variant
  (N differs per variant: the scalar oracles are 4-12x slower, so
  they get fewer runs);
* the variants' runs are interleaved, not batched, so slow machine
  phases (CPU contention on shared runners) hit every variant rather
  than skewing the reported ratios;
* before timing is trusted, every run's fingerprint must equal the
  first run's — an engine that drifts from the oracle, or an
  instrument that perturbs the simulation, fails loudly, naming the
  fingerprint sections that differ;
* a variant that attaches causal capture must record every cache miss
  the runtime served.

The runtime suite's first (canonical) case also runs the capture-on
and fleet-on variants, so one report carries the engine speedups and
the observability overhead, each the median of its per-round ratios
to the plain replay.  The miss-heavy ``page-rank`` case runs them
too, where nearly every access records a fault; its overheads are
reported, not gated.  :func:`check_speedup` gates the rest: every
case against the floor derived for that exact case
(:data:`RUNTIME_FLOORS`), capture and fleet against
:data:`MAX_OVERHEAD`.  The kcachesim suite's canonical case is
``uniform-stress``: 1M single-line accesses uniform over a 64 MB region
with a 32 MB DRAM cache, where nearly every access traverses all four
levels and engine cost dominates.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import subprocess
import time
from dataclasses import asdict, dataclass, replace
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from ..cache.hierarchy import CacheHierarchy, DEFAULT_CPU_LEVELS, dram_cache_spec
from ..common import units
from ..common.errors import SimulationError
from ..tools.kcachesim import _round_capacity
from ..workloads.amat import AMAT_SPECS, generate_exact_accesses

#: Default report filename (kcachesim suite).
BENCH_FILENAME = "BENCH_kcachesim.json"

#: Default report filename (end-to-end runtime suite).
RUNTIME_BENCH_FILENAME = "BENCH_runtime.json"

#: The observability tax ceiling: the capture-on and fleet-on replays
#: of the canonical runtime case may take at most this factor of its
#: plain batched replay.
MAX_OVERHEAD = 1.15


def _git_sha() -> Optional[str]:
    """The repo's HEAD commit, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def host_metadata() -> Dict[str, object]:
    """Environment fingerprint recorded alongside benchmark numbers.

    Timings are only comparable between runs on the same interpreter,
    numpy build and core count; the git sha pins the code under test.
    """
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "git_sha": _git_sha()}


# -- the harness ---------------------------------------------------------------


class Run(NamedTuple):
    """One timed replay: wall seconds, the state fingerprint, extras.

    :func:`measure_variants` fills ``rounds`` on the run it returns
    with the seconds of every run of that variant, in round order.
    """

    seconds: float
    fingerprint: Dict[str, Any]
    extra: Dict[str, Any]
    rounds: Tuple[float, ...] = ()


@dataclass(frozen=True)
class Variant:
    """One way to replay a case.

    ``engine`` names the replay engine.  ``setup`` instruments the
    freshly built runtime before its warm-up and returns the causal
    capture it attached (None for a plain run); the harness checks
    that the capture recorded every cache miss.  A ``fleet`` variant
    also snapshots the runtime and its rack into a fleet after the
    timed replay and checks the fleet's fault log instead; the
    snapshot is timed on its own, since it scales with the component
    count, not the access count.
    """

    name: str
    engine: str = "batched"
    setup: Optional[Callable[[Any], Any]] = None
    fleet: bool = False


def _attach_capture(rt):
    return rt.attach_causal_capture()


def _attach_fleet(rt):
    rt.obs.component = "runtime:bench"
    rt.obs.tenant = "bench"
    return rt.attach_causal_capture()


SCALAR = Variant("scalar", engine="scalar")
VECTORIZED = Variant("vectorized", engine="vectorized")
BATCHED = Variant("batched")
CAPTURE = Variant("capture", setup=_attach_capture)
FLEET = Variant("fleet", setup=_attach_fleet, fleet=True)


def _fingerprint_diff(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """The sections in which two fingerprints differ."""
    return [key for key in {**a, **b} if a.get(key) != b.get(key)]


def measure_variants(case, variants: Sequence[Variant],
                     runs: Dict[str, int]) -> Dict[str, Run]:
    """Time every variant of one case in one interleaved best-of-N
    schedule; returns each variant's fastest run, its ``rounds`` the
    seconds of all that variant's runs in round order.

    ``case`` is a :class:`BenchCase` or a :class:`RuntimeBenchCase`;
    ``runs`` maps each variant's name to its repeat count.  Each round
    runs every variant still owed a run, so host-load phases hit all
    of them.  A run is ``case.replay(case.trace(), variant)``: fresh
    state (after a garbage collection), the case's untimed warm-up,
    one timed replay.  Every run's fingerprint must equal the first
    run's, or the benchmark raises :class:`SimulationError` naming the
    sections that differ.
    """
    trace = case.trace()
    best: Dict[str, Run] = {}
    rounds: Dict[str, List[float]] = {v.name: [] for v in variants}
    first: Optional[Run] = None
    for i in range(max(runs[v.name] for v in variants)):
        for variant in variants:
            if i >= runs[variant.name]:
                continue
            # Free the previous run's state now: a dropped runtime leaves
            # ~60k objects in reference cycles, and collecting them
            # inside a later timed replay costs as much as a quick
            # hot-mix replay itself.
            gc.collect()
            run = case.replay(trace, variant)
            if first is None:
                first, first_name = run, variant.name
            else:
                diff = _fingerprint_diff(first.fingerprint, run.fingerprint)
                if diff:
                    raise SimulationError(
                        f"{variant.name} diverged from {first_name} on "
                        f"{case.workload}: fingerprint sections {diff} "
                        f"differ")
            rounds[variant.name].append(run.seconds)
            if variant.name not in best \
                    or run.seconds < best[variant.name].seconds:
                best[variant.name] = run
    return {name: run._replace(rounds=tuple(rounds[name]))
            for name, run in best.items()}


def _timing(seconds: float, runs: int, n: int) -> Dict[str, float]:
    return {"seconds": seconds, "runs": runs,
            "maccesses_per_s": n / seconds / 1e6}


# -- the kcachesim suite (scalar vs vectorized CacheHierarchy) -----------------


@dataclass(frozen=True)
class BenchCase:
    """One benchmark configuration."""

    workload: str
    num_accesses: int
    cache_fraction: float = 0.5
    block_size: int = 4096
    ways: int = 4
    seed: int = 1234

    def trace(self):
        """The generated ``(addrs, writes)`` and the workload's data size."""
        spec = AMAT_SPECS[self.workload]()
        addrs, writes = generate_exact_accesses(spec, self.num_accesses,
                                                self.seed)
        return addrs, writes, spec.data_bytes

    def replay(self, trace, variant: Variant) -> Run:
        """Simulate the trace on a fresh hierarchy of the variant's engine.

        The fingerprint is the simulation result plus every level's
        hit/miss/eviction/writeback counters.
        """
        addrs, writes, data_bytes = trace
        h = _build_hierarchy(self, data_bytes, variant.engine)
        t0 = time.perf_counter()
        result = h.simulate(addrs, writes)
        seconds = time.perf_counter() - t0
        return Run(seconds, {"result": result,
                             "level_counters": _level_counters(h)}, {})


#: The acceptance case: miss-heavy, all four levels exercised.
CANONICAL_CASE = BenchCase("uniform-stress", 1_000_000, 0.5)

#: Secondary coverage: spatial locality and skewed reuse.
EXTRA_CASES = (
    BenchCase("redis-rand", 300_000, 0.25),
    BenchCase("graph-coloring", 300_000, 0.25),
)

QUICK_CASES = (BenchCase("uniform-stress", 150_000, 0.5),)


def _build_hierarchy(case: BenchCase, data_bytes: int,
                     engine: str) -> CacheHierarchy:
    capacity = int(data_bytes * case.cache_fraction)
    dram = None
    if capacity >= case.block_size * case.ways:
        dram = dram_cache_spec(
            _round_capacity(capacity, case.block_size, case.ways),
            case.block_size, case.ways)
    return CacheHierarchy(DEFAULT_CPU_LEVELS, dram_cache=dram, engine=engine)


def _level_counters(h: CacheHierarchy) -> Dict[str, Dict[str, int]]:
    levels = list(h.levels) + ([h.dram_cache] if h.dram_cache else [])
    return {lvl.name: {"hits": lvl.stats.hits,
                       "misses": lvl.stats.misses,
                       "evictions": lvl.stats.evictions,
                       "dirty_writebacks": lvl.stats.dirty_writebacks}
            for lvl in levels}


def run_case(case: BenchCase, scalar_runs: int = 2,
             vectorized_runs: int = 3) -> Dict[str, object]:
    """Time both engines on one case and verify counter equality."""
    runs = {"scalar": max(scalar_runs, 1),
            "vectorized": max(vectorized_runs, 1)}
    best = measure_variants(case, (SCALAR, VECTORIZED), runs)
    scalar, fast = best["scalar"], best["vectorized"]
    n = case.num_accesses
    return {
        "workload": case.workload,
        "num_accesses": n,
        "cache_fraction": case.cache_fraction,
        "block_size": case.block_size,
        "seed": case.seed,
        "scalar": _timing(scalar.seconds, runs["scalar"], n),
        "vectorized": _timing(fast.seconds, runs["vectorized"], n),
        "speedup": scalar.seconds / fast.seconds,
        "counters_match": True,
        "remote_fetches": scalar.fingerprint["result"].remote_fetches,
        "level_counters": scalar.fingerprint["level_counters"],
    }


def run_bench(quick: bool = False,
              cases: Optional[Sequence[BenchCase]] = None) -> Dict[str, object]:
    """Run the benchmark suite; returns the report payload."""
    if cases is None:
        cases = QUICK_CASES if quick else (CANONICAL_CASE, *EXTRA_CASES)
    scalar_runs = 1 if quick else 2
    vectorized_runs = 2 if quick else 4
    case_results = [run_case(c, scalar_runs, vectorized_runs) for c in cases]
    canonical = next(
        (c for c in case_results if c["workload"] == "uniform-stress"),
        case_results[0])
    return {
        "benchmark": "kcachesim-engine-bench",
        "version": 1,
        "quick": quick,
        "methodology": ("best-of-N wall time per engine on identical "
                        "traces; per-level counters verified equal"),
        "host": host_metadata(),
        "created_unix": int(time.time()),
        "cases": case_results,
        "canonical_workload": canonical["workload"],
        "canonical_speedup": canonical["speedup"],
    }


# -- the end-to-end runtime suite (scalar vs batched run_trace) ----------------


@dataclass(frozen=True)
class RuntimeBenchCase:
    """One end-to-end benchmark configuration (full Kona stack).

    ``workload`` is either a :data:`~repro.workloads.WORKLOADS` model
    name or the synthetic ``"hot-mix"``: uniform reuse over a hot set
    of ``hot_lines`` cache lines with a ``cold_fraction`` chance per
    access of touching a cold line anywhere in the region — the
    cache-hit/data-access mix :mod:`repro.workloads.amat` derives from
    the paper's AMAT model (hundreds of hot accesses per data access).
    Hot-mix runs prefill the hot set with an untimed warmup sweep so
    the timed section measures steady state, not cold fills.
    """

    workload: str
    num_accesses: int
    windows: int = 4
    seed: int = 7
    fmem_mb: int = 64
    vfmem_mb: int = 256
    app_ns: float = 70.0
    hot_lines: int = 16384            # 1 MiB hot working set
    cold_fraction: float = 0.002      # ~1 data access per 500 hot hits
    region_mb: int = 192
    write_fraction: float = 0.3
    #: Display name in reports, for two cases that share a workload
    #: model at different scales.  Defaults to ``workload``.  Floors
    #: key on the case without its label.
    label: Optional[str] = None

    @property
    def case_label(self) -> str:
        """Display/report key: the label when set, else the workload."""
        return self.label or self.workload

    def trace(self):
        """Build the zero-based ``(warm_addrs, warm_writes, addrs,
        writes, mem_bytes)``; replays rebase them onto the mapped
        region.  The warm-up is ``None`` for workload-model cases
        (their interest *is* the cold fill/eviction path).
        """
        if self.workload == "hot-mix":
            region_bytes = self.region_mb * units.MB
            n = self.num_accesses
            rng = np.random.default_rng(self.seed)
            lines = rng.integers(0, self.hot_lines, size=n, dtype=np.int64)
            cold = rng.random(n) < self.cold_fraction
            lines[cold] = rng.integers(self.hot_lines,
                                       region_bytes // units.CACHE_LINE,
                                       size=int(cold.sum()), dtype=np.int64)
            addrs = lines * units.CACHE_LINE
            writes = rng.random(n) < self.write_fraction
            warm_addrs = np.arange(self.hot_lines, dtype=np.int64) \
                * units.CACHE_LINE
            warm_writes = np.zeros(self.hot_lines, dtype=bool)
            return warm_addrs, warm_writes, addrs, writes, region_bytes
        from ..workloads import WORKLOADS
        model = WORKLOADS[self.workload]()
        trace = model.generate(windows=self.windows, seed=self.seed)
        n = min(self.num_accesses, len(trace))
        addrs = trace.addrs[:n].astype(np.int64)
        return None, None, addrs, trace.writes[:n], model.memory_bytes

    def replay(self, trace, variant: Variant) -> Run:
        """One run: fresh runtime, untimed warm-up, timed ``run_trace``.

        The extras hold the warm-up length and the counter changes
        across the timed replay (``timed``); an instrumented variant
        adds its fault log and, for a fleet, the snapshot's own time
        and component count.
        """
        warm_addrs, warm_writes, addrs0, writes, mem_bytes = trace
        rt = _build_runtime(self)
        cap = variant.setup(rt) if variant.setup is not None else None
        base = np.int64(rt.mmap(mem_bytes).start)
        if warm_addrs is not None:
            rt.run_trace(warm_addrs + base, warm_writes,
                         engine=variant.engine)
        before = _replay_counters(rt)
        addrs = addrs0 + base
        t0 = time.perf_counter()
        report = rt.run_trace(addrs, writes, engine=variant.engine)
        seconds = time.perf_counter() - t0
        fp = runtime_fingerprint(rt, report)
        extra: Dict[str, Any] = {
            "warmup_accesses": 0 if warm_addrs is None else warm_addrs.size,
            "timed": {k: v - before[k]
                      for k, v in _replay_counters(rt).items()},
        }
        if cap is None:
            return Run(seconds, fp, extra)
        log = cap.log
        if variant.fleet:
            from ..obs.fleet import FleetRecorder
            t0 = time.perf_counter()
            fleet = FleetRecorder(name="bench")
            for member in rt.fleet_members(tenant=rt.obs.tenant):
                fleet.add(member)
            log = fleet.fault_log()
            extra["snapshot_seconds"] = time.perf_counter() - t0
            extra["fleet_components"] = len(fleet.members)
        records = 0 if log is None else log.n
        misses = fp["runtime"].get("cache_misses", 0)
        if records != misses:
            raise SimulationError(
                f"{variant.name} coverage hole on {self.case_label}: "
                f"{records} fault records vs {misses} cache misses")
        extra["log"] = log
        return Run(seconds, fp, extra)


#: The acceptance case: hot-set reuse, so the CPU coherent cache —
#: the layer the batched engine vectorizes — carries most accesses,
#: with enough cold misses to keep the whole FMem stack live.
RUNTIME_CANONICAL_CASE = RuntimeBenchCase("hot-mix", 1_000_000)

#: Secondary coverage: real workload models at miss-heavy ratios (the
#: batched engine's fused miss lane) with an FMem small enough to
#: drive the eviction/writeback machinery, plus a 4M-access hot-mix
#: scale point (4x the canonical) pinning throughput at trace lengths
#: where per-run setup cost is fully amortized.
RUNTIME_EXTRA_CASES = (
    RuntimeBenchCase("page-rank", 150_000, fmem_mb=8),
    RuntimeBenchCase("voltdb-tpcc", 150_000, fmem_mb=8),
    RuntimeBenchCase("hot-mix", 4_000_000, label="hot-mix-4m"),
)

#: Quick (CI) cases mirror the full suite's workload mix at small trace
#: lengths.  The ``page-rank-miss`` entry is the full suite's
#: miss-heavy ``page-rank`` case (150k accesses, seed 7, 8 MB FMem):
#: ~99.6% of its accesses miss the front cache, so it exercises the
#: fused miss lane and the packed directory end to end and pins its
#: speedup over the scalar oracle in every CI run.
RUNTIME_QUICK_CASES = (
    RuntimeBenchCase("hot-mix", 150_000),
    RuntimeBenchCase("page-rank", 60_000, fmem_mb=8),
    RuntimeBenchCase("voltdb-tpcc", 60_000, fmem_mb=8),
    RuntimeBenchCase("page-rank", 150_000, fmem_mb=8,
                     label="page-rank-miss"),
)

#: Repeats per variant, both suite sizes.  Host speed on shared
#: machines swings by up to half between runs of the same replay, so
#: the batched engine gets enough tries for its best run to land in a
#: quiet phase.
RUNTIME_RUNS = {"scalar": 3, "batched": 8}

#: Repeats on the canonical case, which also runs ``capture`` and
#: ``fleet``: its replays are short (~0.03 s quick, ~0.1 s full).
#: Best-of-8 read fleet overheads up to 1.14x against the 1.15x
#: budget, while twenty interleaved rounds put the three variants'
#: best runs within 1-2% of one another.
CANONICAL_RUNS = {"scalar": 3, "batched": 20, "capture": 20, "fleet": 20}

#: The miss-heavy case (``page-rank-miss`` in the quick suite) also runs
#: ``capture`` and ``fleet``.  Nearly all of its 150,000 accesses miss,
#: so nearly every one records a fault, where the canonical replay
#: records a few hundred.  Its overheads are reported under
#: ``miss_heavy`` and not gated: they do not yet hold
#: :data:`MAX_OVERHEAD` with margin.
MISS_HEAVY_CASE = RuntimeBenchCase("page-rank", 150_000, fmem_mb=8)
MISS_HEAVY_RUNS = {**RUNTIME_RUNS, "capture": 8, "fleet": 8}

#: Per-case speedup floors of the runtime gate, keyed by the exact case
#: (same trace, same size, same FMem; the label is display only, so
#: ``page-rank-miss`` and the full suite's ``page-rank`` share one).
#: Each floor is the lowest speedup in five runs of its suite (ten for
#: the shared case) on a 2-vCPU x86_64 VM, CPython 3.11.7, numpy 2.4.6,
#: less a 20% margin; EXPERIMENTS.md lists the runs.  With the fused
#: miss lane made 1.5x slower, the quick suite read 2.4-3.4x on
#: ``page-rank-miss`` and failed this gate in five runs of five.
RUNTIME_FLOORS: Dict[RuntimeBenchCase, float] = {
    RuntimeBenchCase("hot-mix", 150_000): 8.84,
    RuntimeBenchCase("page-rank", 60_000, fmem_mb=8): 3.04,
    RuntimeBenchCase("voltdb-tpcc", 60_000, fmem_mb=8): 3.21,
    RuntimeBenchCase("page-rank", 150_000, fmem_mb=8): 3.37,
    RuntimeBenchCase("hot-mix", 1_000_000): 21.29,
    RuntimeBenchCase("voltdb-tpcc", 150_000, fmem_mb=8): 3.09,
    RuntimeBenchCase("hot-mix", 4_000_000): 18.23,
}

#: The streaming scale point: accesses replayed from a memory-mapped
#: columnar trace in fixed chunks (a multiple of the 256-access
#: maintenance cadence, so the stream is bit-identical to a monolithic
#: run — which is verified, not assumed).
STREAMING_CASE_ACCESSES = 2_000_000
STREAMING_CHUNK = 1 << 18


def _build_runtime(case: RuntimeBenchCase):
    from ..kona.config import KonaConfig
    from ..kona.runtime import KonaRuntime
    cfg = KonaConfig(fmem_capacity=case.fmem_mb * units.MB,
                     vfmem_capacity=case.vfmem_mb * units.MB,
                     slab_bytes=16 * units.MB)
    return KonaRuntime(cfg, app_ns_per_access=case.app_ns)


def _replay_counters(rt) -> Dict[str, int]:
    """The counters a case reports, read around its timed replay."""
    return {"cache_hits": rt.counters["cache_hits"],
            "cache_misses": rt.counters["cache_misses"],
            "remote_fetches": rt.agent.counters["remote_fetches"],
            "pages_evicted": rt.eviction.stats.pages_evicted}


def runtime_fingerprint(rt, report) -> Dict[str, object]:
    """Everything observable after a ``run_trace``: the report fields,
    every layer's counters, the dirty bitmap and the time accounting.

    Two engines must produce *equal* fingerprints — the differential
    tests and this suite's counter verification both compare these.
    """
    bitmap = rt.agent.bitmap
    ev = rt.eviction.stats
    return {
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
        "bitmap": {page: bitmap.page_mask(page)
                   for page in sorted(bitmap.dirty_pages())},
        "bitmap_counters": bitmap.counters.as_dict(),
        "eviction": {"pages_evicted": ev.pages_evicted,
                     "clean_pages": ev.clean_pages,
                     "full_page_writes": ev.full_page_writes,
                     "lines_logged": ev.lines_logged,
                     "dirty_bytes": ev.dirty_bytes,
                     "wire_bytes": ev.wire_bytes,
                     "elapsed_ns": ev.elapsed_ns},
        "account": rt.account.as_dict(),
    }


def _engine_result(case: RuntimeBenchCase, best: Dict[str, Run],
                   runs: Dict[str, int]) -> Dict[str, object]:
    """One runtime case's report entry: speedup and the timed counters."""
    scalar, batched = best["scalar"], best["batched"]
    n = scalar.fingerprint["accesses"]
    timed = scalar.extra["timed"]
    hits, misses = timed["cache_hits"], timed["cache_misses"]
    return {
        "workload": case.case_label,
        "case": {k: v for k, v in asdict(case).items() if k != "label"},
        "num_accesses": n,
        "warmup_accesses": scalar.extra["warmup_accesses"],
        "scalar": _timing(scalar.seconds, runs["scalar"], n),
        "batched": _timing(batched.seconds, runs["batched"], n),
        "speedup": scalar.seconds / batched.seconds,
        "counters_match": True,
        "cpu_hit_ratio": round(hits / (hits + misses), 4)
        if hits + misses else 0.0,
        "cache_misses": misses,
        "remote_fetches": timed["remote_fetches"],
        "pages_evicted": timed["pages_evicted"],
        "elapsed_ns": scalar.fingerprint["elapsed_ns"],
    }


def _overhead_result(case: RuntimeBenchCase, best: Dict[str, Run],
                     name: str, runs: Dict[str, int]) -> Dict[str, object]:
    """The ``capture`` or ``fleet`` section: its replay against the
    plain batched replay of the same case, and its fault log.

    ``overhead`` is the median, over the rounds both ran in, of the
    variant's time over the plain replay's time in the same round: a
    host-load phase slows both runs of a round, so it cancels in their
    ratio, where a best-of-N ratio lets a lucky plain run and an
    unlucky variant run stand for the whole schedule.
    ``fault_records`` counts every miss the runtime served, the
    warm-up's included, since the instrument is attached before it.
    """
    run, plain = best[name], best["batched"]
    section = {
        "workload": case.case_label,
        "num_accesses": run.fingerprint["accesses"],
        "runs": runs[name],
        "off_seconds": plain.seconds,
        "on_seconds": run.seconds,
        "overhead": statistics.median(
            on / off for on, off in zip(run.rounds, plain.rounds)),
        "max_overhead": MAX_OVERHEAD,
        "fault_records": run.extra["log"].n,
        "dominant_hop": run.extra["log"].dominant_hop(),
    }
    for key in ("snapshot_seconds", "fleet_components"):
        if key in run.extra:
            section[key] = run.extra[key]
    return section


def run_streaming_case(num_accesses: int = STREAMING_CASE_ACCESSES,
                       chunk: int = STREAMING_CHUNK,
                       workdir: Optional[str] = None) -> Dict[str, object]:
    """The memory-mapped streaming scale point.

    Generates a hot-mix trace straight to columnar storage, replays it
    through ``run_trace_stream`` in fixed chunks, and verifies the
    streamed fingerprint equals a monolithic ``run_trace`` over the
    same accesses on a fresh runtime — the bit-exactness half of the
    streaming contract, measured rather than assumed.
    """
    import tempfile
    from ..workloads.trace import generate_hot_mix_stream

    case = RuntimeBenchCase("hot-mix", num_accesses)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = os.path.join(tmp, "hot-mix.trace")
        columnar = generate_hot_mix_stream(
            path, num_accesses, hot_lines=case.hot_lines,
            cold_fraction=case.cold_fraction,
            region_bytes=case.region_mb * units.MB,
            write_fraction=case.write_fraction, seed=case.seed,
            chunk_size=chunk)

        rt = _build_runtime(case)
        region = rt.mmap(columnar.memory_bytes)
        t0 = time.perf_counter()
        report = rt.run_trace_stream(columnar.iter_chunks(chunk),
                                     base=region.start)
        streamed_s = time.perf_counter() - t0
        streamed_fp = runtime_fingerprint(rt, report)

        rt2 = _build_runtime(case)
        region2 = rt2.mmap(columnar.memory_bytes)
        addrs = columnar.addrs[:].astype(np.int64) + np.int64(region2.start)
        writes = np.asarray(columnar.writes)
        t0 = time.perf_counter()
        report2 = rt2.run_trace(addrs, writes)
        monolithic_s = time.perf_counter() - t0
        diff = _fingerprint_diff(streamed_fp,
                                 runtime_fingerprint(rt2, report2))
        if diff:
            raise SimulationError(
                f"streamed replay diverged from monolithic run_trace: "
                f"fingerprint sections {diff} differ")
    return {
        "workload": "hot-mix-stream",
        "num_accesses": num_accesses,
        "chunk": chunk,
        "streamed_seconds": streamed_s,
        "monolithic_seconds": monolithic_s,
        "maccesses_per_s": num_accesses / streamed_s / 1e6,
        "fingerprint_matches_monolithic": True,
    }


def run_runtime_bench(quick: bool = False,
                      cases: Optional[Sequence[RuntimeBenchCase]] = None,
                      streaming: Optional[bool] = None
                      ) -> Dict[str, object]:
    """Run the end-to-end runtime suite; returns the report payload.

    The first case is the canonical one: it also runs the capture-on
    and fleet-on variants, reported as the ``capture`` and ``fleet``
    sections.  ``streaming`` adds the columnar streaming scale point
    (defaults to on for full runs, off for ``--quick``).
    """
    if cases is None:
        cases = (RUNTIME_QUICK_CASES if quick
                 else (RUNTIME_CANONICAL_CASE, *RUNTIME_EXTRA_CASES))
    if streaming is None:
        streaming = not quick
    results = []
    sections: Dict[str, Dict[str, object]] = {}
    miss_heavy: Dict[str, Dict[str, object]] = {}
    for case in cases:
        if not results:
            runs = CANONICAL_RUNS
            best = measure_variants(
                case, (SCALAR, BATCHED, CAPTURE, FLEET), runs)
            sections = {name: _overhead_result(case, best, name, runs)
                        for name in ("capture", "fleet")}
        elif replace(case, label=None) == MISS_HEAVY_CASE:
            runs = MISS_HEAVY_RUNS
            best = measure_variants(
                case, (SCALAR, BATCHED, CAPTURE, FLEET), runs)
            miss_heavy = {name: _overhead_result(case, best, name, runs)
                          for name in ("capture", "fleet")}
        else:
            runs = RUNTIME_RUNS
            best = measure_variants(case, (SCALAR, BATCHED), runs)
        results.append(_engine_result(case, best, runs))
    payload = {
        "benchmark": "kona-runtime-engine-bench",
        "version": 2,
        "quick": quick,
        "methodology": ("best-of-N wall time per variant (scalar and "
                        "batched engines; capture-on and fleet-on on "
                        "the canonical and miss-heavy cases, whose "
                        "overhead is the median of per-round ratios to "
                        "the plain replay), runs interleaved on one "
                        "trace, fresh runtime per run after an untimed "
                        "hot-set warm-up where the case defines one; "
                        "every run's cross-layer fingerprint verified "
                        "equal and every miss captured; counters are "
                        "deltas across the timed replay"),
        "host": host_metadata(),
        "created_unix": int(time.time()),
        "cases": results,
        "canonical_workload": results[0]["workload"],
        "canonical_speedup": results[0]["speedup"],
        **sections,
    }
    if miss_heavy:
        payload["miss_heavy"] = miss_heavy
    if streaming:
        payload["streaming"] = run_streaming_case()
    return payload


def write_bench(payload: Dict[str, object], path: str = BENCH_FILENAME) -> str:
    """Write the report JSON; returns the path."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def check_speedup(payload: Dict[str, object], min_speedup: float,
                  floors: Optional[Dict[RuntimeBenchCase, float]] = None,
                  ) -> List[str]:
    """Regression gate over a bench payload; returns failure messages
    (empty when the gate passes).

    The canonical speedup must reach ``min_speedup``.  With ``floors``
    (the runtime suite passes :data:`RUNTIME_FLOORS`), every case must
    have a floor of its own — derived for that exact case, same trace
    and same size — and reach it; without, every case must at least
    reach parity.  The ``capture`` and ``fleet`` sections must stay
    within :data:`MAX_OVERHEAD`.
    """
    failures = []
    got = payload["canonical_speedup"]
    if got < min_speedup:
        failures.append(
            f"canonical speedup {got:.2f}x below required {min_speedup}x")
    for case in payload.get("cases", ()):
        name = f"{case['workload']} ({case['num_accesses']:,} accesses)"
        floor = 1.0
        if floors is not None:
            floor = floors.get(RuntimeBenchCase(**case["case"]))
            if floor is None:
                failures.append(f"{name} has no floor for this exact case")
                continue
        if case["speedup"] < floor:
            failures.append(f"{name} speedup {case['speedup']:.2f}x below "
                            f"its floor {floor}x")
    for name in ("capture", "fleet"):
        section = payload.get(name)
        if section is not None and section["overhead"] > MAX_OVERHEAD:
            failures.append(
                f"{name} overhead {section['overhead']:.3f}x exceeds the "
                f"{MAX_OVERHEAD:.2f}x budget")
    return failures
