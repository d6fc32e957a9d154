"""Engine benchmark: scalar oracle vs vectorized kernel.

``repro bench`` times both trace-simulation engines on the same
generated traces, verifies they produce identical counters, and writes
a machine-readable report (``BENCH_kcachesim.json``) for regression
tracking.  Methodology:

* every engine runs the identical (addrs, writes) trace on a freshly
  built hierarchy; best-of-N wall time is reported (N differs per
  engine: the scalar oracle is ~10X slower, so it gets fewer runs);
* the engines' runs are interleaved, not batched, so slow machine
  phases (CPU contention on shared runners) hit both engines rather
  than skewing the reported ratio;
* before timing is trusted, the two engines' per-level hit/miss/
  eviction/writeback counters and remote fetch/writeback counters are
  compared — a benchmark that drifts from the oracle fails loudly;
* the canonical case is ``uniform-stress``: 1M single-line accesses
  uniform over a 64 MB region with a 32 MB DRAM cache, where nearly
  every access traverses all four levels and engine cost dominates.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

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

#: Default append-only log of every bench run (one JSON line each).
HISTORY_FILENAME = os.path.join("benchmarks", "out", "history.jsonl")


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


@dataclass(frozen=True)
class BenchCase:
    """One benchmark configuration."""

    workload: str
    num_accesses: int
    cache_fraction: float = 0.5
    block_size: int = 4096
    ways: int = 4
    seed: int = 1234


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
    spec = AMAT_SPECS[case.workload]()
    addrs, writes = generate_exact_accesses(spec, case.num_accesses, case.seed)
    runs = {"scalar": max(scalar_runs, 1),
            "vectorized": max(vectorized_runs, 1)}
    timings: Dict[str, float] = {e: float("inf") for e in runs}
    finals: Dict[str, CacheHierarchy] = {}
    results = {}
    # Interleave the engines' runs so machine-load phases affect both
    # timings rather than biasing their ratio.
    schedule = [engine
                for i in range(max(runs.values()))
                for engine in ("scalar", "vectorized") if i < runs[engine]]
    for engine in schedule:
        h = _build_hierarchy(case, spec.data_bytes, engine)
        t0 = time.perf_counter()
        result = h.simulate(addrs, writes)
        timings[engine] = min(timings[engine], time.perf_counter() - t0)
        finals[engine] = h
        results[engine] = result

    if results["scalar"] != results["vectorized"]:
        raise SimulationError(
            f"engine mismatch on {case.workload}: "
            f"{results['scalar']} != {results['vectorized']}")
    scalar_counters = _level_counters(finals["scalar"])
    if scalar_counters != _level_counters(finals["vectorized"]):
        raise SimulationError(
            f"per-level counter mismatch on {case.workload}")

    n = case.num_accesses
    return {
        "workload": case.workload,
        "num_accesses": n,
        "cache_fraction": case.cache_fraction,
        "block_size": case.block_size,
        "seed": case.seed,
        "scalar": {"seconds": timings["scalar"], "runs": scalar_runs,
                   "maccesses_per_s": n / timings["scalar"] / 1e6},
        "vectorized": {"seconds": timings["vectorized"],
                       "runs": vectorized_runs,
                       "maccesses_per_s": n / timings["vectorized"] / 1e6},
        "speedup": timings["scalar"] / timings["vectorized"],
        "counters_match": True,
        "remote_fetches": results["scalar"].remote_fetches,
        "level_counters": scalar_counters,
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
    #: Report/display key; lets two cases share a workload model at
    #: different scales without colliding in history and perf-gate
    #: joins (which key cases by this name).  Defaults to ``workload``.
    label: Optional[str] = None

    @property
    def case_label(self) -> str:
        """Display/report key: the label when set, else the workload."""
        return self.label or self.workload


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
#: lengths so the perf gate's history records cover every committed
#: baseline case except the 4M scale point.  The ``page-rank-miss``
#: entry is the miss-heavy canonical case at full size (150k accesses,
#: seed 7, 8 MB FMem): ~99.6% of its accesses miss the front cache, so
#: it exercises the fused miss lane and the packed directory end to
#: end and pins its speedup over the scalar oracle in every CI run.
RUNTIME_QUICK_CASES = (
    RuntimeBenchCase("hot-mix", 150_000),
    RuntimeBenchCase("page-rank", 60_000, fmem_mb=8),
    RuntimeBenchCase("voltdb-tpcc", 60_000, fmem_mb=8),
    RuntimeBenchCase("page-rank", 150_000, fmem_mb=8,
                     label="page-rank-miss"),
)

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


def _case_trace(case: RuntimeBenchCase):
    """Build the (warmup, timed) traces for a case, zero-based.

    Returns ``(warm_addrs, warm_writes, addrs, writes, mem_bytes, n)``;
    the caller rebases addresses onto the mapped region.  Warmup is
    ``None`` for workload-model cases (their interest *is* the cold
    fill/eviction path).
    """
    if case.workload == "hot-mix":
        region_bytes = case.region_mb * units.MB
        n = case.num_accesses
        rng = np.random.default_rng(case.seed)
        lines = rng.integers(0, case.hot_lines, size=n, dtype=np.int64)
        cold = rng.random(n) < case.cold_fraction
        lines[cold] = rng.integers(case.hot_lines,
                                   region_bytes // units.CACHE_LINE,
                                   size=int(cold.sum()), dtype=np.int64)
        addrs = lines * units.CACHE_LINE
        writes = rng.random(n) < case.write_fraction
        warm_addrs = np.arange(case.hot_lines, dtype=np.int64) \
            * units.CACHE_LINE
        warm_writes = np.zeros(case.hot_lines, dtype=bool)
        return warm_addrs, warm_writes, addrs, writes, region_bytes, n
    from ..workloads import WORKLOADS
    model = WORKLOADS[case.workload]()
    trace = model.generate(windows=case.windows, seed=case.seed)
    n = min(case.num_accesses, len(trace))
    addrs = trace.addrs[:n].astype(np.int64)
    return None, None, addrs, trace.writes[:n], model.memory_bytes, n


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


def _fingerprint_diff(a: Dict[str, object], b: Dict[str, object]) -> str:
    """Human-readable summary of which fingerprint sections diverged."""
    parts = []
    for key in a:
        if a[key] != b[key]:
            parts.append(f"{key}: scalar={a[key]!r} batched={b[key]!r}")
    return "; ".join(parts) or "<no differing section?>"


def run_runtime_case(case: RuntimeBenchCase, scalar_runs: int = 2,
                     batched_runs: int = 3) -> Dict[str, object]:
    """Time both run_trace engines end to end; verify identical state.

    Every run gets a freshly built runtime (the engines must not share
    warmed state); runs are interleaved for the same reason as the
    kcachesim suite.  Hot-mix cases run an untimed warmup sweep before
    the timed trace (both engines, identically).  A fingerprint
    mismatch — any counter, the dirty bitmap, or the report's
    elapsed_ns — fails the benchmark.
    """
    warm_addrs, warm_writes, addrs0, writes, mem_bytes, n = _case_trace(case)
    runs = {"scalar": max(scalar_runs, 1), "batched": max(batched_runs, 1)}
    timings: Dict[str, float] = {e: float("inf") for e in runs}
    fingerprints: Dict[str, Dict[str, object]] = {}
    schedule = [engine
                for i in range(max(runs.values()))
                for engine in ("scalar", "batched") if i < runs[engine]]
    for engine in schedule:
        rt = _build_runtime(case)
        region = rt.mmap(mem_bytes)
        base = np.int64(region.start)
        if warm_addrs is not None:
            rt.run_trace(warm_addrs + base, warm_writes, engine=engine)
        addrs = addrs0 + base
        t0 = time.perf_counter()
        report = rt.run_trace(addrs, writes, engine=engine)
        timings[engine] = min(timings[engine], time.perf_counter() - t0)
        fingerprints[engine] = runtime_fingerprint(rt, report)

    if fingerprints["scalar"] != fingerprints["batched"]:
        raise SimulationError(
            f"engine mismatch on {case.workload}: "
            + _fingerprint_diff(fingerprints["scalar"],
                                fingerprints["batched"]))
    fp = fingerprints["scalar"]
    hits = fp["runtime"].get("cache_hits", 0)
    timed = fp["runtime"].get("cache_hits", 0) \
        + fp["runtime"].get("cache_misses", 0)
    return {
        "workload": case.case_label,
        "model": case.workload,
        "num_accesses": n,
        "warmup_accesses": 0 if warm_addrs is None else int(warm_addrs.size),
        "windows": case.windows,
        "seed": case.seed,
        "fmem_mb": case.fmem_mb,
        "vfmem_mb": case.vfmem_mb,
        "scalar": {"seconds": timings["scalar"], "runs": runs["scalar"],
                   "maccesses_per_s": n / timings["scalar"] / 1e6},
        "batched": {"seconds": timings["batched"], "runs": runs["batched"],
                    "maccesses_per_s": n / timings["batched"] / 1e6},
        "speedup": timings["scalar"] / timings["batched"],
        "counters_match": True,
        "cpu_hit_ratio": round(hits / timed, 4) if timed else 0.0,
        "remote_fetches": fp["agent"].get("remote_fetches", 0),
        "pages_evicted": fp["eviction"]["pages_evicted"],
        "elapsed_ns": fp["elapsed_ns"],
    }


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
        if streamed_fp != runtime_fingerprint(rt2, report2):
            raise SimulationError(
                "streamed replay diverged from monolithic run_trace: "
                + _fingerprint_diff(streamed_fp,
                                    runtime_fingerprint(rt2, report2)))
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

    ``streaming`` adds the columnar streaming scale point (defaults to
    on for full runs, off for ``--quick``).
    """
    if cases is None:
        cases = (RUNTIME_QUICK_CASES if quick
                 else (RUNTIME_CANONICAL_CASE, *RUNTIME_EXTRA_CASES))
    if streaming is None:
        streaming = not quick
    scalar_runs = 1 if quick else 2
    batched_runs = 2 if quick else 4
    case_results = [run_runtime_case(c, scalar_runs, batched_runs)
                    for c in cases]
    canonical = next(
        (c for c in case_results
         if c["workload"] == RUNTIME_CANONICAL_CASE.workload),
        case_results[0])
    payload = {
        "benchmark": "kona-runtime-engine-bench",
        "version": 1,
        "quick": quick,
        "methodology": ("best-of-N wall time per run_trace engine on "
                        "identical traces, fresh runtime per run, "
                        "untimed hot-set warmup where the case defines "
                        "one; full cross-layer state fingerprints "
                        "verified equal"),
        "host": host_metadata(),
        "created_unix": int(time.time()),
        "cases": case_results,
        "canonical_workload": canonical["workload"],
        "canonical_speedup": canonical["speedup"],
    }
    if streaming:
        payload["streaming"] = run_streaming_case()
    return payload


def write_bench(payload: Dict[str, object], path: str = BENCH_FILENAME) -> str:
    """Write the report JSON; returns the path."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def history_record(payload: Dict[str, object]) -> Dict[str, object]:
    """Compact one-line form of a bench payload for the history log.

    Keeps the host fingerprint and per-case speedups (what the perf
    gate compares) and drops the bulky per-level counters, so the log
    stays greppable and cheap to append forever.
    """
    cases = []
    for case in payload["cases"]:
        fast = "batched" if "batched" in case else "vectorized"
        cases.append({
            "workload": case["workload"],
            "num_accesses": case["num_accesses"],
            "speedup": case["speedup"],
            "scalar_seconds": case["scalar"]["seconds"],
            f"{fast}_seconds": case[fast]["seconds"],
        })
    record = {
        "benchmark": payload["benchmark"],
        "version": payload["version"],
        "quick": payload["quick"],
        "created_unix": payload["created_unix"],
        "host": payload["host"],
        "cases": cases,
        "canonical_workload": payload["canonical_workload"],
        "canonical_speedup": payload["canonical_speedup"],
    }
    streaming = payload.get("streaming")
    if streaming is not None:
        record["streaming"] = {
            "workload": streaming["workload"],
            "num_accesses": streaming["num_accesses"],
            "streamed_seconds": streaming["streamed_seconds"],
            "maccesses_per_s": streaming["maccesses_per_s"],
        }
    return record


def append_history(payload: Dict[str, object],
                   path: str = HISTORY_FILENAME) -> str:
    """Append one history record for this bench run; returns the path.

    The log is append-only JSONL under ``benchmarks/out/`` so
    ``repro perfdiff`` and the CI perf gate have a run-over-run
    baseline source beyond the committed ``BENCH_*.json`` snapshots.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(history_record(payload), sort_keys=True))
        fh.write("\n")
    return path


def load_history(path: str = HISTORY_FILENAME,
                 benchmark: Optional[str] = None) -> List[Dict[str, object]]:
    """All history records (optionally one benchmark's), oldest first."""
    if not os.path.exists(path):
        return []
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if benchmark is None or record.get("benchmark") == benchmark:
                records.append(record)
    return records


#: Per-case speedup floors for the miss-heavy workload-model cases.
#: These ride the fused miss lane, which must beat the
#: scalar oracle outright — not merely avoid losing to it — so their
#: floors sit above the generic ``min_case_speedup`` of 1.0x.  The
#: values are deliberately well under the measured speedups (~2x on
#: the reference host) to absorb CI-runner noise while still catching
#: a real miss-lane regression, which shows up as a collapse toward
#: parity with the scalar engine.
RUNTIME_CASE_FLOORS: Dict[str, float] = {
    "page-rank": 1.3,
    "voltdb-tpcc": 1.3,
    "page-rank-miss": 1.3,
}


def check_speedup(payload: Dict[str, object], min_speedup: float,
                  min_case_speedup: float = 1.0,
                  case_floors: Optional[Dict[str, float]] = None,
                  ) -> List[str]:
    """Regression gate: canonical speedup must reach ``min_speedup``,
    and *every* committed case must reach ``min_case_speedup`` — the
    batched engine being slower than the oracle anywhere is a
    regression no canonical-case win excuses.

    ``case_floors`` maps case labels to per-case floors that override
    ``min_case_speedup`` (it defaults to :data:`RUNTIME_CASE_FLOORS`,
    which raises the bar for the miss-heavy miss-lane cases).

    Returns a list of failure messages (empty when the gate passes).
    """
    if case_floors is None:
        case_floors = RUNTIME_CASE_FLOORS
    failures = []
    got = payload["canonical_speedup"]
    if got < min_speedup:
        failures.append(
            f"canonical speedup {got:.2f}x below required {min_speedup}x")
    for case in payload.get("cases", ()):
        floor = max(min_case_speedup,
                    case_floors.get(case["workload"], min_case_speedup))
        if case["speedup"] < floor:
            failures.append(
                f"{case['workload']} speedup {case['speedup']:.2f}x below "
                f"required {floor}x")
        if not case.get("counters_match", False):
            failures.append(f"{case['workload']} counters diverged "
                            f"between engines")
    streaming = payload.get("streaming")
    if streaming is not None and not streaming.get(
            "fingerprint_matches_monolithic", False):
        failures.append("streamed replay fingerprint diverged from "
                        "monolithic run_trace")
    return failures
