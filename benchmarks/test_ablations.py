"""Ablations of Kona's design choices (DESIGN.md section 5).

* replication factor on the eviction path (paper section 4.5);
* FMem associativity (paper: "does not significantly impact latency");
* dirty-tracking granularity between 64 B and 2 MB (Table 2 extension);
* next-page prefetching on sequential streams (section 4.4);
* the full-page writeback threshold in the CL log.
"""

import numpy as np
import pytest

from conftest import run_once, write_report
import repro.common.units as u
from repro.analysis import render_series, render_table
from repro.baselines.eviction_strategies import kona_cl_log, kona_vm_4k
from repro.kona import KonaConfig, KonaRuntime
from repro.tools.kcachesim import KCacheSim
from repro.tools.pintool import analyze_window
from repro.workloads import WORKLOADS, make_trace
from repro.workloads.amat import redis_rand_spec


def _replication_sweep():
    out = {}
    for factor in (1, 2, 3):
        config = KonaConfig(fmem_capacity=4 * u.MB,
                            vfmem_capacity=64 * u.MB,
                            slab_bytes=16 * u.MB,
                            replication_factor=factor)
        rt = KonaRuntime(config, num_memory_nodes=3)
        region = rt.mmap(8 * u.MB)
        for i in range(256):
            rt.write(region.start + i * u.PAGE_4K)
        rt.flush()
        stats = rt.eviction.stats
        out[factor] = {
            "wire_bytes": stats.wire_bytes,
            "evict_ns": stats.elapsed_ns,
            "dirty_bytes": stats.dirty_bytes,
        }
    return out


@pytest.mark.benchmark(group="ablations")
def test_ablation_replication(benchmark):
    sweep = run_once(benchmark, _replication_sweep)
    rows = [(f, s["wire_bytes"], round(s["evict_ns"] / 1000, 1))
            for f, s in sorted(sweep.items())]
    write_report("ablation_replication", render_table(
        ["replicas", "wire bytes", "evict us"], rows,
        title="Ablation: eviction replication factor"))

    # Wire bytes scale with the replica count; eviction slows but only
    # modestly (replica posts overlap on the wire, section 4.5).
    base = sweep[1]
    for factor in (2, 3):
        assert sweep[factor]["wire_bytes"] == factor * base["wire_bytes"]
        assert sweep[factor]["evict_ns"] < factor * base["evict_ns"]
        assert sweep[factor]["dirty_bytes"] == base["dirty_bytes"]
    # Kona's win compounds: each replica would have paid the page-
    # granularity amplification in a page-based system.
    assert base["dirty_bytes"] < 256 * u.PAGE_4K / 10


def _associativity_sweep():
    sim = KCacheSim(redis_rand_spec(data_bytes=16 * u.MB))
    return {ways: sim.run(0.5, ways=ways, num_ops=25_000).amat_ns("kona")
            for ways in (1, 2, 4, 8)}


@pytest.mark.benchmark(group="ablations")
def test_ablation_fmem_associativity(benchmark):
    sweep = run_once(benchmark, _associativity_sweep)
    write_report("ablation_associativity", render_series(
        [(w, round(a, 2)) for w, a in sorted(sweep.items())],
        "ways", "AMAT ns", title="Ablation: FMem associativity"))
    # Paper 6.2(2): associativity does not significantly impact latency
    # (4-way chosen for metadata economy, not hit rate).
    values = list(sweep.values())
    assert (max(values) - min(values)) / min(values) < 0.15


def _granularity_sweep():
    wl = WORKLOADS["redis-rand"]()
    trace = wl.generate(windows=4, seed=2)
    steady = trace.data[(trace.data["window"] >= wl.startup_windows)
                        & trace.data["write"]]
    out = {}
    for gran in (64, 256, 1024, 4096, 65536, u.PAGE_2M):
        # Dirty units at this granularity over unique written bytes.
        from repro.workloads.trace import Trace
        t = Trace(steady.copy(), trace.memory_bytes)
        t.data["window"] = 0
        rec = analyze_window(t, 0)
        units_dirty = np.unique(
            steady["addr"] // np.uint64(gran)).size
        out[gran] = units_dirty * gran / rec.unique_bytes
    return out


@pytest.mark.benchmark(group="ablations")
def test_ablation_tracking_granularity(benchmark):
    sweep = run_once(benchmark, _granularity_sweep)
    write_report("ablation_granularity", render_series(
        [(g, round(a, 2)) for g, a in sorted(sweep.items())],
        "granularity B", "amplification",
        title="Ablation: dirty-tracking granularity (Redis-Rand)"))
    # Amplification grows monotonically with tracking granularity; the
    # knee sits right where Kona operates (64 B).
    grans = sorted(sweep)
    values = [sweep[g] for g in grans]
    assert values == sorted(values)
    assert sweep[64] < 2.0
    assert sweep[4096] > 10.0


def _prefetch_comparison():
    out = {}
    for prefetch in (False, True):
        config = KonaConfig(fmem_capacity=8 * u.MB,
                            vfmem_capacity=64 * u.MB,
                            slab_bytes=16 * u.MB,
                            prefetch_policy="next-page" if prefetch
                            else "none")
        rt = KonaRuntime(config)
        region = rt.mmap(8 * u.MB)
        stall = 0.0
        # A sequential scan: the pattern hardware prefetchers love and
        # page-fault systems cannot help (faults serialize).
        for page in range(1024):
            stall += rt.read(region.start + page * u.PAGE_4K)
        out[prefetch] = {
            "stall_ns": stall,
            "remote_on_path": rt.agent.counters["remote_fetches"]
            - rt.agent.counters["pages_prefetched"],
        }
    return out


@pytest.mark.benchmark(group="ablations")
def test_ablation_prefetch(benchmark):
    result = run_once(benchmark, _prefetch_comparison)
    rows = [(p, round(s["stall_ns"] / 1000, 1)) for p, s in result.items()]
    write_report("ablation_prefetch", render_table(
        ["prefetch", "stall us"], rows,
        title="Ablation: next-page prefetch on a sequential scan"))
    # Prefetching converts most critical-path remote fetches into
    # background fills (paper section 4.4: Kona re-enables prefetching
    # across page boundaries).
    assert result[True]["stall_ns"] < 0.25 * result[False]["stall_ns"]


def _threshold_sweep():
    out = {}
    vm = kona_vm_4k(4096, 60)
    for threshold in (16, 32, 56, 64):
        result = kona_cl_log(4096, 60, "contiguous",
                             full_page_threshold=threshold)
        out[threshold] = result.goodput_relative_to(vm)
    return out


@pytest.mark.benchmark(group="ablations")
def test_ablation_full_page_threshold(benchmark):
    sweep = run_once(benchmark, _threshold_sweep)
    write_report("ablation_full_page_threshold", render_series(
        [(t, round(v, 2)) for t, v in sorted(sweep.items())],
        "threshold lines", "goodput vs Kona-VM",
        title="Ablation: full-page writeback threshold at 60 dirty lines"))
    # At 60 dirty lines, shipping the whole page (threshold <= 60)
    # beats logging 60 individual lines (threshold 64).
    assert sweep[56] > sweep[64]
