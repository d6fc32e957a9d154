"""Differential tests on miss-heavy traces: batched vs scalar oracle.

Most accesses of these traces miss the CPU cache, so the batched
engine replays them through its fused miss lane (the per-event loop
over the packed directory) rather than through hit patching.  The
acceptance bar is *bit-identity* with the scalar oracle: identical
fingerprints, ``elapsed_ns``, counters at every layer, and merged
causal ``FaultLog`` aggregates — across random miss-heavy traces,
coherence protocols, a chaos campaign, capture on/off, and monolithic
vs streamed vs sharded replay.  (The module is named for the
coalesced page-run replay it was written against, since removed.)
"""

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.common.units as u
from repro.coherence.directory import DirectoryEntry
from repro.coherence.states import LineState
from repro.common.errors import (AddressError, NodeFailure,
                                 TranslationError)
from repro.experiments.bench import (RUNTIME_FLOORS, RUNTIME_QUICK_CASES,
                                     check_speedup, runtime_fingerprint)
from repro.kona.config import KonaConfig
from repro.kona.runtime import KonaRuntime
from repro.net.ring import RECORD_BYTES
from repro.workloads import WORKLOADS

from .conftest import eviction_state

N = 6_000
REGION = 32 * u.MB

ENGINES = ("scalar", "batched")


def build_runtime(cpu_cache_capacity=8 * u.MB, **overrides):
    defaults = dict(fmem_capacity=4 * u.MB, vfmem_capacity=256 * u.MB,
                    slab_bytes=16 * u.MB)
    defaults.update(overrides)
    return KonaRuntime(KonaConfig(**defaults), app_ns_per_access=70.0,
                       cpu_cache_capacity=cpu_cache_capacity)


def miss_heavy_trace(n, seed, region_bytes=REGION, hot_lines=512,
                     cold=0.65, write_frac=0.4):
    """Mostly cold lines: the segments classify miss-heavy, so replay
    goes through the fused miss lane rather than hit patching.
    """
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, hot_lines, size=n, dtype=np.int64)
    mask = rng.random(n) < cold
    lines[mask] = rng.integers(hot_lines, region_bytes // u.CACHE_LINE,
                               size=int(mask.sum()), dtype=np.int64)
    return lines * u.CACHE_LINE, rng.random(n) < write_frac


def run_one(engine, make_trace, capture=False, **overrides):
    rt = build_runtime(**overrides)
    cap = rt.attach_causal_capture() if capture else None
    region = rt.mmap(REGION)
    addrs, writes = make_trace()
    report = rt.run_trace(addrs + np.int64(region.start), writes,
                          engine=engine)
    fp = runtime_fingerprint(rt, report)
    agg = cap.log.aggregate() if capture else None
    return fp, eviction_state(rt.eviction, rt.controller), agg


def assert_all_identical(make_trace, capture=False, **overrides):
    got = {name: run_one(name, make_trace, capture=capture, **overrides)
           for name in ENGINES}
    assert got["batched"] == got["scalar"]


class TestMissHeavyRandom:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_traces_identical(self, seed):
        assert_all_identical(lambda: miss_heavy_trace(N, seed))

    @pytest.mark.parametrize("protocol", ["msi", "mesi", "moesi"])
    def test_protocols_identical(self, protocol):
        assert_all_identical(lambda: miss_heavy_trace(N, 11),
                             protocol=protocol)

    @pytest.mark.parametrize("protocol", ["msi", "mesi", "moesi"])
    def test_capture_on_identical(self, protocol):
        # The lane records capture rows at its inlined fill sites;
        # aggregates must match the oracle's row for row.
        assert_all_identical(lambda: miss_heavy_trace(N, 13),
                             capture=True, protocol=protocol)

    @pytest.mark.parametrize("name", ["page-rank", "voltdb-tpcc"])
    def test_workload_models_identical(self, name):
        got = {}
        for eng in ENGINES:
            rt = build_runtime(fmem_capacity=8 * u.MB)
            model = WORKLOADS[name]()
            trace = model.generate(windows=2, seed=7)
            region = rt.mmap(model.memory_bytes)
            m = min(N, len(trace))
            report = rt.run_trace(trace.addrs[:m] + np.uint64(region.start),
                                  trace.writes[:m], engine=eng)
            got[eng] = (runtime_fingerprint(rt, report),
                        eviction_state(rt.eviction, rt.controller))
        assert got["batched"] == got["scalar"]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_msi_shared_lines_outlive_page_drains(self, seed):
        # MSI reads fill SHARED lines, which survive their page's FMem
        # drain; once the page is refilled, a write upgrades such a line
        # and the next drain of the page must still snoop it.
        assert_all_identical(
            lambda: miss_heavy_trace(8_000, seed, hot_lines=256, cold=0.8),
            protocol="msi", vfmem_capacity=64 * u.MB)

    def test_tiny_fmem_eviction_pressure(self):
        # FMem far below the footprint: page drains snoop resident
        # lines in the middle of replayed segments.
        assert_all_identical(lambda: miss_heavy_trace(10_000, 17),
                             fmem_capacity=1 * u.MB)

    def test_oversized_log_batch_is_not_deferred(self):
        # A log flush larger than a memory node's ring fails, parks and
        # degrades health, which causal capture records.  Such a batch
        # size must keep the lane's evictions in the oracle's order.
        def make():
            return miss_heavy_trace(30_000, 23, write_frac=0.8)

        got = {name: run_one(name, make, capture=True,
                             fmem_capacity=1 * u.MB,
                             rdma_batch_bytes=8193 * RECORD_BYTES)
               for name in ENGINES}
        assert got["batched"] == got["scalar"]
        assert got["scalar"][1]["counters"]["flush_failures"] > 0

    def test_prefetch_evictions_follow_queued_ones(self):
        # A prefetch fill evicts through the agent's own sink; the
        # pages the lane queued earlier in the segment must reach the
        # handler first, or its float chains and log order move.
        assert_all_identical(
            lambda: miss_heavy_trace(10_000, 19, write_frac=0.8),
            fmem_capacity=1 * u.MB, prefetch_policy="next-page")


class TestChaosCampaign:
    """Fail a replica mid-run, recover, compare both engines."""

    @staticmethod
    def _chaos_runtime():
        cfg = KonaConfig(fmem_capacity=4 * u.MB,
                         vfmem_capacity=64 * u.MB,
                         slab_bytes=16 * u.MB,
                         replication_factor=2,
                         retry_seed=0)
        rt = KonaRuntime(cfg, num_memory_nodes=2, app_ns_per_access=70.0)
        rt.failures.coherence_timeout_ns = 10_000.0
        return rt

    @pytest.mark.parametrize("capture", [False, True])
    def test_node_failure_between_spans(self, capture):
        out = {}
        for eng in ENGINES:
            rt = self._chaos_runtime()
            cap = rt.attach_causal_capture() if capture else None
            region = rt.mmap(16 * u.MB)
            addrs, writes = miss_heavy_trace(9_000, 23,
                                             region_bytes=16 * u.MB)
            addrs = addrs + np.int64(region.start)
            spans = np.array_split(np.arange(addrs.size), 3)
            rt.run_trace(addrs[spans[0]], writes[spans[0]], engine=eng)
            rt.fabric.fail_node("mem0")
            rt.run_trace(addrs[spans[1]], writes[spans[1]], engine=eng)
            rt.fabric.recover_node("mem0")
            rt.recover()
            report = rt.run_trace(addrs[spans[2]], writes[spans[2]],
                                  engine=eng)
            out[eng] = (runtime_fingerprint(rt, report),
                        eviction_state(rt.eviction, rt.controller),
                        cap.log.aggregate() if capture else None)
        assert out["batched"] == out["scalar"]


class TestStreamedAndSharded:
    def test_streamed_chunks_identical_to_monolithic(self):
        addrs0, writes = miss_heavy_trace(12_000, 29)
        mono = {}
        for eng in ENGINES:
            rt = build_runtime()
            cap = rt.attach_causal_capture()
            region = rt.mmap(REGION)
            report = rt.run_trace(addrs0 + np.int64(region.start), writes,
                                  engine=eng)
            mono[eng] = (runtime_fingerprint(rt, report),
                         eviction_state(rt.eviction, rt.controller),
                         cap.log.aggregate())
        assert mono["batched"] == mono["scalar"]

        # Random cadence-aligned cuts, streamed through each engine.
        rng = np.random.default_rng(31)
        cuts = np.unique(rng.integers(1, addrs0.size // 256, 4)) * 256
        bounds = [0, *cuts.tolist(), addrs0.size]
        for eng in ENGINES:
            rt = build_runtime()
            cap = rt.attach_causal_capture()
            region = rt.mmap(REGION)
            base = np.int64(region.start)
            chunks = ((addrs0[a:b] + base, writes[a:b])
                      for a, b in zip(bounds, bounds[1:]))
            report = rt.run_trace_stream(chunks, engine=eng)
            streamed = (runtime_fingerprint(rt, report),
                        eviction_state(rt.eviction, rt.controller),
                        cap.log.aggregate())
            assert streamed == mono[eng], eng

    def test_sharded_batched_matches_sharded_scalar(self, tmp_path):
        from dataclasses import replace

        from repro.experiments.shard import make_shards, run_sharded
        from repro.workloads.trace import TRACE_DTYPE, Trace, save_columnar

        addrs, writes = miss_heavy_trace(12_000, 37)
        data = np.zeros(addrs.size, dtype=TRACE_DTYPE)
        data["addr"] = addrs.astype(np.uint64)
        data["size"] = u.CACHE_LINE
        data["write"] = writes
        trace_dir = str(tmp_path / "miss.trace")
        save_columnar(Trace(data=data, memory_bytes=REGION), trace_dir)
        out = {}
        for engine in ENGINES:
            specs = [replace(spec, capture=True)
                     for spec in make_shards(trace_dir, 2, engine=engine,
                                             chunk_size=1 << 12,
                                             fmem_mb=4, vfmem_mb=64)]
            result = run_sharded(specs, processes=1)
            out[engine] = (result.totals.as_dict(), result.elapsed_ns,
                           result.fault_log().aggregate())
        assert out["batched"] == out["scalar"]



def capture_state(cap):
    """The capture's aggregate and what the aggregate is blind to: the
    seeded reservoir, which depends on record order and on where the
    staging block drains, and the count of records it saw."""
    log = cap.log
    return log.aggregate(), log.reservoir, log.reservoir_seen


class TestCaptureAndFetchPaths:
    """Capture order and drain points, priced fetches, an unbacked
    window and 8 KiB pages: each run on both engines with a capture
    that drains every 1,000 records."""

    @staticmethod
    def _assert_identical(drive, reservoir_size=256, **overrides):
        got = {}
        for engine in ENGINES:
            rt = build_runtime(**overrides)
            cap = rt.attach_causal_capture(capacity=1000,
                                           reservoir_size=reservoir_size)
            region = rt.mmap(REGION)
            report = drive(rt, np.int64(region.start), engine)
            got[engine] = (runtime_fingerprint(rt, report),
                           eviction_state(rt.eviction, rt.controller),
                           [list(s.items()) for s in rt.cpu_cache._sets],
                           capture_state(cap))
        assert got["batched"] == got["scalar"]
        return rt

    def test_records_keep_their_order_and_drain_points(self):
        addrs, writes = miss_heavy_trace(N, 43)
        self._assert_identical(lambda rt, base, engine: rt.run_trace(
            addrs + base, writes, engine=engine))

    def test_link_delay_between_chunks(self):
        # About half the accesses miss, so segments both replay and
        # patch: remote fetches in the middle chunk pay the delay on
        # both fill paths, and capture cannot stage them.
        addrs, writes = miss_heavy_trace(3 * 2048, 47, cold=0.5)

        def drive(rt, base, engine):
            def chunks():
                yield addrs[:2048] + base, writes[:2048]
                rt.fabric.delay_link("compute", "mem0", 500.0)
                yield addrs[2048:4096] + base, writes[2048:4096]
                rt.fabric.clear_delay("compute", "mem0")
                yield addrs[4096:] + base, writes[4096:]
            return rt.run_trace_stream(chunks(), engine=engine)

        rt = self._assert_identical(drive)
        assert rt.agent.account["remote_fetch"] > 0

    def test_unmapped_window_in_a_miss_heavy_segment(self):
        # Mapping REGION binds four 16 MB windows, 2 * REGION in all; a
        # line past them has no remote backing.  Its fetch raises in
        # the middle of a segment, after the capture drained once.
        addrs, writes = miss_heavy_trace(N, 53)
        addrs[1_300] = 2 * REGION + 7 * u.CACHE_LINE

        def drive(rt, base, engine):
            with pytest.raises(TranslationError):
                rt.run_trace(addrs + base, writes, engine=engine)
            return rt.run_trace(np.zeros(0, np.int64), np.zeros(0, bool),
                                engine=engine)

        self._assert_identical(drive)

    def test_generic_detour_inside_a_staged_segment(self):
        # A directory entry the CPU cache does not hold (planted: no
        # single-agent run leaves one) sends its line's miss down the
        # generic path, which records through the agent.  The rows the
        # segment staged before it must be written first: a reservoir
        # as large as the run keeps every record in capture order.
        addrs, writes = miss_heavy_trace(N, 61)
        planted = REGION - u.CACHE_LINE
        addrs[1_300], writes[1_300] = planted, False
        assert np.count_nonzero(addrs == planted) == 1

        def drive(rt, base, engine):
            aid = rt.cpu_cache.agent_id
            rt.agent.directory._entries[int(base) + planted] = \
                DirectoryEntry(LineState.SHARED, None, {aid}).encode()
            return rt.run_trace(addrs + base, writes, engine=engine)

        self._assert_identical(drive, reservoir_size=N)

    def test_reclaim_with_8k_pages(self):
        # 128 lines per page: the reclaim's array pass over the way
        # index reads rows of 128.  A 64 KiB CPU cache keeps its sets
        # full, so a set's resident count must drop with each line the
        # pass invalidates.
        addrs, writes = miss_heavy_trace(10_000, 59, write_frac=0.6)
        rt = self._assert_identical(
            lambda rt, base, engine: rt.run_trace(addrs + base, writes,
                                                  engine=engine),
            page_size=8192, fmem_capacity=1 * u.MB,
            cpu_cache_capacity=64 * u.KB)
        assert rt.counters["watermark_reclaims"] > 0


def run_stream(rt, addrs, writes, engine, streamed):
    """One ``run_trace``, or a stream of three-cadence chunks."""
    if not streamed:
        return rt.run_trace(addrs, writes, engine=engine)
    step = 3 * 256
    return rt.run_trace_stream(
        ((addrs[i:i + step], writes[i:i + step])
         for i in range(0, addrs.size, step)), engine=engine)


class TestRaiseThenResume:
    """A run that raises at a drawn access, then a non-empty run on the
    same runtime.  The oracle advances the capture's base once per
    access it starts, after the address check: an address outside
    VFMem is not counted, a fetch that raises is.  The resumed run
    numbers its records from there on both engines."""

    PAGES = 256         # warmed into FMem; the trace stays on them
    HOT_LINES = 512     # fits the 64 KB CPU cache: hit-heavy segments
    N = 2_048

    def _trace(self, rng, n, hot_share):
        lines = rng.integers(0, self.PAGES * 64, n)
        hot = rng.random(n) < hot_share
        lines[hot] = rng.integers(0, self.HOT_LINES, int(hot.sum()))
        return lines * u.CACHE_LINE, rng.random(n) < 0.4

    @pytest.mark.parametrize("streamed", [False, True],
                             ids=["monolithic", "streamed"])
    @pytest.mark.parametrize("path", ["address", "unmapped-window",
                                      "every-node-down"])
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), at=st.integers(0, N - 1),
           hot_share=st.sampled_from([0.0, 0.5, 0.97]))
    def test_resume_numbers_faults_like_the_oracle(self, path, streamed,
                                                   seed, at, hot_share):
        got = {}
        for engine in ENGINES:
            rng = np.random.default_rng(seed)
            rt = build_runtime(cpu_cache_capacity=64 * u.KB)
            cap = rt.attach_causal_capture(capacity=1000)
            base = np.int64(rt.mmap(REGION).start)
            warm = np.concatenate((np.arange(self.PAGES) * u.PAGE_4K,
                                   np.arange(self.HOT_LINES) * u.CACHE_LINE))
            rt.run_trace(warm + base, np.zeros(warm.size, bool),
                         engine=engine)
            addrs, writes = self._trace(rng, self.N, hot_share)
            addrs += base
            if path == "address":
                addrs[at], error = 7, AddressError
            elif path == "unmapped-window":
                # Mapping REGION binds 2 * REGION of windows.
                addrs[at], error = base + 2 * REGION, TranslationError
            else:
                # Every earlier access hits FMem; this page's fetch is
                # the run's first.
                addrs[at], error = base + REGION // 2, NodeFailure
                for name in rt.controller.nodes:
                    rt.controller.node(name).fail()
            with pytest.raises(error):
                run_stream(rt, addrs, writes, engine, streamed)
            addrs, writes = self._trace(rng, self.N // 2, hot_share)
            report = run_stream(rt, addrs + base, writes, engine, streamed)
            got[engine] = (cap.base, runtime_fingerprint(rt, report),
                           eviction_state(rt.eviction, rt.controller),
                           capture_state(cap))
        assert got["batched"] == got["scalar"]


def gate_entry(case, speedup):
    """A runtime report entry for ``case`` measured at ``speedup``."""
    config = {k: v for k, v in asdict(case).items() if k != "label"}
    return {"workload": case.case_label, "case": config,
            "num_accesses": case.num_accesses, "speedup": speedup}


class TestPerfGateFloors:
    LABELS = {case.case_label: case for case in RUNTIME_QUICK_CASES}

    def test_quick_suite_has_miss_heavy_canonical_case(self):
        case = self.LABELS["page-rank-miss"]
        assert case.workload == "page-rank"
        assert case.num_accesses == 150_000
        assert case.seed == 7
        assert case.fmem_mb == 8

    def test_miss_heavy_cases_gate_above_parity(self):
        miss = self.LABELS["page-rank-miss"]
        floor = RUNTIME_FLOORS[replace(miss, label=None)]
        assert floor > 1.0
        payload = {
            "canonical_speedup": 20.0,
            "cases": [gate_entry(self.LABELS["hot-mix"], 20.0),
                      gate_entry(miss, 1.1)],
        }
        assert check_speedup(payload, 1.0, RUNTIME_FLOORS) == [
            f"page-rank-miss (150,000 accesses) speedup 1.10x below its "
            f"floor {floor}x"]

    def test_generic_floor_still_applies(self):
        """Without a floor table (the kcachesim suite) every case must
        still reach parity."""
        payload = {
            "canonical_speedup": 9.0,
            "cases": [{"workload": "uniform-stress",
                       "num_accesses": 150_000, "speedup": 0.9}],
        }
        assert check_speedup(payload, 1.0) == [
            "uniform-stress (150,000 accesses) speedup 0.90x below its "
            "floor 1.0x"]
