"""Differential tests: scalar vs batched ``run_trace`` engines.

The batched engine's acceptance bar is *bit-identity*: every counter
at every layer, the dirty bitmap, the time accounting and the report
must match the scalar oracle exactly — across workload models,
coherence protocols, prefetch policies, observability settings, and a
mid-trace node-failure campaign.
"""

import numpy as np
import pytest

import repro.common.units as u
from repro.common.errors import (AddressError, ConfigError, NodeFailure,
                                 TranslationError)
from repro.experiments.bench import runtime_fingerprint
from repro.experiments.chaos import (REGION_BYTES, build_chaos_runtime,
                                     chaos_stream)
from repro.fpga.fmem import WAYS
from repro.kona.config import KonaConfig
from repro.kona.runtime import KonaRuntime
from repro.obs import FlightRecorder
from repro.workloads import WORKLOADS

from .conftest import eviction_state

N = 4_000


def build_runtime(recorder=None, **overrides):
    defaults = dict(fmem_capacity=8 * u.MB, vfmem_capacity=512 * u.MB,
                    slab_bytes=16 * u.MB)
    defaults.update(overrides)
    return KonaRuntime(KonaConfig(**defaults), app_ns_per_access=70.0,
                       recorder=recorder)


def hot_trace(n, region_bytes, seed=3, hot_lines=2048, cold=0.01):
    """Mostly CPU-cache hits with occasional cold lines (vector path)."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, hot_lines, size=n, dtype=np.int64)
    mask = rng.random(n) < cold
    lines[mask] = rng.integers(hot_lines, region_bytes // u.CACHE_LINE,
                               size=int(mask.sum()), dtype=np.int64)
    return lines * u.CACHE_LINE, rng.random(n) < 0.4


def run_pair(make_runtime, make_trace):
    """Run the same trace on both engines; return both fingerprints,
    each with the eviction handler's state beside it."""
    out = {}
    for engine in ("scalar", "batched"):
        rt = make_runtime()
        addrs, writes = make_trace(rt)
        report = rt.run_trace(addrs, writes, engine=engine)
        out[engine] = (runtime_fingerprint(rt, report),
                       eviction_state(rt.eviction, rt.controller))
    return out


def assert_identical(make_runtime, make_trace):
    got = run_pair(make_runtime, make_trace)
    assert got["scalar"] == got["batched"]


def workload_trace(name, n=N):
    def make(rt):
        model = WORKLOADS[name]()
        trace = model.generate(windows=2, seed=7)
        region = rt.mmap(model.memory_bytes)
        m = min(n, len(trace))
        return trace.addrs[:m] + np.uint64(region.start), trace.writes[:m]
    return make


def mapped_hot_trace(n=N, **kwargs):
    def make(rt):
        region = rt.mmap(32 * u.MB)
        addrs, writes = hot_trace(n, 32 * u.MB, **kwargs)
        return addrs + np.int64(region.start), writes
    return make


class TestWorkloadModels:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_engines_identical(self, name):
        assert_identical(build_runtime, workload_trace(name))


class TestConfigurationMatrix:
    @pytest.mark.parametrize("protocol", ["msi", "mesi", "moesi"])
    def test_protocols(self, protocol):
        # MSI grants S on every read fill, so writes exercise the
        # upgrade path the vectorized front-end replays one by one.
        assert_identical(lambda: build_runtime(protocol=protocol),
                         mapped_hot_trace())

    @pytest.mark.parametrize("policy", ["none", "next-page", "stride",
                                        "leap"])
    def test_prefetch_policies(self, policy):
        assert_identical(lambda: build_runtime(prefetch_policy=policy),
                         workload_trace("redis-seq"))

    def test_eager_upgrade_tracking(self):
        assert_identical(
            lambda: build_runtime(protocol="msi",
                                  eager_upgrade_tracking=True),
            mapped_hot_trace())

    def test_tiny_fmem_eviction_pressure(self):
        # FMem far smaller than the footprint: page evictions snoop
        # resident CPU lines mid-batch (the mutation-patching path).
        assert_identical(
            lambda: build_runtime(fmem_capacity=1 * u.MB),
            workload_trace("redis-rand", n=8_000))

    # Each sampler case runs twice: with tracing on, the batched engine
    # runs the scalar oracle; with tracing off, the fused lane serves
    # the stream and must run the sampler's maintenance ticks exactly.

    @staticmethod
    def _assert_sampler_identical(tracing):
        def make_rt():
            rec = FlightRecorder(tracing=tracing,
                                 sample_interval_ns=10_000.0)
            return build_runtime(recorder=rec)
        assert_identical(make_rt, mapped_hot_trace())

    def test_sampler_and_tracing(self):
        self._assert_sampler_identical(tracing=True)

    def test_sampler_without_tracing(self):
        self._assert_sampler_identical(tracing=False)

    @staticmethod
    def _assert_tsdb_timelines_identical(tracing):
        # The time-series store is fed from the sampler on the sim
        # clock, so both engines must produce the same timeline:
        # same timestamps, same gauge values, point for point.
        stores = {}
        for engine in ("scalar", "batched"):
            rec = FlightRecorder(tracing=tracing,
                                 sample_interval_ns=10_000.0)
            rt = build_runtime(recorder=rec)
            region = rt.mmap(32 * u.MB)
            addrs, writes = hot_trace(N, 32 * u.MB)
            rt.run_trace(addrs + np.int64(region.start), writes,
                         engine=engine)
            stores[engine] = rec.tsdb.as_dict()
        assert stores["scalar"]
        assert stores["scalar"] == stores["batched"]

    def test_tsdb_sample_timelines_identical(self):
        self._assert_tsdb_timelines_identical(tracing=True)

    def test_tsdb_sample_timelines_identical_without_tracing(self):
        self._assert_tsdb_timelines_identical(tracing=False)


class TestMaintenanceSkip:
    """Hot slices skip the cadence points where maintenance cannot act.

    Each case warms a 512-line hot set, so its 16 Ki-access slices
    classify hot, and then runs 128 Ki accesses where maintenance must
    still act inside hot slices.  ``chunk`` streams those accesses in
    cadence-multiple chunks instead of one ``run_trace``.
    """

    N_SKIP = 128 * 1024
    CHUNKS = pytest.mark.parametrize("chunk", [None, 40 * 256],
                                     ids=["monolithic", "streamed"])

    @classmethod
    def _assert_identical(cls, cold, prepare=lambda rt, engine, base: None,
                          chunk=None, **kwargs):
        out = {}
        for engine in ("scalar", "batched"):
            rt = KonaRuntime(KonaConfig(vfmem_capacity=512 * u.MB, **kwargs),
                             app_ns_per_access=70.0,
                             num_memory_nodes=4)
            base = np.int64(rt.mmap(64 * u.MB).start)
            warm = np.arange(512, dtype=np.int64) * u.CACHE_LINE
            rt.run_trace(warm + base, np.zeros(warm.size, dtype=bool),
                         engine=engine)
            prepare(rt, engine, base)
            addrs, writes = hot_trace(cls.N_SKIP, 64 * u.MB, hot_lines=512,
                                      cold=cold)
            addrs = addrs + base
            if chunk is None:
                report = rt.run_trace(addrs, writes, engine=engine)
            else:
                report = rt.run_trace_stream(
                    [(addrs[i:i + chunk], writes[i:i + chunk])
                     for i in range(0, addrs.size, chunk)], engine=engine)
            out[engine] = (runtime_fingerprint(rt, report),
                           eviction_state(rt.eviction, rt.controller))
        assert out["scalar"] == out["batched"]
        return rt

    def test_watermark_reclaim_inside_hot_slices(self):
        # 2% cold pages overflow a 1 MB FMem: the cadence point after
        # a fill must still reclaim, however long the pure run after it.
        rt = self._assert_identical(cold=0.02, fmem_capacity=1 * u.MB,
                                    slab_bytes=16 * u.MB)
        assert rt.counters["watermark_reclaims"] > 0

    @CHUNKS
    @pytest.mark.parametrize("headroom", [3, -5],
                             ids=["crosses-mid-slice", "starts-above"])
    def test_reclaim_limit(self, chunk, headroom):
        # FMem is filled to ``headroom`` pages under the reclaim limit
        # (over it, when negative) by fresh pages in sets with a free
        # frame; the fill is shorter than the cadence, so maintenance
        # last ran after its first access.  Rare cold fills then lift
        # occupancy past the limit a few events into a hot slice, or
        # the replay starts above it and must reclaim at once.
        def fill(rt, engine, base):
            fm = rt.fmem
            page = fm.page_size
            room = [WAYS - len(pages) for pages in fm.sets]
            need = rt.reclaim_limit - headroom - fm.occupancy
            first = int(base) // page + 1024   # past the hot set
            pages = []
            for p in range(first, first + 16 * fm.num_sets):
                if len(pages) < need and room[p % fm.num_sets]:
                    room[p % fm.num_sets] -= 1
                    pages.append(p)
            assert len(pages) == need < 256
            rt.run_trace(np.array(pages, dtype=np.int64) * page,
                         np.zeros(need, dtype=bool), engine=engine)
            assert rt.fmem.occupancy == rt.reclaim_limit - headroom
        rt = self._assert_identical(cold=0.002, prepare=fill, chunk=chunk,
                                    fmem_capacity=1 * u.MB,
                                    slab_bytes=16 * u.MB)
        assert rt.counters["watermark_reclaims"] > 1

    @CHUNKS
    def test_no_maintenance_call_far_below_the_limit(self, chunk):
        # The batched engine's hot passes run through every cadence
        # point while FMem stays under the reclaim limit.
        calls = {"scalar": 0, "batched": 0}

        def count(rt, engine, base):
            maybe_evict = rt.maybe_evict

            def counting(*args, **kwargs):
                calls[engine] += 1
                return maybe_evict(*args, **kwargs)
            rt.maybe_evict = counting
        rt = self._assert_identical(cold=0.002, prepare=count, chunk=chunk,
                                    fmem_capacity=64 * u.MB)
        assert rt.fmem.occupancy < rt.reclaim_limit // 4
        assert calls == {"scalar": self.N_SKIP // 256, "batched": 0}

    def test_replication_backlog_ticks_every_cadence_point(self):
        # Each cadence point re-replicates one slot while a backlog
        # exists, even where no event happened since the last one.
        def fail_node(rt, engine, base):
            rt.controller.node("mem0").fail()
            rt.on_memnode_failure("mem0")
            assert rt.replication.backlog_slots == 32
        rt = self._assert_identical(
            cold=0.0001, prepare=fail_node, fmem_capacity=8 * u.MB,
            slab_bytes=1 * u.MB, replication_factor=2,
            rereplication_slots_per_tick=1)
        assert rt.replication.backlog_slots == 0


class TestEngineContract:
    def test_batched_is_default(self):
        rt = build_runtime()
        region = rt.mmap(32 * u.MB)
        addrs, writes = hot_trace(N, 32 * u.MB)
        rt.run_trace(addrs + np.int64(region.start), writes)
        twin = build_runtime()
        twin.mmap(32 * u.MB)
        twin.run_trace(addrs + np.int64(region.start), writes,
                       engine="batched")
        assert rt.counters.as_dict() == twin.counters.as_dict()

    def test_unknown_engine_rejected(self):
        rt = build_runtime()
        rt.mmap(32 * u.MB)
        with pytest.raises(ConfigError):
            rt.run_trace(np.zeros(1, dtype=np.int64),
                         np.zeros(1, dtype=bool), engine="warp")

    def test_run_workload_engines_identical(self):
        out = {}
        for engine in ("scalar", "batched"):
            rt = build_runtime()
            report = rt.run_workload(WORKLOADS["histogram"](), windows=2,
                                     seed=5, max_accesses=N, engine=engine)
            out[engine] = runtime_fingerprint(rt, report)
        assert out["scalar"] == out["batched"]

    def test_mid_trace_address_error_parity(self):
        # A wild address mid-trace: both engines execute every prior
        # access, raise AddressError, and leave identical state behind.
        state = {}
        for engine in ("scalar", "batched"):
            rt = build_runtime()
            region = rt.mmap(32 * u.MB)
            addrs, writes = hot_trace(2_000, 32 * u.MB)
            addrs = addrs + np.int64(region.start)
            addrs[1_500] = 7  # below every Kona mapping
            with pytest.raises(AddressError):
                rt.run_trace(addrs, writes, engine=engine)
            state[engine] = (rt.counters.as_dict(),
                             rt.cpu_cache.counters.as_dict(),
                             [list(s.items()) for s in rt.cpu_cache._sets])
        assert state["scalar"] == state["batched"]

    @pytest.mark.parametrize("attach", ["tracing", "data_plane",
                                        "observer", "eviction_sink"])
    def test_lane_ineligible_runtimes_run_the_oracle(self, attach,
                                                     front_imports):
        # Where the fused lane's proofs do not hold, engine="batched"
        # runs the scalar oracle: it never imports the CPU cache into
        # the vectorized front-end, and it matches engine="scalar".
        def make_rt():
            rt = build_runtime(recorder=FlightRecorder(tracing=True)
                               if attach == "tracing" else None)
            if attach == "data_plane":
                rt.attach_data_plane()
            elif attach == "observer":
                rt.agent.directory.subscribe(lambda event: None)
            elif attach == "eviction_sink":
                rt.agent.on_page_eviction(lambda page, mask: None)
            return rt
        assert_identical(make_rt, mapped_hot_trace())
        assert front_imports == []

    def test_shape_mismatch_rejected(self):
        rt = build_runtime()
        with pytest.raises(ConfigError):
            rt.run_trace(np.zeros(4, dtype=np.int64),
                         np.zeros(3, dtype=bool))

    @pytest.mark.parametrize("fault, trace_bytes, seed, error", [
        pytest.param("every-node-down", 32 * u.MB, 4, NodeFailure,
                     id="every-node-down"),
        # Mapping 32 MB binds the first four 16 MB windows; cold lines
        # past them have no remote backing.
        pytest.param("unmapped-window", 128 * u.MB, 9, TranslationError,
                     id="unmapped-window"),
    ])
    def test_fetch_that_raises_in_a_patched_span(self, fault, trace_bytes,
                                                 seed, error):
        # The raise ends a run/patch pass whose earlier accesses include
        # hits on lines an event of the same pass filled: the batched
        # engine must count them as the oracle does.
        state = {}
        for engine in ("scalar", "batched"):
            rt = build_runtime(fmem_capacity=1 * u.MB)
            region = rt.mmap(32 * u.MB)
            addrs, writes = hot_trace(N, 32 * u.MB)
            rt.run_trace(addrs + np.int64(region.start), writes,
                         engine=engine)
            if fault == "every-node-down":
                for name in rt.controller.nodes:
                    rt.controller.node(name).fail()
            addrs, writes = hot_trace(N, trace_bytes, seed=seed)
            with pytest.raises(error):
                rt.run_trace(addrs + np.int64(region.start), writes,
                             engine=engine)
            report = rt.run_trace(np.zeros(0, np.int64), np.zeros(0, bool),
                                  engine=engine)
            state[engine] = (runtime_fingerprint(rt, report),
                             eviction_state(rt.eviction, rt.controller),
                             [list(s.items()) for s in rt.cpu_cache._sets])
        assert state["scalar"] == state["batched"]


class TestChaosCampaign:
    """Split-trace campaign: fail a replica mid-run, recover, compare."""

    @pytest.mark.parametrize("protocol", ["mesi", "moesi"])
    def test_node_failure_between_spans(self, protocol):
        out = {}
        for engine in ("scalar", "batched"):
            rt = build_chaos_runtime(seed=0, replication=2)
            region = rt.mmap(REGION_BYTES)
            addrs, writes = chaos_stream(region.start, 9_000, seed=4)
            spans = np.array_split(np.arange(addrs.size), 3)
            rt.run_trace(addrs[spans[0]], writes[spans[0]], engine=engine)
            rt.fabric.fail_node("mem0")
            rt.run_trace(addrs[spans[1]], writes[spans[1]], engine=engine)
            rt.fabric.recover_node("mem0")
            rt.recover()
            report = rt.run_trace(addrs[spans[2]], writes[spans[2]],
                                  engine=engine)
            out[engine] = runtime_fingerprint(rt, report)
        assert out["scalar"] == out["batched"]
