"""Streamed replay: chunked ``run_trace_stream`` vs monolithic oracle.

The contract under test: feeding a trace through ``run_trace_stream``
in chunks (each a multiple of the 256-access maintenance cadence,
except possibly the last) leaves the runtime in a state — every
counter, the dirty bitmap, the time accounting, and the bit-exact
``elapsed_ns`` — identical to one monolithic ``run_trace`` over the
concatenated trace.  Because float addition is not associative, this
only holds if the engine threads ONE stall-accumulation chain through
all chunks in program order; these tests pin that ordering contract.
They also pin failure-path parity with the scalar stream and the
chunk-iterator contract of the batched engine.
"""

import numpy as np
import pytest

from repro.common import units
from repro.common.errors import AddressError, ConfigError, SimulationError
from repro.experiments.bench import runtime_fingerprint
from repro.experiments.chaos import build_chaos_runtime, chaos_stream
from repro.kona.config import KonaConfig
from repro.kona.runtime import KonaRuntime
from repro.obs import FlightRecorder


def _trace(n=20_000, seed=0, lines=1 << 14, region=8 * units.MB):
    rng = np.random.default_rng(seed)
    addrs = (rng.integers(0, lines, n).astype(np.int64)
             * units.CACHE_LINE) % region
    return addrs, rng.random(n) < 0.3


def _runtime(region=8 * units.MB, recorder=None, cpu_cache=8 * units.MB):
    cfg = KonaConfig(fmem_capacity=4 * units.MB,
                     vfmem_capacity=32 * units.MB,
                     slab_bytes=16 * units.MB)
    rt = KonaRuntime(cfg, recorder=recorder, cpu_cache_capacity=cpu_cache)
    return rt, rt.mmap(region)


def _phased_trace(seed=5):
    """Hot, cold, hot again; a traced stream runs all three phases on
    the scalar oracle."""
    rng = np.random.default_rng(seed)
    phases = [rng.integers(0, 512, 6144),
              rng.integers(0, 1 << 17, 8192),
              rng.integers(0, 512, 10240)]
    addrs = np.concatenate(phases).astype(np.int64) * units.CACHE_LINE
    return addrs, rng.random(addrs.size) < 0.3


def _chunks(addrs, writes, sizes):
    pos = 0
    for size in sizes:
        yield addrs[pos:pos + size], writes[pos:pos + size]
        pos += size
    assert pos == addrs.size


class TestStreamEqualsMonolithic:
    @pytest.mark.parametrize("engine", ["batched", "scalar", "traced"])
    def test_fixed_chunks(self, engine, front_imports):
        # "traced" is the batched engine with tracing on: the fused
        # lane's proofs do not hold, so the whole stream runs on the
        # scalar oracle and never imports the CPU cache.
        traced = engine == "traced"
        if traced:
            engine = "batched"
            addrs, writes = _phased_trace()
        else:
            addrs, writes = _trace()

        def recorder():
            return FlightRecorder(tracing=True) if traced else None
        rt_m, region_m = _runtime(recorder=recorder())
        report_m = rt_m.run_trace(addrs + region_m.start, writes,
                                  engine=engine)
        rt_s, region_s = _runtime(recorder=recorder())
        sizes = [4096] * (addrs.size // 4096) + [addrs.size % 4096]
        front_imports.clear()   # count the stream's imports only
        report_s = rt_s.run_trace_stream(
            _chunks(addrs, writes, sizes), engine=engine,
            base=region_s.start)
        assert runtime_fingerprint(rt_s, report_s) \
            == runtime_fingerprint(rt_m, report_m)
        if traced:
            assert len(front_imports) == 0
        elif engine == "batched":
            assert len(front_imports) == 1   # once per stream, not per chunk

    def test_base_rebase_equals_prebased(self):
        # Per-chunk base rebasing (no shifted copy of the trace) must
        # behave exactly like adding the offset up front.
        addrs, writes = _trace(8192, seed=4)
        rt_a, region_a = _runtime()
        report_a = rt_a.run_trace(addrs + region_a.start, writes)
        rt_b, region_b = _runtime()
        report_b = rt_b.run_trace(addrs, writes, base=region_b.start)
        assert runtime_fingerprint(rt_a, report_a) \
            == runtime_fingerprint(rt_b, report_b)

    def test_ragged_final_chunk_allowed(self):
        addrs, writes = _trace(10_000, seed=1)
        rt_m, region_m = _runtime()
        report_m = rt_m.run_trace(addrs + region_m.start, writes)
        rt_s, region_s = _runtime()
        report_s = rt_s.run_trace_stream(
            _chunks(addrs, writes, [7936, 1792, 272]),
            base=region_s.start)
        assert runtime_fingerprint(rt_s, report_s) \
            == runtime_fingerprint(rt_m, report_m)

    def test_empty_chunks_skipped(self):
        addrs, writes = _trace(2048, seed=2)
        rt_m, region_m = _runtime()
        report_m = rt_m.run_trace(addrs + region_m.start, writes)
        rt_s, region_s = _runtime()
        sizes = [0, 1024, 0, 1024, 0]
        report_s = rt_s.run_trace_stream(
            _chunks(addrs, writes, sizes), base=region_s.start)
        assert runtime_fingerprint(rt_s, report_s) \
            == runtime_fingerprint(rt_m, report_m)
        # An empty chunk after the ragged final one is still skipped.
        addrs, writes = _trace(1836, seed=2)
        rt_m, region_m = _runtime()
        report_m = rt_m.run_trace(addrs + region_m.start, writes)
        rt_s, region_s = _runtime()
        report_s = rt_s.run_trace_stream(
            _chunks(addrs, writes, [1536, 300, 0]), base=region_s.start)
        assert runtime_fingerprint(rt_s, report_s) \
            == runtime_fingerprint(rt_m, report_m)


class TestStreamFailureParity:
    """A failing stream leaves the batched engine's exported state
    equal to the scalar oracle's, like ``run_trace`` does."""

    @staticmethod
    def _state(rt, report):
        return (runtime_fingerprint(rt, report),
                [list(s.items()) for s in rt.cpu_cache._sets])

    def test_address_error_in_later_chunk(self):
        state = {}
        for engine in ("scalar", "batched"):
            rt, region = _runtime()
            addrs, writes = _trace(4096, seed=6)
            addrs = addrs + region.start
            addrs[3000] = 7   # below every Kona mapping, in chunk 3
            with pytest.raises(AddressError):
                rt.run_trace_stream(_chunks(addrs, writes, [1024] * 4),
                                    engine=engine)
            # An empty run's report fingerprints the state the failed
            # stream left behind.
            report = rt.run_trace(np.zeros(0, np.int64), np.zeros(0, bool),
                                  engine=engine)
            state[engine] = self._state(rt, report)
        assert state["scalar"] == state["batched"]

    def test_node_failure_and_recovery_between_chunks(self):
        state = {}
        for engine in ("scalar", "batched"):
            rt = build_chaos_runtime(seed=0, replication=2)
            region = rt.mmap(32 * units.MB)
            addrs, writes = chaos_stream(region.start, 9216, seed=4)

            def chunks():
                yield addrs[:3072], writes[:3072]
                rt.fabric.fail_node("mem0")
                yield addrs[3072:6144], writes[3072:6144]
                rt.fabric.recover_node("mem0")
                rt.recover()
                yield addrs[6144:], writes[6144:]
            report = rt.run_trace_stream(chunks(), engine=engine)
            state[engine] = self._state(rt, report)
        assert state["scalar"] == state["batched"]

    def test_fmem_reclaim_between_chunks(self):
        # The iterator may read counters and run maintenance that moves
        # FMem under a live stream.  Every resident page is reclaimed
        # between chunks, and each boundary falls mid-page, so the next
        # chunk's first fill targets the page the previous chunk filled
        # last.
        state = {}
        for engine in ("scalar", "batched"):
            rt, region = _runtime()
            addrs = region.start + np.arange(32, 32 + 6144) * units.CACHE_LINE
            writes = np.random.default_rng(8).random(addrs.size) < 0.3
            seen = []

            def chunks():
                for lo in range(0, addrs.size, 1024):
                    if lo:
                        seen.append([c.as_dict() for c in (
                            rt.counters, rt.agent.counters,
                            rt.fmem.counters)])
                        rt.agent.proactive_evict(rt.fmem.occupancy)
                    yield addrs[lo:lo + 1024], writes[lo:lo + 1024]
            report = rt.run_trace_stream(chunks(), engine=engine)
            state[engine] = self._state(rt, report), seen
        assert state["scalar"] == state["batched"]


class TestStreamMemory:
    def test_fmem_resident_cpu_thrashing_matches_scalar(self):
        # The working set fits FMem while the CPU cache thrashes, so
        # every page is refilled from FMem hundreds of times.
        addrs, writes = _trace(65_536, seed=9, lines=1 << 14)
        reports = {}
        for engine in ("scalar", "batched"):
            rt, region = _runtime(cpu_cache=64 * units.KB)
            report = rt.run_trace_stream(
                _chunks(addrs, writes, [4096] * 16), engine=engine,
                base=region.start)
            reports[engine] = runtime_fingerprint(rt, report)
        assert reports["scalar"] == reports["batched"]
        assert rt.fmem.counters["fills"] == 256   # the 1 MB working set
        assert rt.agent.counters["fmem_hits"] > 200 * 256


class TestIteratorContract:
    @pytest.mark.parametrize("call", ["access", "read", "write", "flush",
                                      "run_trace"])
    def test_dict_cache_readers_raise_inside_iterator(self, call):
        # While the batched stream holds the CPU-cache state, the dict
        # cache is stale: reading it from the chunk iterator must fail
        # loudly, and the stream must hand the state back on the way out.
        rt, region = _runtime()
        addrs, writes = _trace(2048, seed=7)
        addr = region.start
        calls = {
            "access": lambda: rt.access(addr, False),
            "read": lambda: rt.read(addr),
            "write": lambda: rt.write(addr),
            "flush": rt.flush,
            "run_trace": lambda: rt.run_trace(
                np.array([addr], np.int64), np.zeros(1, bool)),
        }

        def chunks():
            yield addrs[:1024], writes[:1024]
            calls[call]()
            yield addrs[1024:], writes[1024:]
        with pytest.raises(SimulationError):
            rt.run_trace_stream(chunks(), base=region.start)
        rt.access(addr, False)   # the dict cache is authoritative again


class TestStallSummationOrderingProperty:
    """Property test: ANY cadence-aligned chunking is bit-exact.

    ``elapsed_ns`` is a float sum of per-miss stalls; float addition
    does not commute with regrouping, so bit-equality across arbitrary
    chunkings proves the stream threads one summation chain in program
    order rather than summing per chunk and combining.
    """

    @pytest.mark.parametrize("seed", range(5))
    def test_random_cadence_aligned_chunkings(self, seed):
        addrs, writes = _trace(12_800, seed=seed, lines=1 << 15)
        rt_m, region_m = _runtime()
        report_m = rt_m.run_trace(addrs + region_m.start, writes)
        oracle = runtime_fingerprint(rt_m, report_m)
        rng = np.random.default_rng(seed + 100)
        for _ in range(3):
            sizes = []
            left = addrs.size
            while left > 0:
                size = min(int(rng.integers(1, 20)) * 256, left)
                sizes.append(size)
                left -= size
            rt_s, region_s = _runtime()
            report_s = rt_s.run_trace_stream(
                _chunks(addrs, writes, sizes), base=region_s.start)
            got = runtime_fingerprint(rt_s, report_s)
            assert got == oracle, f"chunking {sizes[:8]}... diverged"
            assert got["elapsed_ns"] == oracle["elapsed_ns"]

    def test_misaligned_middle_chunk_rejected(self):
        addrs, writes = _trace(2048, seed=3)
        rt, region = _runtime()
        with pytest.raises(ConfigError):
            rt.run_trace_stream(
                _chunks(addrs, writes, [300, 1748]), base=region.start)

    def test_shape_mismatch_rejected(self):
        rt, region = _runtime()
        bad = iter([(np.zeros(4, np.int64), np.zeros(3, bool))])
        with pytest.raises(ConfigError):
            rt.run_trace_stream(bad, base=region.start)

    def test_unknown_engine_rejected(self):
        rt, _ = _runtime()
        with pytest.raises(ConfigError):
            rt.run_trace_stream(iter([]), engine="warp")
