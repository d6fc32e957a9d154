"""Tests for the cache hierarchy and AMAT pricing."""

import numpy as np
import pytest

import repro.common.units as u
from repro.cache.amat import (
    infiniswap_latencies,
    kona_latencies,
    kona_main_latencies,
    legoos_latencies,
    system_latencies,
)
from repro.cache.hierarchy import (
    CacheHierarchy,
    LevelSpec,
    dram_cache_spec,
)
from repro.common.errors import ConfigError


def small_hierarchy(dram_capacity=None):
    levels = (
        LevelSpec("L1", 4 * u.KB, 64, 2),
        LevelSpec("L2", 32 * u.KB, 64, 4),
    )
    dram = dram_cache_spec(dram_capacity) if dram_capacity else None
    return CacheHierarchy(levels, dram_cache=dram)


class TestAccessPath:
    def test_first_access_goes_remote(self):
        h = small_hierarchy(dram_capacity=1 * u.MB)
        assert h.access(0, False) == "remote"

    def test_second_access_hits_l1(self):
        h = small_hierarchy(dram_capacity=1 * u.MB)
        h.access(0, False)
        assert h.access(0, False) == "L1"

    def test_dram_cache_serves_spatial_locality(self):
        # Same 4 KB page, different line: misses L1/L2 but hits DRAM$.
        h = small_hierarchy(dram_capacity=1 * u.MB)
        h.access(0, False)
        assert h.access(2048, False) == "DRAM$"

    def test_without_dram_cache_misses_go_to_memory(self):
        h = small_hierarchy()
        assert h.access(0, False) == "memory"

    def test_dirty_dram_eviction_counts_remote_writeback(self):
        # One-set DRAM cache: 4 ways of 4 KB.
        levels = (LevelSpec("L1", 4 * u.KB, 64, 2),)
        h = CacheHierarchy(levels, dram_cache=LevelSpec(
            "DRAM$", 16 * u.KB, u.PAGE_4K, 4))
        for i in range(4):
            h.access(i * u.PAGE_4K, True)
        h.access(4 * u.PAGE_4K, False)    # evicts a dirty page
        assert h.remote_writebacks == 1


class TestSimulate:
    def test_counts_sum_to_accesses(self):
        h = small_hierarchy(dram_capacity=1 * u.MB)
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 4 * u.MB, 5000, dtype=np.uint64)
        writes = rng.random(5000) < 0.5
        result = h.simulate(addrs, writes)
        served = sum(result.level_hits.values()) + result.remote_fetches
        assert served == 5000

    def test_served_fractions_sum_to_one(self):
        h = small_hierarchy(dram_capacity=1 * u.MB)
        rng = np.random.default_rng(1)
        addrs = rng.integers(0, 2 * u.MB, 2000, dtype=np.uint64)
        result = h.simulate(addrs, np.zeros(2000, dtype=bool))
        assert sum(result.served_fractions().values()) == pytest.approx(1.0)

    def test_bigger_dram_cache_fewer_remote_fetches(self):
        rng = np.random.default_rng(2)
        addrs = rng.integers(0, 8 * u.MB, 20000, dtype=np.uint64)
        writes = np.zeros(20000, dtype=bool)
        small = small_hierarchy(dram_capacity=512 * u.KB)
        big = small_hierarchy(dram_capacity=4 * u.MB)
        r_small = small.simulate(addrs, writes)
        r_big = big.simulate(addrs.copy(), writes)
        assert r_big.remote_fetches < r_small.remote_fetches

    def test_shape_mismatch_rejected(self):
        h = small_hierarchy()
        with pytest.raises(ConfigError):
            h.simulate(np.zeros(3, dtype=np.uint64), np.zeros(2, dtype=bool))


class TestAmatPricing:
    def _result(self):
        h = small_hierarchy(dram_capacity=1 * u.MB)
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 4 * u.MB, 10000, dtype=np.uint64)
        return h.simulate(addrs, np.zeros(10000, dtype=bool))

    def test_system_ordering_matches_paper(self):
        # Same miss profile: Kona-main <= Kona < LegoOS < Infiniswap.
        result = self._result()
        amat = {name: system_latencies(name).amat_ns(result)
                for name in ("kona", "kona-main", "legoos", "infiniswap")}
        assert amat["kona-main"] <= amat["kona"]
        assert amat["kona"] < amat["legoos"] < amat["infiniswap"]

    def test_kona_main_avoids_numa_penalty(self):
        result = self._result()
        gap = (kona_latencies().amat_ns(result)
               - kona_main_latencies().amat_ns(result))
        assert gap > 0

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigError):
            system_latencies("windows-swap")

    def test_empty_trace_rejected(self):
        h = small_hierarchy(dram_capacity=1 * u.MB)
        result = h.result(0)
        with pytest.raises(ConfigError):
            kona_latencies().amat_ns(result)


class TestLevelSpecValidation:
    def test_upper_level_bigger_blocks_rejected(self):
        levels = (
            LevelSpec("L1", 8 * u.KB, 128, 2),
            LevelSpec("L2", 32 * u.KB, 64, 4),
        )
        with pytest.raises(ConfigError):
            CacheHierarchy(levels)

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ConfigError):
            CacheHierarchy(())


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError):
            CacheHierarchy((LevelSpec("L1", 4 * u.KB, 64, 2),),
                           engine="turbo")

    def test_vectorized_rejects_random_policy(self):
        levels = (LevelSpec("L1", 4 * u.KB, 64, 2, policy="random"),)
        with pytest.raises(ConfigError):
            CacheHierarchy(levels, engine="vectorized")
        CacheHierarchy(levels, engine="scalar")  # oracle still supports it


class TestRemoteCountConsistency:
    """access() and simulate() must agree on remote accounting.

    With no DRAM cache, a whole-hierarchy miss fetches from (remote)
    memory; both paths count it as a remote fetch, so served fractions
    sum to 1 either way.
    """

    def test_memory_misses_count_as_remote_fetches_in_access(self):
        h = small_hierarchy()  # no DRAM cache
        assert h.access(0, False) == "memory"
        assert h.remote_fetches == 1
        assert h.access(0, False) == "L1"
        assert h.remote_fetches == 1

    def test_access_and_simulate_agree_without_dram(self):
        rng = np.random.default_rng(5)
        addrs = rng.integers(0, 1 * u.MB, 3000, dtype=np.uint64)
        writes = rng.random(3000) < 0.5
        via_access = small_hierarchy()
        for a, w in zip(addrs.tolist(), writes.tolist()):
            via_access.access(a, w)
        via_simulate = small_hierarchy()
        via_simulate.simulate(addrs, writes)
        assert via_access.result() == via_simulate.result()

    def test_served_fractions_sum_to_one_without_dram(self):
        h = small_hierarchy()
        rng = np.random.default_rng(6)
        addrs = rng.integers(0, 1 * u.MB, 2000, dtype=np.uint64)
        h.simulate(addrs, np.zeros(2000, dtype=bool))
        assert sum(h.result().served_fractions().values()) == pytest.approx(1.0)


class TestAccessCounter:
    def test_result_accumulates_across_calls(self):
        h = small_hierarchy(dram_capacity=1 * u.MB)
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 2 * u.MB, 1000, dtype=np.uint64)
        writes = np.zeros(1000, dtype=bool)
        h.simulate(addrs[:400], writes[:400])
        h.access(int(addrs[400]), False)
        result = h.simulate(addrs[401:], writes[401:])
        assert result.accesses == 1000
        served = sum(result.level_hits.values()) + result.remote_fetches
        assert served == 1000

    def test_explicit_accesses_override(self):
        h = small_hierarchy(dram_capacity=1 * u.MB)
        h.simulate(np.zeros(10, dtype=np.uint64), np.zeros(10, dtype=bool))
        assert h.result(accesses=20).accesses == 20
        assert h.result().accesses == 10
