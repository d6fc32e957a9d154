"""Unit tests for the vectorized cache kernel."""

import numpy as np
import pytest

import repro.common.units as u
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.vectorized import SUPPORTED_POLICIES, VectorizedCache
from repro.common.errors import ConfigError


def make_cache(capacity=4 * u.KB, block=64, ways=2, policy="lru"):
    return VectorizedCache("test", capacity, block, ways, policy)


class TestConstruction:
    def test_geometry(self):
        c = make_cache()
        assert c.num_sets == 4 * u.KB // (64 * 2)
        assert c.occupancy == 0

    @pytest.mark.parametrize("cap,block,ways", [
        (0, 64, 2), (4096, 0, 2), (4096, 64, 0),
    ])
    def test_rejects_nonpositive(self, cap, block, ways):
        with pytest.raises(ConfigError):
            VectorizedCache("bad", cap, block, ways)

    def test_rejects_non_pow2_block(self):
        with pytest.raises(ConfigError):
            make_cache(block=96)

    def test_rejects_indivisible_capacity(self):
        with pytest.raises(ConfigError):
            VectorizedCache("bad", 1000, 64, 2)

    def test_rejects_non_pow2_sets(self):
        with pytest.raises(ConfigError):
            VectorizedCache("bad", 3 * 64 * 2, 64, 2)

    def test_rejects_random_policy(self):
        with pytest.raises(ConfigError):
            make_cache(policy="random")
        assert "random" not in SUPPORTED_POLICIES

    def test_accepts_supported_policies(self):
        for policy in SUPPORTED_POLICIES:
            assert make_cache(policy=policy).policy_name == policy


class TestScalarAccessPath:
    def test_miss_then_hit(self):
        c = make_cache()
        hit, ev = c.access(0, False)
        assert not hit and ev is None
        hit, ev = c.access(0, False)
        assert hit and ev is None
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_eviction_reports_victim(self):
        c = make_cache(capacity=2 * 64, block=64, ways=2)  # one set
        c.access(0, True)
        c.access(64, False)
        hit, ev = c.access(128, False)
        assert not hit
        assert ev is not None and ev.dirty and ev.block_addr == 0

    def test_occupancy_and_residency(self):
        c = make_cache()
        c.access(0, False)
        c.access(64, True)
        assert c.occupancy == 2
        assert c.resident_blocks() == [0, 64]

    def test_dirty_tracking(self):
        c = make_cache()
        c.access(0, True)
        c.access(64, False)
        assert c.is_dirty(0)
        assert not c.is_dirty(64)
        assert not c.is_dirty(128)   # not resident


class TestBulkPath:
    def test_miss_mask_shape_and_dtype(self):
        c = make_cache()
        addrs = np.array([0, 64, 0, 64, 128], dtype=np.uint64)
        writes = np.zeros(5, dtype=bool)
        miss = c.simulate_batch(addrs, writes)
        assert miss.dtype == bool and miss.shape == (5,)
        assert list(miss) == [True, True, False, False, True]

    def test_empty_stream(self):
        c = make_cache()
        miss = c.simulate_batch(np.empty(0, dtype=np.uint64),
                                np.empty(0, dtype=bool))
        assert miss.size == 0
        assert c.stats.misses == 0

    def test_shape_mismatch_rejected(self):
        c = make_cache()
        with pytest.raises(ConfigError):
            c.simulate_batch(np.zeros(3, dtype=np.uint64),
                             np.zeros(2, dtype=bool))

    def test_run_collapsing_counts_hits(self):
        c = make_cache()
        addrs = np.zeros(100, dtype=np.uint64)  # one long run
        miss = c.simulate_batch(addrs, np.zeros(100, dtype=bool))
        assert int(miss.sum()) == 1
        assert c.stats.hits == 99 and c.stats.misses == 1

    def test_write_anywhere_in_run_dirties_block(self):
        c = make_cache()
        addrs = np.zeros(4, dtype=np.uint64)
        writes = np.array([False, False, True, False])
        c.simulate_batch(addrs, writes)
        assert c.is_dirty(0)

    def test_interleaves_with_scalar_access(self):
        c = make_cache()
        oracle = SetAssociativeCache("o", 4 * u.KB, 64, 2)
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 16 * u.KB, 200, dtype=np.uint64)
        writes = rng.random(200) < 0.5
        c.simulate_batch(addrs[:100], writes[:100])
        for a, w in zip(addrs[:100].tolist(), writes[:100].tolist()):
            oracle.access(a, w)
        for a, w in zip(addrs[100:150].tolist(), writes[100:150].tolist()):
            assert c.access(a, w)[0] == oracle.access(a, w)[0]
        c.simulate_batch(addrs[150:], writes[150:])
        for a, w in zip(addrs[150:].tolist(), writes[150:].tolist()):
            oracle.access(a, w)
        assert c.stats == oracle.stats


class TestReplacementSemantics:
    def test_lru_prefers_least_recent(self):
        c = make_cache(capacity=2 * 64, block=64, ways=2)  # one set
        c.simulate_batch(np.array([0, 64, 0], dtype=np.uint64),
                         np.zeros(3, dtype=bool))
        # 64 is LRU; a new block must evict it and keep 0 resident.
        c.simulate_batch(np.array([128], dtype=np.uint64),
                         np.zeros(1, dtype=bool))
        assert c.resident_blocks() == [0, 128]

    def test_fifo_ignores_hits(self):
        c = make_cache(capacity=2 * 64, block=64, ways=2, policy="fifo")
        c.simulate_batch(np.array([0, 64, 0], dtype=np.uint64),
                         np.zeros(3, dtype=bool))
        # 0 was inserted first; the hit must not refresh it under FIFO.
        c.simulate_batch(np.array([128], dtype=np.uint64),
                         np.zeros(1, dtype=bool))
        assert c.resident_blocks() == [64, 128]
