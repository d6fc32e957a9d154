"""Tests for the set-associative cache model."""

import pytest

import repro.common.units as u
from repro.common.errors import ConfigError
from repro.cache.setassoc import SetAssociativeCache


def make_cache(capacity=8 * u.KB, block=64, ways=2, policy="lru"):
    return SetAssociativeCache("T", capacity, block, ways, policy)


class TestGeometry:
    def test_basic_geometry(self):
        c = make_cache()
        assert c.num_sets == 64

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache("T", 3 * 64 * 2, 64, 2)

    def test_indivisible_capacity_rejected(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache("T", 1000, 64, 2)

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache("T", 8192, 100, 2)


class TestAccess:
    def test_miss_then_hit(self):
        c = make_cache()
        hit, _ = c.access(0, False)
        assert not hit
        hit, _ = c.access(63, False)   # same block
        assert hit

    def test_write_allocate_and_dirty(self):
        c = make_cache()
        c.access(0, True)
        assert c.is_dirty(0)

    def test_read_does_not_dirty(self):
        c = make_cache()
        c.access(0, False)
        assert not c.is_dirty(0)

    def test_write_hit_dirties_clean_block(self):
        c = make_cache()
        c.access(0, False)
        c.access(32, True)
        assert c.is_dirty(0)

    def test_lru_victim_selection(self):
        c = make_cache(capacity=2 * 64, block=64, ways=2)   # one set
        c.access(0, False)        # block 0
        c.access(64, False)       # block 1
        c.access(0, False)        # promote block 0
        _, eviction = c.access(128, False)
        assert eviction is not None
        assert eviction.block_addr == 64

    def test_dirty_eviction_flagged(self):
        c = make_cache(capacity=2 * 64, block=64, ways=2)
        c.access(0, True)
        c.access(64, False)
        _, eviction = c.access(128, False)
        assert eviction is not None and eviction.dirty
        assert c.stats.dirty_writebacks == 1

    def test_clean_eviction_not_flagged(self):
        c = make_cache(capacity=2 * 64, block=64, ways=2)
        c.access(0, False)
        c.access(64, False)
        _, eviction = c.access(128, False)
        assert eviction is not None and not eviction.dirty


class TestMaintenance:
    def test_occupancy_and_resident_blocks(self):
        c = make_cache()
        c.access(0, False)
        c.access(64, False)
        assert c.occupancy == 2
        assert c.resident_blocks() == [0, 64]


class TestPolicies:
    def test_fifo_ignores_hits(self):
        c = make_cache(capacity=2 * 64, block=64, ways=2, policy="fifo")
        c.access(0, False)
        c.access(64, False)
        c.access(0, False)   # FIFO does not promote
        _, eviction = c.access(128, False)
        assert eviction.block_addr == 0

    def test_random_policy_evicts_something(self):
        c = make_cache(capacity=2 * 64, block=64, ways=2, policy="random")
        c.access(0, False)
        c.access(64, False)
        _, eviction = c.access(128, False)
        assert eviction is not None
        assert eviction.block_addr in (0, 64)
