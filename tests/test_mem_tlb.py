"""Tests for the TLB model."""

import pytest

from repro.common.errors import ConfigError
from repro.mem.tlb import TLB


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(entries=64, ways=4)
        assert not tlb.lookup(5)
        tlb.insert(5)
        assert tlb.lookup(5)

    def test_lru_eviction_within_set(self):
        tlb = TLB(entries=4, ways=4)   # one set
        for vpn in range(4):
            tlb.insert(vpn)
        tlb.lookup(0)                  # promote 0
        victim = tlb.insert(100)       # evicts LRU = 1
        assert victim == 1
        assert tlb.lookup(0)
        assert not tlb.lookup(1)

    def test_invalidate(self):
        tlb = TLB(entries=64, ways=4)
        tlb.insert(3)
        assert tlb.invalidate(3)
        assert not tlb.lookup(3)
        assert not tlb.invalidate(3)   # second time: not cached

    def test_flush(self):
        tlb = TLB(entries=64, ways=4)
        for vpn in range(10):
            tlb.insert(vpn)
        assert tlb.flush() == 10
        assert tlb.occupancy == 0

    def test_reinsert_does_not_duplicate(self):
        tlb = TLB(entries=64, ways=4)
        tlb.insert(5)
        tlb.insert(5)
        assert tlb.occupancy == 1

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError):
            TLB(entries=10, ways=3)

    def test_counters(self):
        tlb = TLB(entries=64, ways=4)
        tlb.lookup(1)
        tlb.insert(1)
        tlb.lookup(1)
        assert tlb.counters["misses"] == 1
        assert tlb.counters["hits"] == 1
        assert tlb.counters["fills"] == 1

