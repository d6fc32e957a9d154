"""Tests for the prefetch policies and their agent integration."""

import pytest

import repro.common.units as u
from repro.cluster.memnode import MemoryNode
from repro.common.errors import ConfigError
from repro.fpga.agent import MemoryAgent
from repro.fpga.fmem import FMemCache
from repro.fpga.prefetcher import (
    LeapPrefetcher,
    NextPagePrefetcher,
    NoPrefetcher,
    StridePrefetcher,
    make_prefetcher,
)
from repro.fpga.translation import RemoteTranslationMap
from repro.mem.address import AddressRange
from repro.net.fabric import Fabric


class TestNextPage:
    def test_prefetches_successor(self):
        p = NextPagePrefetcher()
        assert p.on_access(10) == [11]

    def test_repeat_access_silent(self):
        p = NextPagePrefetcher()
        p.on_access(10)
        assert p.on_access(10) == []

    def test_depth(self):
        p = NextPagePrefetcher(depth=3)
        assert p.on_access(5) == [6, 7, 8]


class TestStride:
    def test_detects_constant_stride(self):
        p = StridePrefetcher(depth=2, confirm=2)
        assert p.on_access(0) == []
        assert p.on_access(4) == []          # first delta: unconfirmed
        assert p.on_access(8) == [12, 16]    # confirmed stride of 4

    def test_resets_on_break(self):
        p = StridePrefetcher(depth=1, confirm=2)
        for page in (0, 4, 8):
            p.on_access(page)
        assert p.on_access(100) == []        # trend broken

    def test_negative_stride(self):
        p = StridePrefetcher(depth=1, confirm=2)
        p.on_access(100)
        p.on_access(90)
        assert p.on_access(80) == [70]


class TestLeap:
    def test_majority_trend_survives_noise(self):
        p = LeapPrefetcher(window=5, max_depth=4)
        # Establish a +1 trend with one outlier inside the window.
        for page in (0, 1, 2, 50, 51):
            p.on_access(page)
        # Deltas: [1, 1, 48, 1] -> majority is +1.
        out = p.on_access(52)
        assert out and all(page > 52 for page in out)
        assert out[0] == 53

    def test_depth_grows_with_confidence(self):
        p = LeapPrefetcher(window=4, max_depth=8)
        sizes = []
        for page in range(1, 10):
            sizes.append(len(p.on_access(page)))
        assert sizes[-1] > sizes[1]          # window expanded

    def test_no_majority_no_prefetch(self):
        p = LeapPrefetcher(window=4)
        for page in (0, 10, 3, 77, 21):      # chaotic deltas
            out = p.on_access(page)
        assert out == []

    def test_factory(self):
        assert isinstance(make_prefetcher("leap"), LeapPrefetcher)
        assert isinstance(make_prefetcher("none"), NoPrefetcher)
        with pytest.raises(ConfigError):
            make_prefetcher("psychic")


class TestAgentIntegration:
    def _agent(self, prefetcher):
        vfmem = AddressRange(0, 16 * u.MB)
        fabric = Fabric()
        node = MemoryNode("m0", 64 * u.MB, fabric, slab_bytes=16 * u.MB)
        tmap = RemoteTranslationMap(0, 16 * u.MB)
        tmap.bind(0, node.grant_slab())
        return MemoryAgent(vfmem, FMemCache(4 * u.MB), tmap,
                           prefetcher=prefetcher)

    def test_stride_prefetcher_covers_strided_scan(self):
        agent = self._agent(StridePrefetcher(depth=2, confirm=2))
        misses = 0
        for i in range(0, 64):
            page_addr = i * 2 * u.PAGE_4K      # stride-2 page scan
            before = agent.counters["remote_fetches"]
            agent.directory.get_shared(page_addr, 1)
            misses += agent.counters["remote_fetches"] - before
        # After stride confirmation, almost everything is prefetched.
        assert misses < 12
        assert agent.counters["pages_prefetched"] > 40

    def test_leap_prefetcher_on_sequential(self):
        agent = self._agent(LeapPrefetcher())
        for i in range(64):
            agent.directory.get_shared(i * u.PAGE_4K, 1)
        assert agent.counters["pages_prefetched"] > 30
