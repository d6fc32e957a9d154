"""Tests for the FPGA reference architecture: bitmap, FMem, translation, agent."""

import pytest

import repro.common.units as u
from repro.cluster.memnode import MemoryNode
from repro.common.errors import AddressError, ConfigError, TranslationError
from repro.coherence.states import LineState
from repro.fpga.agent import AgentConfig, MemoryAgent
from repro.fpga.bitmap import DirtyBitmap
from repro.fpga.fmem import FMemCache
from repro.fpga.prefetcher import NextPagePrefetcher
from repro.fpga.translation import RemoteTranslationMap
from repro.mem.address import AddressRange
from repro.net.fabric import Fabric


class TestDirtyBitmap:
    def test_mark_and_count(self):
        b = DirtyBitmap()
        b.mark_line(0)
        b.mark_line(64)
        b.mark_line(64)    # idempotent
        assert b.dirty_line_count(0) == 2
        assert b.total_dirty_lines() == 2
        assert b.total_dirty_bytes() == 128

    def test_unaligned_rejected(self):
        with pytest.raises(AddressError):
            DirtyBitmap().mark_line(13)

    def test_dirty_lines_of(self):
        b = DirtyBitmap()
        b.mark_line(4096 + 128)
        assert b.dirty_lines_of(1) == [4096 + 128]

    def test_clear_page_returns_mask(self):
        b = DirtyBitmap()
        b.mark_line(0)
        b.mark_line(128)
        mask = b.clear_page(0)
        assert mask == 0b101
        assert b.page_mask(0) == 0

    def test_fully_dirty(self):
        b = DirtyBitmap()
        for i in range(64):
            b.mark_line(i * 64)
        assert b.is_fully_dirty(0)
        assert not b.is_fully_dirty(1)

    def test_segments(self):
        b = DirtyBitmap()
        for line in (0, 1, 2, 5, 9, 10):
            b.mark_line(line * 64)
        assert b.segments_of(0) == [(0, 3), (5, 1), (9, 2)]

    def test_dirty_pages_iteration(self):
        b = DirtyBitmap()
        b.mark_line(0)
        b.mark_line(3 * 4096)
        assert sorted(b.dirty_pages()) == [0, 3]


class TestFMemCache:
    def test_page_granularity(self):
        f = FMemCache(64 * u.KB)
        hit, _ = f.touch(0)
        assert not hit
        hit, _ = f.touch(4095)   # same page
        assert hit
        assert f.hit_ratio == 0.5

    def test_lookup_is_pure(self):
        f = FMemCache(64 * u.KB)
        assert not f.lookup(0)
        f.touch(0)
        assert f.lookup(0)

    def test_eviction_reports_victim_page(self):
        f = FMemCache(4 * u.PAGE_4K)   # one set of 4 pages
        for i in range(4):
            f.touch(i * u.PAGE_4K)
        _, victim = f.touch(4 * u.PAGE_4K)
        assert victim == 0
        assert f.counters["evictions"] == 1

    def test_hit_promotes_its_page(self):
        # FIFO order would push page 0 out next; the hit makes it the
        # most recent page, so the next fills take pages 1 and 2.
        f = FMemCache(4 * u.PAGE_4K)   # one set of 4 pages
        for i in range(4):
            f.touch(i * u.PAGE_4K)
        assert f.touch(0) == (True, None)
        assert f.touch(4 * u.PAGE_4K) == (False, u.PAGE_4K)
        assert f.touch(5 * u.PAGE_4K) == (False, 2 * u.PAGE_4K)
        assert f.lookup(0)

    def test_place_counts_nothing(self):
        f = FMemCache(4 * u.PAGE_4K)   # one set of 4 pages
        assert [f.place(tag) for tag in range(5)] == [
            (False, None), (False, None), (False, None), (False, None),
            (False, 0)]
        assert f.place(4) == (True, None)
        assert f.counters.as_dict() == {}
        assert f.occupancy == 4
        assert f.resident_pages() == [t * u.PAGE_4K for t in (1, 2, 3, 4)]

    def test_evict_lru_takes_one_page_per_set_per_pass(self):
        page = u.PAGE_4K
        f = FMemCache(2 * 4 * page)   # two sets of 4 pages
        # Set 0 holds pages 2, 4, 0 in LRU order (0 was promoted); set
        # 1 holds page 1.
        for tag in (0, 2, 4, 1, 0):
            f.touch(tag * page)
        # Pass one takes set 0's LRU page, then set 1's; pass two takes
        # set 0's next page, and the budget is spent.
        assert f.evict_lru(3) == [2 * page, 1 * page, 4 * page]
        assert f.occupancy == 1 and f.resident_pages() == [0]
        # A budget past the occupancy stops when FMem is empty.
        assert f.evict_lru(5) == [0]
        assert f.occupancy == 0
        assert f.counters["proactive_evictions"] == 4

    def test_drop(self):
        f = FMemCache(4 * u.PAGE_4K)   # one set of 4 pages
        for i in range(4):
            f.touch(i * u.PAGE_4K)
        assert f.drop(u.PAGE_4K)
        assert not f.lookup(u.PAGE_4K)
        assert not f.drop(u.PAGE_4K)
        assert f.occupancy == 3
        # The freed frame takes the next fill: no page is pushed out.
        assert f.touch(4 * u.PAGE_4K) == (False, None)
        assert f.occupancy == 4

    def test_capacity_rounds_to_power_of_two_sets(self):
        f = FMemCache(3 * 4 * u.PAGE_4K)    # 3 sets -> rounds down to 2
        assert f.num_frames == 8

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            FMemCache(u.PAGE_4K)


class TestRemoteTranslation:
    def _map_with_slab(self):
        fabric = Fabric()
        node = MemoryNode("m0", 64 * u.MB, fabric, slab_bytes=16 * u.MB)
        tmap = RemoteTranslationMap(vfmem_base=0, slab_bytes=16 * u.MB)
        slab = node.grant_slab()
        tmap.bind(0, slab)
        return tmap, slab, node

    def test_resolve_offsets(self):
        tmap, slab, _ = self._map_with_slab()
        loc = tmap.resolve(4096 + 64)
        assert loc.node == "m0"
        assert loc.remote_addr == slab.remote_range.start + 4096 + 64

    def test_unbound_address_rejected(self):
        tmap, _, _ = self._map_with_slab()
        with pytest.raises(TranslationError):
            tmap.resolve(20 * u.MB)

    def test_double_bind_rejected(self):
        tmap, _, node = self._map_with_slab()
        with pytest.raises(TranslationError):
            tmap.bind(0, node.grant_slab())

    def test_unaligned_bind_rejected(self):
        tmap, _, node = self._map_with_slab()
        with pytest.raises(TranslationError):
            tmap.bind(4096, node.grant_slab())

    def test_replicas(self):
        fabric = Fabric()
        n0 = MemoryNode("m0", 32 * u.MB, fabric, slab_bytes=16 * u.MB)
        n1 = MemoryNode("m1", 32 * u.MB, fabric, slab_bytes=16 * u.MB)
        tmap = RemoteTranslationMap(0, 16 * u.MB)
        tmap.bind(0, n0.grant_slab(), replicas=[n1.grant_slab()])
        locations = tmap.resolve_replicas(128)
        assert [loc.node for loc in locations] == ["m0", "m1"]

    def test_unbind(self):
        tmap, slab, _ = self._map_with_slab()
        primary, replicas = tmap.unbind(0)
        assert primary is slab
        assert replicas == []
        with pytest.raises(TranslationError):
            tmap.resolve(0)


class TestMemoryAgent:
    def _agent(self, fmem_capacity=16 * u.PAGE_4K, prefetcher=None,
               **agent_kwargs):
        vfmem = AddressRange(0, 16 * u.MB)
        fabric = Fabric()
        node = MemoryNode("m0", 64 * u.MB, fabric, slab_bytes=16 * u.MB)
        tmap = RemoteTranslationMap(0, 16 * u.MB)
        tmap.bind(0, node.grant_slab())
        fmem = FMemCache(fmem_capacity)
        config = AgentConfig(**agent_kwargs) if agent_kwargs else None
        return MemoryAgent(vfmem, fmem, tmap, config=config,
                           prefetcher=prefetcher)

    def test_fill_miss_fetches_remote(self):
        agent = self._agent()
        agent.directory.get_shared(0, 1)
        assert agent.counters["remote_fetches"] == 1
        assert agent.last_access_ns > agent.latency.fmem_ns

    def test_fill_hit_served_from_fmem(self):
        agent = self._agent()
        agent.directory.get_shared(0, 1)
        agent.directory.get_shared(64, 1)    # same page
        assert agent.counters["fmem_hits"] == 1
        assert agent.last_access_ns == agent.latency.fmem_ns

    def test_writeback_marks_bitmap(self):
        agent = self._agent()
        agent.directory.get_modified(0, 1)
        agent.directory.put_modified(0, 1)
        assert agent.bitmap.dirty_line_count(0) == 1
        assert agent.last_access_ns == 0.0   # off the critical path

    def test_eviction_sink_receives_dirty_mask(self):
        agent = self._agent(fmem_capacity=4 * u.PAGE_4K)   # one set
        evicted = []
        agent.on_page_eviction(lambda addr, mask: evicted.append((addr, mask)))
        agent.directory.get_modified(0, 1)
        agent.directory.put_modified(0, 1)
        for page in range(1, 5):      # overflow the set
            agent.directory.get_shared(page * u.PAGE_4K, 1)
        assert evicted == [(0, 0b1)]

    def test_snoop_on_eviction_captures_cached_dirty_lines(self):
        # A modified line still in the CPU cache when its page leaves
        # FMem must be snooped into the writeback (section 4.4).
        agent = self._agent(fmem_capacity=4 * u.PAGE_4K)
        dirty_lines = {0: True}
        agent.directory.register_agent(1, lambda a: dirty_lines.pop(a, False))
        evicted = []
        agent.on_page_eviction(lambda addr, mask: evicted.append((addr, mask)))
        agent.directory.get_modified(0, 1)   # CPU holds line 0 modified
        for page in range(1, 5):
            agent.directory.get_shared(page * u.PAGE_4K, 1)
        assert evicted and evicted[0][1] == 0b1

    def test_eager_upgrade_tracking(self):
        agent = self._agent(eager_upgrade_tracking=True)
        agent.directory.get_shared(0, 1)
        agent.directory.get_modified(0, 1)   # upgrade
        assert agent.bitmap.dirty_line_count(0) == 1

    def test_prefetch_next_page(self):
        agent = self._agent(prefetcher=NextPagePrefetcher())
        agent.directory.get_shared(0, 1)
        assert agent.counters["pages_prefetched"] == 1
        # The next page is now an FMem hit.
        agent.directory.get_shared(u.PAGE_4K, 1)
        assert agent.counters["fmem_hits"] == 1

    def test_fetch_block_configurable(self):
        agent = self._agent(fetch_block=1024)
        agent.directory.get_shared(0, 1)
        assert agent.account["fill_background"] > 0
