"""Tests for KLib components: config, AllocLib, resource manager."""

import itertools

import numpy as np
import pytest

import repro.common.units as u
from repro.common.errors import AllocationError, ConfigError
from repro.cluster.controller import RackController
from repro.cluster.memnode import MemoryNode
from repro.fpga.translation import RemoteTranslationMap
from repro.kona.alloclib import AllocLib
from repro.kona.config import KonaConfig
from repro.kona.resource_manager import ResourceManager
from repro.mem.address import AddressRange
from repro.mem.pagetable import PageTable, Protection
from repro.net.fabric import Fabric


class TestKonaConfig:
    def test_defaults_valid(self):
        KonaConfig()

    def test_vfmem_smaller_than_fmem_rejected(self):
        with pytest.raises(ConfigError):
            KonaConfig(fmem_capacity=2 * u.GB, vfmem_capacity=1 * u.GB)

    def test_watermark_order_enforced(self):
        with pytest.raises(ConfigError):
            KonaConfig(evict_low_watermark=0.95, evict_high_watermark=0.5)

    def test_vfmem_slab_alignment_enforced(self):
        with pytest.raises(ConfigError):
            KonaConfig(vfmem_capacity=100 * u.MB, slab_bytes=64 * u.MB)

    def test_replication_at_least_one(self):
        with pytest.raises(ConfigError):
            KonaConfig(replication_factor=0)


def make_rm(replicas=1, nodes=2):
    config = KonaConfig(fmem_capacity=4 * u.MB, vfmem_capacity=64 * u.MB,
                        slab_bytes=16 * u.MB, slab_batch=1,
                        replication_factor=replicas)
    fabric = Fabric()
    controller = RackController()
    for i in range(nodes):
        controller.register_node(
            MemoryNode(f"m{i}", 64 * u.MB, fabric, slab_bytes=16 * u.MB))
    vfmem = AddressRange(0, config.vfmem_capacity)
    translation = RemoteTranslationMap(0, config.slab_bytes)
    pt = PageTable()
    rm = ResourceManager(config, controller, translation, vfmem, pt)
    return rm, translation, pt, controller


class TestResourceManager:
    def test_ensure_binds_slabs(self):
        rm, translation, _, _ = make_rm()
        rm.ensure(20 * u.MB)
        assert rm.bound_bytes == 32 * u.MB     # two 16 MB slabs
        assert translation.bound_slots == 2

    def test_ensure_is_idempotent(self):
        rm, _, _, _ = make_rm()
        rm.ensure(10 * u.MB)
        bound = rm.bound_bytes
        rm.ensure(10 * u.MB)
        assert rm.bound_bytes == bound

    def test_pages_mapped_present(self):
        # Paper 4.4: pages are marked present at allocation time — no
        # page faults ever on the data path.
        rm, _, pt, _ = make_rm()
        rm.ensure(1)
        vpn = 0
        entry = pt.entry(vpn)
        assert entry is not None and entry.present

    def test_each_window_maps_present_identity_pages(self):
        # Every page of every bound window reads present, identity-mapped
        # and read-write; the page past the last window is unmapped.
        rm, _, pt, _ = make_rm()
        rm.ensure(48 * u.MB)
        per_window = 16 * u.MB // pt.page_size
        for first in range(0, 3 * per_window, per_window):
            for vpn in (first, first + per_window - 1):
                entry = pt.entry(vpn)
                assert entry is not None and entry.present
                assert entry.pfn == vpn
                assert entry.protection == Protection.READ_WRITE
        assert pt.entry(3 * per_window) is None
        assert rm.counters["pages_mapped"] == 3 * per_window
        assert pt.counters["pte_installs"] == 3 * per_window

    def test_translate_on_window_page_sets_bits_without_fault(self):
        rm, _, pt, _ = make_rm()
        rm.ensure(1)
        vaddr = 5 * pt.page_size + 72
        paddr, fault = pt.translate(vaddr, is_write=True)
        assert fault is None and paddr == vaddr
        entry = pt.entry(5)
        assert entry.accessed and entry.dirty
        assert pt.counters["faults_missing"] == 0
        assert pt.counters["faults_protection"] == 0

    def test_vfmem_exhaustion(self):
        rm, _, _, _ = make_rm()
        with pytest.raises(AllocationError):
            rm.ensure(100 * u.MB)   # only 64 MB of VFMem

    def test_replication_allocates_on_distinct_nodes(self):
        rm, translation, _, _ = make_rm(replicas=2)
        rm.ensure(1)
        locations = translation.resolve_replicas(0)
        assert len(locations) == 2
        assert locations[0].node != locations[1].node

    def test_release_all(self):
        rm, translation, _, controller = make_rm()
        rm.ensure(32 * u.MB)
        free_before = controller.free_slab_count()
        rm.release_all()
        assert controller.free_slab_count() > free_before
        assert translation.bound_slots == 0
        assert rm.bound_bytes == 0


class TestAllocLib:
    def _alloc(self):
        rm, _, _, _ = make_rm()
        return AllocLib(rm)

    def test_malloc_returns_line_aligned(self):
        lib = self._alloc()
        addr = lib.malloc(100)
        assert addr % u.CACHE_LINE == 0
        assert lib.size_of(addr) == 128    # rounded to line multiple

    def test_distinct_allocations_dont_overlap(self):
        lib = self._alloc()
        a = lib.malloc(64)
        b = lib.malloc(64)
        assert abs(a - b) >= 64
        # Interleave mmap, malloc and free-then-reuse: every live range
        # stays disjoint from every other.
        rng = np.random.default_rng(5)
        live = [AddressRange(a, 64), AddressRange(b, 64)]
        for _ in range(300):
            op = rng.integers(3)
            if op == 0:
                live.append(lib.mmap(int(rng.integers(1, 3 * u.PAGE_4K))))
            elif op == 1:
                addr = lib.malloc(int(rng.choice([64, 100, 256, 4096])))
                live.append(AddressRange(addr, lib.size_of(addr)))
            elif live:
                lib.free(live.pop(rng.integers(len(live))).start)
        assert lib.counters["free_list_hits"] > 0
        assert lib.counters["mmaps"] > 0
        for x, y in itertools.combinations(live, 2):
            assert not x.overlaps(y), (x, y)

    def test_free_and_reuse(self):
        lib = self._alloc()
        a = lib.malloc(256)
        lib.free(a)
        b = lib.malloc(256)
        assert b == a                      # free list reuse
        assert lib.counters["free_list_hits"] == 1

    def test_double_free_rejected(self):
        lib = self._alloc()
        a = lib.malloc(64)
        lib.free(a)
        with pytest.raises(AllocationError):
            lib.free(a)

    def test_mmap_page_aligned(self):
        lib = self._alloc()
        region = lib.mmap(10_000)
        assert region.start % u.PAGE_4K == 0
        assert region.size == 12 * u.KB

    def test_allocation_triggers_slab_binding(self):
        lib = self._alloc()
        lib.mmap(20 * u.MB)
        assert lib.rm.bound_bytes >= 20 * u.MB

    def test_exhaustion(self):
        lib = self._alloc()
        with pytest.raises(AllocationError):
            lib.mmap(100 * u.MB)

    def test_live_bytes(self):
        lib = self._alloc()
        a = lib.malloc(128)
        lib.malloc(128)
        lib.free(a)
        assert lib.live_bytes == 128

    def test_owns(self):
        lib = self._alloc()
        a = lib.malloc(128)
        assert lib.owns(a + 100)
        assert not lib.owns(a + 128)

    def test_invalid_sizes_rejected(self):
        lib = self._alloc()
        with pytest.raises(ConfigError):
            lib.malloc(0)
        with pytest.raises(ConfigError):
            lib.mmap(-1)

