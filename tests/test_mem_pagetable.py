"""Tests for the page-table model."""

import pytest

import repro.common.units as u
from repro.common.errors import TranslationError
from repro.mem.pagetable import PageTable, Protection


class TestMapping:
    def test_map_translate(self):
        pt = PageTable()
        pt.map(vpn=5, pfn=9)
        paddr, fault = pt.translate(5 * 4096 + 123, is_write=False)
        assert fault is None
        assert paddr == 9 * 4096 + 123

    def test_unmapped_faults(self):
        pt = PageTable()
        _, fault = pt.translate(0, is_write=False)
        assert fault is not None and fault.missing

    def test_not_present_faults(self):
        pt = PageTable()
        pt.map(0, 0, present=False)
        _, fault = pt.translate(100, is_write=True)
        assert fault is not None and fault.missing

    def test_huge_page_size(self):
        pt = PageTable(page_size=u.PAGE_2M)
        pt.map(0, 0)
        paddr, fault = pt.translate(u.PAGE_2M - 1, is_write=False)
        assert fault is None
        assert paddr == u.PAGE_2M - 1


class TestProtection:
    def test_write_protect_faults_on_write_only(self):
        pt = PageTable()
        pt.map(0, 0, protection=Protection.READ)
        _, read_fault = pt.translate(0, is_write=False)
        assert read_fault is None
        _, write_fault = pt.translate(0, is_write=True)
        assert write_fault is not None
        assert write_fault.protection and not write_fault.missing

    def test_dirty_and_accessed_bits(self):
        pt = PageTable()
        pt.map(0, 0)
        pt.translate(0, is_write=True)
        entry = pt.entry(0)
        assert entry.dirty and entry.accessed


class TestWindows:
    def test_window_entries_are_built_on_first_use(self):
        pt = PageTable()
        pt.map_window(16, 8)
        pt.map_window(24, 8)
        assert pt.entry(15) is None and pt.entry(32) is None
        entry = pt.entry(31)
        assert entry.present and entry.pfn == 31
        pt.translate(31 * 4096, is_write=True)
        assert pt.entry(31) is entry and entry.dirty
        assert pt.counters["pte_installs"] == 16

    def test_recording_a_window_again_resets_its_pages(self):
        pt = PageTable()
        pt.map_window(0, 4)
        pt.mark_not_present(2)
        pt.map_window(0, 4)
        assert pt.entry(2).present

    def test_unmapping_a_window_drops_its_pages(self):
        pt = PageTable()
        pt.map_window(0, 4)
        pt.map_window(4, 4)
        pt.entry(2)
        pt.unmap_window(0, 4)
        assert pt.entry(2) is None and pt.entry(3) is None
        assert pt.entry(4).present
        assert pt.counters["pte_removals"] == 4
        with pytest.raises(TranslationError):
            pt.unmap_window(0, 4)

    def test_unmapped_page_cannot_be_degraded(self):
        pt = PageTable()
        pt.map_window(0, 4)
        with pytest.raises(TranslationError):
            pt.mark_not_present(4)


class TestPresence:
    def test_mark_not_present_then_present(self):
        pt = PageTable()
        pt.map(0, 0)
        pt.mark_not_present(0)
        _, fault = pt.translate(0, is_write=False)
        assert fault is not None and fault.missing
        pt.mark_present(0, pfn=2)
        paddr, fault = pt.translate(0, is_write=False)
        assert fault is None and paddr == 2 * 4096

    def test_mark_present_installs_if_missing(self):
        pt = PageTable()
        pt.mark_present(7, pfn=7)
        assert pt.entry(7) is not None


class TestFaultRaising:
    def test_counters_track_operations(self):
        pt = PageTable()
        pt.map(0, 0)
        pt.translate(0, is_write=False)
        pt.translate(99 * 4096, is_write=False)
        assert pt.counters["translations"] == 1
        assert pt.counters["faults_missing"] == 1
