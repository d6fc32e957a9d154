"""Page tables and protection bits for the virtual-memory model.

The baselines (Infiniswap, LegoOS, Kona-VM) depend on virtual-memory
machinery: present bits for fetch-on-fault, write-protection for dirty
tracking, and PTE churn plus TLB shootdowns for eviction.  Kona instead
maps all remote data as *always present* in VFMem, so its page table is
set up once and never touched on the data path (paper section 4.4).

The model stores one :class:`PageTableEntry` per page installed with
:meth:`PageTable.map`.  A Kona VFMem window is recorded once, as a page
range (:meth:`PageTable.map_window`, dropped again with
:meth:`PageTable.unmap_window`); a window page's entry is built the
first time something asks for it.  Every operation is counted so cost
models can charge for PTE updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Flag, auto
from typing import Dict, List, Optional, Tuple

from ..common import units
from ..common.errors import TranslationError
from ..common.stats import Counter


class Protection(Flag):
    """Page protection bits."""

    NONE = 0
    READ = auto()
    WRITE = auto()
    READ_WRITE = READ | WRITE


@dataclass
class PageTableEntry:
    """One virtual-to-physical page mapping."""

    vpn: int                    # virtual page number
    pfn: int                    # physical frame number
    present: bool = True
    protection: Protection = Protection.READ_WRITE
    dirty: bool = False
    accessed: bool = False

    def allows(self, is_write: bool) -> bool:
        """Whether an access of the given kind is permitted."""
        needed = Protection.WRITE if is_write else Protection.READ
        return bool(self.protection & needed)


@dataclass(frozen=True)
class FaultInfo:
    """Describes why a virtual access faulted."""

    vpn: int
    is_write: bool
    missing: bool        # page not present (major-fault class)
    protection: bool     # present but protection violated (minor fault)


class PageTable:
    """A flat page table for one process address space.

    ``page_size`` is configurable so the huge-page experiments (Table 2's
    2 MB column) can reuse the same machinery.
    """

    def __init__(self, page_size: int = units.PAGE_4K) -> None:
        if page_size % units.PAGE_4K:
            raise TranslationError(f"page size {page_size} not 4 KiB aligned")
        self.page_size = page_size
        self._entries: Dict[int, PageTableEntry] = {}
        # Window records: [start, end) vpn ranges of identity-mapped,
        # present, read-write pages (see map_window).
        self._windows: List[Tuple[int, int]] = []
        self.counters = Counter()

    def vpn_of(self, vaddr: int) -> int:
        """Virtual page number containing ``vaddr``."""
        return vaddr // self.page_size

    def map(self, vpn: int, pfn: int, *, present: bool = True,
            protection: Protection = Protection.READ_WRITE) -> PageTableEntry:
        """Install a mapping, replacing any previous entry for ``vpn``."""
        entry = PageTableEntry(vpn=vpn, pfn=pfn, present=present,
                               protection=protection)
        self._entries[vpn] = entry
        self.counters.add("pte_installs")
        return entry

    def map_window(self, first: int, count: int) -> None:
        """Map ``count`` pages from vpn ``first`` identity, present and
        read-write, as one record.

        Counts as ``count`` installs and, like ``count`` :meth:`map`
        calls, replaces any entry already built in the range.
        """
        end = first + count
        for vpn in [v for v in self._entries if first <= v < end]:
            del self._entries[vpn]
        self._windows.append((first, end))
        self.counters.add("pte_installs", count)

    def unmap_window(self, first: int, count: int) -> None:
        """Drop the record :meth:`map_window` made for ``count`` pages
        from vpn ``first``, and every entry built in its range.

        Counts as ``count`` removals.  Raises if no such record exists.
        """
        end = first + count
        try:
            self._windows.remove((first, end))
        except ValueError:
            raise TranslationError(
                f"no window of {count} pages at vpn {first}") from None
        for vpn in [v for v in self._entries if first <= v < end]:
            del self._entries[vpn]
        self.counters.add("pte_removals", count)

    def entry(self, vpn: int) -> Optional[PageTableEntry]:
        """The entry for ``vpn``, or None if unmapped.

        A window page's entry is built on first use and kept, so its
        present, accessed and dirty bits persist like any other.
        """
        entry = self._entries.get(vpn)
        if entry is None and any(lo <= vpn < hi for lo, hi in self._windows):
            entry = self._entries[vpn] = PageTableEntry(vpn=vpn, pfn=vpn)
        return entry

    def mark_not_present(self, vpn: int) -> None:
        """Clear the present bit (page-based eviction)."""
        entry = self._require(vpn)
        entry.present = False
        self.counters.add("pte_present_clears")

    def mark_present(self, vpn: int, pfn: int) -> None:
        """Set the present bit after a fetch completes."""
        entry = self.entry(vpn)
        if entry is None:
            self.map(vpn, pfn)
        else:
            entry.present = True
            entry.pfn = pfn
        self.counters.add("pte_present_sets")

    def translate(self, vaddr: int, is_write: bool) -> Tuple[int, Optional[FaultInfo]]:
        """Translate an access; return (paddr, fault) where fault is None on success.

        On success the accessed/dirty bits are updated the way hardware
        page-table walkers do.
        """
        vpn = self.vpn_of(vaddr)
        entry = self.entry(vpn)
        if entry is None or not entry.present:
            self.counters.add("faults_missing")
            return 0, FaultInfo(vpn=vpn, is_write=is_write,
                                missing=True, protection=False)
        if not entry.allows(is_write):
            self.counters.add("faults_protection")
            return 0, FaultInfo(vpn=vpn, is_write=is_write,
                                missing=False, protection=True)
        entry.accessed = True
        if is_write:
            entry.dirty = True
        paddr = entry.pfn * self.page_size + vaddr % self.page_size
        self.counters.add("translations")
        return paddr, None

    def _require(self, vpn: int) -> PageTableEntry:
        entry = self.entry(vpn)
        if entry is None:
            raise TranslationError(f"vpn {vpn} is not mapped")
        return entry
