"""Memory substrate: addresses, page tables, TLBs."""

from .address import (
    AddressRange,
    align_down,
    align_up,
    is_power_of_two,
    line_in_page,
    line_index,
    line_indices,
    page_index,
    page_indices,
    word_indices,
)
from .pagetable import (
    FaultInfo,
    PageTable,
    PageTableEntry,
    Protection,
)
from .tlb import TLB

__all__ = [
    "AddressRange",
    "FaultInfo",
    "PageTable",
    "PageTableEntry",
    "Protection",
    "TLB",
    "align_down",
    "align_up",
    "is_power_of_two",
    "line_in_page",
    "line_index",
    "line_indices",
    "page_index",
    "page_indices",
    "word_indices",
]
