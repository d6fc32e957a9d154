"""The Dirty Data Tracker: Kona's view over the coherence bitmap.

With the hardware primitive available, tracking is free for the
application — the FPGA sets bitmap bits as writebacks flow past.  This
module wraps the bitmap with the amplification accounting the paper
reports.  The snapshot-diff emulation used without coherence events
(KTracker, paper section 5.1) lives in :mod:`repro.tools.ktracker`.
"""

from __future__ import annotations

from ..common import units
from ..common.stats import Counter
from ..fpga.bitmap import DirtyBitmap


class DirtyDataTracker:
    """Cache-line dirty tracking over the FPGA bitmap."""

    def __init__(self, bitmap: DirtyBitmap,
                 page_size: int = units.PAGE_4K) -> None:
        self.bitmap = bitmap
        self.page_size = page_size
        self.counters = Counter()

    # -- reporting ----------------------------------------------------------------

    def dirty_bytes_cacheline(self) -> int:
        """Dirty data at 64 B tracking granularity."""
        return self.bitmap.total_dirty_bytes()

    def dirty_bytes_page(self) -> int:
        """What page-granularity tracking would report for the same writes."""
        pages = sum(1 for _ in self.bitmap.dirty_pages())
        return pages * self.page_size

    def amplification_vs_page(self) -> float:
        """Page-tracking bytes over cache-line-tracking bytes.

        This is the per-window ratio Figure 9 plots (>= 1; equals 1 only
        when every dirty page is fully dirty).
        """
        cl = self.dirty_bytes_cacheline()
        if cl == 0:
            return float("nan")
        return self.dirty_bytes_page() / cl
