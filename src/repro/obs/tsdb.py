"""An append-only time-series store over the sampler's gauge rows.

The flight recorder's :class:`~repro.obs.sampler.Sampler` snapshots
every numeric gauge on a fixed simulated-time cadence; this module
turns those rows into per-series point lists ordered by timestamp,
with inclusive range queries (what the SLO engine judges) and an
exact, tie-stable :meth:`TimeSeriesStore.merge` (what the fleet view
and sharded runs rely on).  The store is deliberately tiny — an
in-memory dict of ``(ts, value)`` lists — because campaigns are
bounded and deterministic; there is no eviction, no compaction, and
appends must be time-ordered per series (out-of-order appends raise,
preserving the invariant every query relies on).  Persistence is the
fleet artifact's job (:class:`~repro.obs.fleet.ComponentSnapshot`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from ..common.errors import ConfigError

#: One stored sample: (simulated-clock ns, value).
Point = Tuple[float, float]


class TimeSeriesStore:
    """Append-only in-memory series of (sim-time ns, value) points."""

    def __init__(self) -> None:
        self._series: Dict[str, List[Point]] = {}

    # -- ingest ------------------------------------------------------------------

    def append(self, ts: float, name: str, value: float) -> None:
        """Append one point; ``ts`` must not precede the series tail."""
        points = self._series.setdefault(name, [])
        if points and ts < points[-1][0]:
            raise ConfigError(
                f"out-of-order append to {name!r}: {ts} < {points[-1][0]}")
        points.append((ts, float(value)))

    def append_row(self, ts: float, row: Dict[str, float]) -> None:
        """Append one sampler row (every gauge at one timestamp)."""
        for name, value in row.items():
            self.append(ts, name, value)

    def merge(self, other: "TimeSeriesStore",
              base_ns: float = 0.0,
              prefix: Optional[str] = None) -> "TimeSeriesStore":
        """Fold another store's series into this one; returns self.

        ``base_ns`` realigns the other store's timeline: every one of
        its timestamps is shifted by ``base_ns`` before merging, which
        is the chunk-base realignment a streamed/sharded run needs
        when each chunk's store recorded time relative to its own
        start.  Per series, the two (individually time-ordered) point
        lists are interleaved by timestamp with ties keeping this
        store's points first — exactly the order a single store would
        have recorded, so merged and monolithic stores compare equal
        via :meth:`as_dict`.  The per-series monotonic-append
        invariant is preserved by construction.

        ``prefix`` renames every incoming series to
        ``f"{prefix}{name}"`` — the fleet view uses a component label
        prefix (``runtime:shard3/…``) to keep each producer's series
        distinct; leave it None for the exact cross-component merge.
        """
        if not isinstance(other, TimeSeriesStore):
            raise ConfigError(f"cannot merge TimeSeriesStore with "
                              f"{type(other).__name__}")
        for name, points in other._series.items():
            if prefix is not None:
                name = prefix + name
            shifted = ([(ts + base_ns, v) for ts, v in points]
                       if base_ns else list(points))
            mine = self._series.get(name)
            if not mine:
                self._series[name] = shifted
            elif not shifted or shifted[0][0] >= mine[-1][0]:
                mine.extend(shifted)
            else:
                merged: List[Point] = []
                i = j = 0
                while i < len(mine) and j < len(shifted):
                    if shifted[j][0] < mine[i][0]:
                        merged.append(shifted[j])
                        j += 1
                    else:
                        merged.append(mine[i])
                        i += 1
                merged.extend(mine[i:])
                merged.extend(shifted[j:])
                self._series[name] = merged
        return self

    # -- introspection ------------------------------------------------------------

    def names(self) -> List[str]:
        """All series names, sorted."""
        return sorted(self._series)

    def __len__(self) -> int:
        return sum(len(p) for p in self._series.values())

    def __contains__(self, name: str) -> bool:
        return name in self._series

    @property
    def span_ns(self) -> Tuple[float, float]:
        """(earliest, latest) timestamp across every series (0,0 empty)."""
        firsts = [p[0][0] for p in self._series.values() if p]
        lasts = [p[-1][0] for p in self._series.values() if p]
        if not firsts:
            return 0.0, 0.0
        return min(firsts), max(lasts)

    def as_dict(self) -> Dict[str, List[Point]]:
        """A deterministic copy of every series (for equality checks)."""
        return {name: list(self._series[name])
                for name in sorted(self._series)}

    # -- queries ------------------------------------------------------------------

    def series(self, name: str, start_ns: float = 0.0,
               end_ns: float = float("inf")) -> List[Point]:
        """Points of ``name`` with ``start_ns <= ts <= end_ns``."""
        points = self._series.get(name, [])
        if not points:
            return []
        ts = [p[0] for p in points]
        lo = bisect_left(ts, start_ns)
        hi = bisect_right(ts, end_ns)
        return points[lo:hi]
