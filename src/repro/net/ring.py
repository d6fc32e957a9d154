"""A FaRM-style ring-buffer message log for cache-line eviction.

Kona aggregates dirty cache lines into a log and ships the log to the
memory node with large RDMA writes (paper section 4.4, "Evicting dirty
data").  Each log record carries the line's remote destination address
and its 64 bytes of payload; the receiver thread walks the log, scatters
lines to their homes, and acknowledges consumed space back to the
producer.

The ring models the flow-control behaviour that matters: the producer
blocks (or fails fast) when the consumer has not freed space, and
acknowledgments are batched.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from ..common import units
from ..common.errors import ConfigError, NetworkError
from ..common.stats import Counter


#: Bytes per log record: 8-byte destination address + one cache line.
RECORD_BYTES = 8 + units.CACHE_LINE


class LogRecord(NamedTuple):
    """One dirty cache line in flight (immutable and hashable).

    The replication layer stamps the optional fields: ``vfmem_addr``
    keys the line in the per-node content stores (−1 = legacy record,
    content plane off), ``version`` orders redeliveries
    (last-writer-wins), ``epoch`` fences writes issued under a deposed
    primary, and ``payload`` is the modeled 64-bit line content.
    """

    remote_addr: int
    vfmem_addr: int = -1
    version: int = 0
    epoch: int = 0
    payload: int = 0


class RingBufferLog:
    """Single-producer single-consumer byte ring with record framing."""

    def __init__(self, capacity_records: int = 8192) -> None:
        if capacity_records <= 0:
            raise ConfigError("ring capacity must be positive")
        self.capacity_records = capacity_records
        self._records: List[LogRecord] = []
        self._head = 0            # producer cursor (total records appended)
        self._tail = 0            # consumer cursor (total records consumed)
        self._acked = 0           # records acknowledged back to the producer
        self.counters = Counter()

    # -- producer side ------------------------------------------------------------

    @property
    def free_records(self) -> int:
        """Records the producer may append before blocking."""
        return self.capacity_records - (self._head - self._acked)

    def append(self, records: List[LogRecord]) -> None:
        """Append dirty-line records; raises if the ring is full."""
        if len(records) > self.free_records:
            self.counters.add("producer_stalls")
            raise NetworkError(
                f"ring full: need {len(records)}, free {self.free_records}")
        self._records.extend(records)
        self._head += len(records)
        self.counters.add("records_appended", len(records))

    # -- consumer side --------------------------------------------------------------

    def consume(self, max_records: Optional[int] = None) -> List[LogRecord]:
        """Receiver thread: take records in order for scattering."""
        available = self._head - self._tail
        take = available if max_records is None else min(available, max_records)
        out = self._records[:take]
        del self._records[:take]
        self._tail += take
        self.counters.add("records_consumed", take)
        return out

    def acknowledge(self) -> int:
        """Receiver acks all consumed space; returns records freed."""
        freed = self._tail - self._acked
        self._acked = self._tail
        if freed:
            self.counters.add("acks")
        return freed

    @property
    def unacked_records(self) -> int:
        """Consumed but not yet acknowledged records."""
        return self._tail - self._acked

    def __len__(self) -> int:
        return self._head - self._tail
