"""RDMA fabric and the cache-line eviction log."""

from .fabric import Fabric, FaultEvent, FaultSchedule
from .ring import RECORD_BYTES, LogRecord, RingBufferLog

__all__ = [
    "Fabric",
    "FaultEvent",
    "FaultSchedule",
    "LogRecord",
    "RECORD_BYTES",
    "RingBufferLog",
]
