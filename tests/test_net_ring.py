"""Tests for the ring-buffer cache-line log."""

import pytest

import repro.common.units as u
from repro.common.errors import ConfigError, NetworkError
from repro.net.ring import RECORD_BYTES, LogRecord, RingBufferLog


class TestRing:
    def test_record_framing(self):
        # 8-byte destination + one cache line.
        assert RECORD_BYTES == 8 + u.CACHE_LINE

    def test_append_consume_order(self):
        ring = RingBufferLog(capacity_records=8)
        ring.append([LogRecord(100), LogRecord(200)])
        out = ring.consume()
        assert [r.remote_addr for r in out] == [100, 200]

    def test_overflow_rejected(self):
        ring = RingBufferLog(capacity_records=2)
        ring.append([LogRecord(0), LogRecord(64)])
        with pytest.raises(NetworkError):
            ring.append([LogRecord(128)])
        assert ring.counters["producer_stalls"] == 1

    def test_ack_frees_space(self):
        ring = RingBufferLog(capacity_records=2)
        ring.append([LogRecord(0), LogRecord(64)])
        ring.consume()
        assert ring.free_records == 0      # consumed but not acked
        freed = ring.acknowledge()
        assert freed == 2
        assert ring.free_records == 2
        ring.append([LogRecord(128)])      # fits again

    def test_partial_consume(self):
        ring = RingBufferLog(capacity_records=8)
        ring.append([LogRecord(i * 64) for i in range(5)])
        first = ring.consume(max_records=2)
        assert len(first) == 2
        assert len(ring) == 3
        rest = ring.consume()
        assert len(rest) == 3

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            RingBufferLog(capacity_records=0)

    def test_unacked_tracking(self):
        ring = RingBufferLog()
        ring.append([LogRecord(0)])
        ring.consume()
        assert ring.unacked_records == 1
        ring.acknowledge()
        assert ring.unacked_records == 0
