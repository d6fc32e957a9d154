"""Tests for the Eviction Handler and Dirty Data Tracker."""

import numpy as np
import pytest

import repro.common.units as u
from repro.cluster.controller import RackController
from repro.cluster.memnode import MemoryNode
from repro.cluster.replication import DataPlane
from repro.common.errors import NetworkError
from repro.common.retry import Retrier, RetryPolicy
from repro.fpga.bitmap import DirtyBitmap
from repro.fpga.translation import RemoteTranslationMap
from repro.kona.config import KonaConfig
from repro.kona.eviction import EvictionHandler
from repro.kona.tracker import DirtyDataTracker
from repro.net.fabric import Fabric
from repro.net.ring import RECORD_BYTES
from repro.obs.trace import Tracer

from .conftest import eviction_state


def make_handler(replicas=1, full_page_threshold=56, batch=64 * u.KB):
    config = KonaConfig(fmem_capacity=4 * u.MB, vfmem_capacity=64 * u.MB,
                        slab_bytes=16 * u.MB,
                        replication_factor=replicas,
                        rdma_batch_bytes=batch,
                        full_page_threshold=full_page_threshold)
    fabric = Fabric()
    controller = RackController()
    for i in range(2):
        controller.register_node(
            MemoryNode(f"m{i}", 64 * u.MB, fabric, slab_bytes=16 * u.MB))
    translation = RemoteTranslationMap(0, 16 * u.MB)
    slab = controller.node("m0").grant_slab()
    replicas_slabs = None
    if replicas > 1:
        replicas_slabs = [controller.node("m1").grant_slab()]
    translation.bind(0, slab, replicas=replicas_slabs)
    handler = EvictionHandler(config, translation, controller)
    return handler, controller


class TestEvictionHandler:
    def test_clean_page_is_silent(self):
        handler, _ = make_handler()
        assert handler.evict_page(0, 0) == 0.0
        assert handler.stats.clean_pages == 1
        assert handler.stats.wire_bytes == 0

    def test_dirty_lines_logged_not_whole_page(self):
        handler, _ = make_handler()
        handler.evict_page(0, 0b111)    # 3 dirty lines
        assert handler.stats.lines_logged == 3
        assert handler.stats.dirty_bytes == 3 * u.CACHE_LINE
        assert handler.stats.full_page_writes == 0

    def test_fully_dirty_page_ships_whole(self):
        handler, _ = make_handler()
        full = (1 << 64) - 1
        handler.evict_page(0, full)
        assert handler.stats.full_page_writes == 1
        assert handler.stats.wire_bytes == u.PAGE_4K

    def test_threshold_switches_strategy(self):
        handler, _ = make_handler(full_page_threshold=8)
        handler.evict_page(0, (1 << 8) - 1)    # exactly 8 lines
        assert handler.stats.full_page_writes == 1

    def test_batching_defers_rdma(self):
        handler, controller = make_handler()
        handler.evict_page(0, 0b1)
        assert handler.pending_records == 1
        assert handler.counters["log_flushes"] == 0
        handler.flush_all()
        assert handler.pending_records == 0
        assert handler.counters["log_flushes"] == 1

    def test_batch_flushes_automatically_when_full(self):
        handler, _ = make_handler(batch=10 * 72)
        for page in range(12):
            handler.evict_page(page * u.PAGE_4K, 0b1)
        assert handler.counters["log_flushes"] >= 1

    def test_records_reach_memory_node(self):
        handler, controller = make_handler()
        handler.evict_page(0, 0b11)
        handler.flush_all()
        assert handler.counters["records_delivered"] == 2

    def test_goodput_accounting(self):
        handler, _ = make_handler()
        handler.evict_page(0, 0b1111)
        handler.flush_all()
        assert handler.stats.goodput_bytes_per_s() > 0

    def test_replication_doubles_wire_bytes(self):
        single, _ = make_handler(replicas=1)
        double, _ = make_handler(replicas=2)
        single.evict_page(0, 0b1)
        single.flush_all()
        double.evict_page(0, 0b1)
        double.flush_all()
        assert double.stats.wire_bytes == 2 * single.stats.wire_bytes

    def test_dead_node_parks_instead_of_raising(self):
        # Durable eviction (section 4.5): a flush to a dead node must
        # requeue the records, not drop them on the floor.
        handler, controller = make_handler()
        handler.evict_page(0, 0b1)
        controller.node("m0").fail()
        handler.flush_all()
        assert handler.pending_records == 0
        assert handler.parked_records == 1
        assert handler.counters["lines_requeued"] == 1
        assert handler.counters["records_delivered"] == 0

    def test_parked_records_drain_on_recovery(self):
        handler, controller = make_handler()
        handler.evict_page(0, 0b11)
        controller.node("m0").fail()
        handler.flush_all()
        assert handler.parked_records == 2
        controller.node("m0").recover()
        handler.drain_recovered()
        assert handler.parked_records == 0
        assert handler.counters["lines_redelivered"] == 2
        assert handler.counters["records_delivered"] == 2

    def test_breakdown_buckets_present(self):
        handler, _ = make_handler()
        for page in range(64):
            handler.evict_page(page * u.PAGE_4K, 0b11111111)
        handler.flush_all()
        fractions = handler.stats.account.fractions()
        assert set(fractions) >= {"bitmap", "copy", "rdma_write", "ack_wait"}
        # Copy dominates, as in Figure 11c.
        assert fractions["copy"] == max(fractions.values())


def random_evictions(seed, n=160, threshold=56):
    """Seeded ``(page_addr, mask)`` pairs over distinct pages of the
    handler's bound window: clean pages, sparse masks, mid-density
    masks and masks at or above ``threshold`` (whole-page writes)."""
    rng = np.random.default_rng(seed)
    pages = rng.choice(16 * u.MB // u.PAGE_4K, size=n, replace=False)
    out = []
    for page in pages.tolist():
        lines = (0, int(rng.integers(1, 4)), int(rng.integers(4, threshold)),
                 int(rng.integers(threshold, 65)))[int(rng.integers(4))]
        mask = 0
        for bit in rng.choice(64, size=lines, replace=False).tolist():
            mask |= 1 << bit
        out.append((page * u.PAGE_4K, mask))
    return out


def flush_boundary_evictions(seed, batch_records):
    """One-line pages up to one record short of a log flush, a whole
    page, the page whose line triggers the flush, another whole page,
    then more one-line pages and two clean pages."""
    rng = np.random.default_rng(seed)
    pages = rng.choice(16 * u.MB // u.PAGE_4K, size=batch_records + 20,
                       replace=False) * u.PAGE_4K
    full = (1 << 64) - 1
    masks = [1 << int(bit) for bit in rng.integers(0, 64, pages.size)]
    masks[batch_records - 1] = masks[batch_records + 1] = full
    masks[-2:] = [0, 0]
    return list(zip(pages.tolist(), masks))


class TestBatchedEviction:
    """One ``evict_pages`` call over N pages must leave exactly the
    state of N one-page calls on a twin handler: same per-page times
    to the bit, same stats, account, counters, pending log and park,
    and in each shape's extra state (the fabric's counters, the data
    plane's stores and ledger, the tracer's events) the same again."""

    # A flush boundary every 40 records falls inside the batch many
    # times over.
    BATCH = 40 * 72

    #: Each shape's twin: replicas, a failed node, a node cut off from
    #: the compute node, a flaky link under a retrier, a data plane, a
    #: live tracer, and which evictions go in.
    SHAPES = {
        "healthy": {},
        "dead-primary-parks": {"dead": "m0"},
        "replicas-2": {"replicas": 2},
        "replicas-2-failover": {"replicas": 2, "dead": "m0"},
        "partitioned-parks": {"partitioned": "m0"},
        "flaky-retries-then-parks": {"flaky": "m0"},
        "data-plane": {"data_plane": True},
        "traced": {"traced": True},
        "whole-pages-around-a-flush": {"around_flush": True},
    }

    @staticmethod
    def _twin(evictions, replicas=1, dead=None, partitioned=None,
              flaky=None, data_plane=False, traced=False, **_):
        handler, controller = make_handler(replicas=replicas,
                                           batch=TestBatchedEviction.BATCH)
        if dead:
            controller.node(dead).fail()
        if partitioned or flaky:
            handler.fabric = controller.node("m0").fabric
            handler.fabric.add_node("compute")
        if partitioned:
            handler.fabric.partition(["compute"], [partitioned])
        if flaky:
            handler.fabric.set_flaky("compute", flaky, 0.6, seed=3)
            handler.retrier = Retrier(
                RetryPolicy(max_attempts=2, base_backoff_ns=100.0), seed=5)
        if data_plane:
            handler.content = DataPlane()
            for page, mask in evictions:
                for line in range(64):
                    for _ in range((mask >> line & 1) * (1 + line % 2)):
                        handler.content.record_write(page + 64 * line)
        if traced:
            handler.tracer = Tracer(enabled=True)
        return handler, controller

    @staticmethod
    def _state(handler, controller):
        state = eviction_state(handler, controller)
        state["records"] = (handler._pending,
                            handler.writeback_buffer._parked)
        state["stores"] = [controller.node(name).store._lines
                           for name in controller.nodes]
        state["acked"] = (handler.content.acknowledged
                          if handler.content is not None else None)
        state["events"] = (handler.tracer.events
                           if handler.tracer is not None else None)
        state["fabric"] = (handler.fabric.counters.as_dict()
                           if handler.fabric is not None else None)
        return state

    @pytest.mark.parametrize("shape", list(SHAPES), ids=list(SHAPES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_call_equals_per_page_calls(self, shape, seed):
        opts = self.SHAPES[shape]
        evictions = (flush_boundary_evictions(seed, self.BATCH // 72)
                     if opts.get("around_flush") else random_evictions(seed))
        batched, batched_rack = self._twin(evictions, **opts)
        single, single_rack = self._twin(evictions, **opts)
        got = batched.evict_pages([p for p, _ in evictions],
                                  [m for _, m in evictions])
        want = [single.evict_pages([page], [mask])[0]
                for page, mask in evictions]
        assert [t.hex() for t in got] == [t.hex() for t in want]
        assert (self._state(batched, batched_rack)
                == self._state(single, single_rack))
        stats, counters = batched.stats, batched.counters
        assert stats.clean_pages > 0
        if opts.get("around_flush"):
            assert stats.full_page_writes == 2
            assert counters["log_flushes"] == 1
        else:
            assert stats.full_page_writes > 0
        if "dead" in opts and opts.get("replicas", 1) == 1 \
                or "partitioned" in opts:
            assert batched.parked_records > 0
            assert counters["log_flushes"] == 0
        elif "flaky" in opts:
            assert counters["flush_retries"] > 0
            assert counters["flush_failures"] > 0
            assert batched.parked_records > 0
            assert counters["log_flushes"] > 1
        elif not opts.get("around_flush"):
            assert counters["log_flushes"] > 1
        if "dead" in opts and opts.get("replicas") == 2:
            assert counters["eviction_failovers"] > 0
        if opts.get("data_plane"):
            # Stamped records reached the store, and so did the
            # written lines of every page shipped whole.
            store = batched_rack.node("m0").store
            assert len(store) > 0
            for page, mask in evictions:
                if mask.bit_count() >= 56:
                    assert all(store.get(page + 64 * line) is not None
                               for line in range(64) if mask >> line & 1)
        if opts.get("traced"):
            pages = [e for e in batched.tracer.events
                     if e["name"] == "evict.page"]
            assert len(pages) == sum(1 for _, m in evictions if m)

    def test_defer_proof(self):
        from repro.kona.runtime import KonaRuntime

        def runtime(**overrides):
            return KonaRuntime(KonaConfig(fmem_capacity=4 * u.MB,
                                          vfmem_capacity=64 * u.MB,
                                          slab_bytes=16 * u.MB, **overrides))

        rt = runtime()
        fabric = rt.fabric
        faults = [
            (lambda: fabric.fail_node("mem0"),
             lambda: fabric.recover_node("mem0")),
            (lambda: rt.controller.node("mem1").fail(),
             lambda: rt.controller.node("mem1").recover()),
            (lambda: fabric.partition(["compute"], ["mem1"]),
             fabric.heal_partition),
            (lambda: fabric.set_flaky("compute", "mem0", 0.5),
             lambda: fabric.clear_flaky("compute", "mem0")),
        ]
        assert rt.eviction.can_defer()
        for inject, heal in faults:
            inject()
            assert not rt.eviction.can_defer()
            heal()
            assert rt.eviction.can_defer()
        # A slow link delays transfers but never fails one; evictions
        # may still wait.
        fabric.delay_link("compute", "mem0", 500.0)
        assert rt.eviction.can_defer()
        rt.attach_data_plane()
        assert not rt.eviction.can_defer()
        assert not runtime(replication_factor=2).eviction.can_defer()
        # The largest flush (the batch threshold plus one page's
        # lines) must fit every memory node's ring.
        ring = rt.controller.node("mem0").log.capacity_records
        fits = (ring - u.LINES_PER_PAGE) * RECORD_BYTES
        assert runtime(rdma_batch_bytes=fits).eviction.can_defer()
        assert not runtime(
            rdma_batch_bytes=fits + RECORD_BYTES).eviction.can_defer()


class TestDirtyDataTracker:
    def test_amplification_vs_page(self):
        bitmap = DirtyBitmap()
        tracker = DirtyDataTracker(bitmap)
        bitmap.mark_line(0)           # 1 line in page 0
        bitmap.mark_line(4096)        # 1 line in page 1
        # Page tracking would ship 2 pages; CL tracking ships 2 lines.
        assert tracker.dirty_bytes_page() == 2 * u.PAGE_4K
        assert tracker.dirty_bytes_cacheline() == 2 * u.CACHE_LINE
        assert tracker.amplification_vs_page() == pytest.approx(64.0)

    def test_no_writes_is_nan(self):
        tracker = DirtyDataTracker(DirtyBitmap())
        assert np.isnan(tracker.amplification_vs_page())

