"""Tests for the Eviction Handler and Dirty Data Tracker."""

import numpy as np
import pytest

import repro.common.units as u
from repro.cluster.controller import RackController
from repro.cluster.memnode import MemoryNode
from repro.common.errors import NetworkError
from repro.fpga.bitmap import DirtyBitmap
from repro.fpga.translation import RemoteTranslationMap
from repro.kona.config import KonaConfig
from repro.kona.eviction import EvictionHandler
from repro.kona.tracker import DirtyDataTracker
from repro.net.fabric import Fabric
from repro.net.ring import RECORD_BYTES

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


class TestBatchedEviction:
    """One ``evict_pages`` call over N pages must leave exactly the
    state of N one-page calls on a twin handler: same per-page times
    to the bit, same stats, account, counters, pending log and park."""

    # A flush boundary every 40 records falls inside the batch many
    # times over.
    BATCH = 40 * 72

    @staticmethod
    def _twin(replicas, dead_primary):
        handler, controller = make_handler(replicas=replicas,
                                           batch=TestBatchedEviction.BATCH)
        if dead_primary:
            controller.node("m0").fail()
        return handler, controller

    @pytest.mark.parametrize("replicas,dead_primary", [
        (1, False), (1, True), (2, False), (2, True)],
        ids=["healthy", "dead-primary-parks", "replicas-2",
             "replicas-2-failover"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_call_equals_per_page_calls(self, replicas, dead_primary,
                                            seed):
        evictions = random_evictions(seed)
        batched, batched_rack = self._twin(replicas, dead_primary)
        single, single_rack = self._twin(replicas, dead_primary)
        got = batched.evict_pages([p for p, _ in evictions],
                                  [m for _, m in evictions])
        want = [single.evict_pages([page], [mask])[0]
                for page, mask in evictions]
        assert [t.hex() for t in got] == [t.hex() for t in want]
        assert (eviction_state(batched, batched_rack)
                == eviction_state(single, single_rack))
        assert batched.stats.clean_pages > 0
        assert batched.stats.full_page_writes > 0
        if dead_primary and replicas == 1:
            assert batched.parked_records > 0
        else:
            assert batched.counters["log_flushes"] > 1

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

