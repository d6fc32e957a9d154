"""Tests for the memnode-failover durability experiment (section 4.5).

The acceptance claim: a seeded campaign that kills a primary memory
node mid-run (and silently corrupts a survivor) completes with a final
remote-memory image **bit-identical** to a no-fault oracle run of the
same stream — replicated remote memory loses nothing.
"""

import numpy as np
import pytest

import repro.common.units as u
from repro.chaos import no_acknowledged_write_lost, no_scatter_loss, \
    writeback_conservation
from repro.experiments.failover import (
    FAILOVER_SLOS,
    build_failover_runtime,
    run_failover,
)

OPS = 6_000


@pytest.fixture(scope="module")
def failover_result():
    """One full campaign, shared by the read-only assertions."""
    return run_failover(seed=0, ops=OPS)


class TestDurabilityProof:
    def test_image_matches_oracle_bit_for_bit(self, failover_result):
        assert failover_result.image_matches
        assert failover_result.image_lines == failover_result.oracle_lines
        assert failover_result.image_lines > 0

    def test_all_invariants_hold(self, failover_result):
        failed = [c.name for c in failover_result.result.invariants
                  if not c.passed]
        assert failed == []
        names = {c.name for c in failover_result.result.invariants}
        assert {"durability_image_match", "no_faulted_accesses",
                "epochs_monotonic", "replication_restored",
                "no_unrepaired_corruption",
                "no_acknowledged_write_lost"} <= names

    def test_failover_actually_happened(self, failover_result):
        assert failover_result.failovers >= 1
        assert failover_result.promotions >= 1
        labels = [label for _, label in failover_result.result.timeline]
        assert any(label.startswith("kill:") for label in labels)

    def test_outage_invisible_to_the_application(self, failover_result):
        # A live backup exists for every slot, so no access ever faults.
        assert failover_result.result.faulted_accesses == 0

    def test_corruption_was_detected_and_repaired(self, failover_result):
        assert failover_result.scrub_repairs > 0
        labels = [label for _, label in failover_result.result.timeline]
        assert any(label.startswith("corrupt:") for label in labels)

    def test_mttr_includes_the_lease_fence(self, failover_result):
        # Promotion waits out the dead primary's lease; MTTR can't be
        # cheaper than the configured TTL.
        assert failover_result.mttr_ns >= 30_000.0
        assert failover_result.mttr_ns < 2_000_000.0

    def test_slo_recovery_rules_hold(self, failover_result):
        verdicts = failover_result.engine.verdicts()
        assert len(verdicts) == len(FAILOVER_SLOS)
        assert all(met for _, _, met in verdicts)
        assert failover_result.passed


class TestDeterminism:
    def test_same_seed_identical_fingerprints(self):
        a = run_failover(seed=5, ops=3_000)
        b = run_failover(seed=5, ops=3_000)
        assert a.fingerprint() == b.fingerprint()

    def test_different_seeds_differ(self):
        a = run_failover(seed=5, ops=3_000)
        b = run_failover(seed=6, ops=3_000)
        assert a.fingerprint() != b.fingerprint()


class TestParkFailoverDrainCycles:
    """Property-style: the pending-writeback park never duplicates or
    drops a record across repeated park/failover/drain cycles."""

    def _drive(self, rt, region, rng, ops):
        pages = region.size // u.PAGE_4K
        for _ in range(ops):
            page = int(rng.integers(0, pages))
            line = int(rng.integers(0, u.PAGE_4K // u.CACHE_LINE))
            addr = region.start + page * u.PAGE_4K + line * u.CACHE_LINE
            rt.access(addr, bool(rng.random() < 0.6))
            rt.fabric.clock.advance(rt.app_ns_per_access)
        rt.maybe_evict()

    def test_n_cycles_conserve_every_writeback(self):
        rt = build_failover_runtime(seed=9)
        region = rt.mmap(8 * u.MB)
        rng = np.random.default_rng(9)
        slot = rt.replication.slot_of(region.start)
        for cycle in range(4):
            self._drive(rt, region, rng, 1_200)
            victim = rt.replication.sets[slot].primary.node
            rt.controller.node(victim).fail()
            rt.on_memnode_failure(victim)
            self._drive(rt, region, rng, 600)      # write during outage
            rt.recover()
            rt.controller.node(victim).recover()
            for check in (writeback_conservation(rt), no_scatter_loss(rt),
                          no_acknowledged_write_lost(rt)):
                assert check.passed, f"cycle {cycle}: {check.detail}"
        rt.flush()
        rt.recover()
        assert rt.eviction.parked_records == 0
        assert rt.eviction.pending_records == 0
        assert rt.replication.epochs_monotonic()
        assert rt.replication.sets[slot].epoch == 4
        final = writeback_conservation(rt)
        assert final.passed, final.detail
        rt.close()


class TestRedirectedParks:
    """Writebacks parked for a primary that then fails over reach the
    promoted primary a ringful per flush: a flush larger than the ring
    fails, retries and parks again."""

    def test_a_park_larger_than_a_ring_is_redelivered(self):
        rt = build_failover_runtime(seed=3)
        region = rt.mmap(8 * u.MB)
        handler = rt.eviction
        primary = rt.replication.sets[
            rt.replication.slot_of(region.start)].primary.node
        ring = rt.controller.node(primary).log.capacity_records
        lines = ring + 500
        records = []
        for page in range(region.start, region.start + lines * u.CACHE_LINE,
                          u.PAGE_4K):
            count = min(lines - len(records), u.PAGE_4K // u.CACHE_LINE)
            for line in range(count):
                rt.content.record_write(page + line * u.CACHE_LINE)
            remote = rt.translation.resolve(page).remote_addr
            records += handler._records_for(page, (1 << count) - 1, remote)
        assert len(records) == lines
        handler.writeback_buffer.park(primary, records)
        delivered = handler.counters["records_delivered"]

        rt.controller.node(primary).fail()
        rt.on_memnode_failure(primary)

        assert handler.counters["records_delivered"] - delivered == lines
        assert handler.counters["lines_redelivered"] == lines
        assert handler.counters["flush_failures"] == 0
        assert handler.counters["flush_retries"] == 0
        assert handler.parked_records == 0
        assert all(rt.content.acknowledged.get(r.vfmem_addr) == 1
                   for r in records)
