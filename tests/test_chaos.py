"""Tests for the chaos engine: campaigns, invariants, determinism."""

import pytest

import repro.common.units as u
from repro.chaos import ChaosEngine, check_all
from repro.chaos.invariants import amat_recovered
from repro.experiments.chaos import (
    REGION_BYTES,
    build_chaos_runtime,
    chaos_stream,
    run_chaos,
)
from repro.kona.health import HealthState

CAMPAIGN_OPS = 9_000


@pytest.fixture(scope="module")
def campaign():
    """One full node-failure campaign, shared across assertions."""
    return run_chaos(seed=0, ops=CAMPAIGN_OPS).result


class TestNodeFailureCampaign:
    def test_all_invariants_hold(self, campaign):
        assert campaign.passed, [c.detail for c in campaign.invariants
                                 if not c.passed]

    def test_fault_degraded_the_runtime(self, campaign):
        health = campaign.telemetry.data["health"]
        assert health["degradations"] >= 1
        assert health["recoveries"] >= 1
        assert health["state"] == "HEALTHY"
        assert health["mttr_ns"] > 0

    def test_dirty_lines_requeued_and_redelivered(self, campaign):
        health = campaign.telemetry.data["health"]
        # The kill landed mid-eviction: dirty lines homed on the dead
        # node parked instead of vanishing, then drained on recovery.
        assert health["lines_requeued"] > 0
        assert health["lines_redelivered"] == health["lines_requeued"]
        assert health["parked_records"] == 0

    def test_timeline_records_the_script(self, campaign):
        labels = [label for _, label in campaign.timeline]
        assert any(label.startswith("kill:") for label in labels)
        assert any(label.startswith("recover:") for label in labels)
        assert "runtime_recovered" in labels

    def test_amat_returns_to_baseline(self, campaign):
        assert campaign.pre_fault_amat_ns > 0
        ratio = campaign.post_recovery_amat_ns / campaign.pre_fault_amat_ns
        assert ratio <= 1.35


class TestDeterminism:
    """Satellite: same seed -> byte-identical telemetry; seeds vary."""

    def test_same_seed_identical_fingerprint(self):
        first = run_chaos(seed=3, ops=CAMPAIGN_OPS)
        second = run_chaos(seed=3, ops=CAMPAIGN_OPS)
        assert first.fingerprint() == second.fingerprint()

    def test_different_seeds_differ(self):
        first = run_chaos(seed=3, ops=CAMPAIGN_OPS)
        other = run_chaos(seed=4, ops=CAMPAIGN_OPS)
        assert first.fingerprint() != other.fingerprint()


class TestFlakyLinkCampaign:
    def test_retries_recover_without_data_loss(self):
        rt = build_chaos_runtime(seed=1)
        region = rt.mmap(REGION_BYTES)
        addrs, writes = chaos_stream(region.start, 8_000, seed=1)
        engine = ChaosEngine(rt, seed=1)
        engine.flaky_link(100_000.0, "compute", "mem0", 0.8)
        engine.pressure(150_000.0, pages=rt.fmem.num_frames // 2)
        engine.pressure(250_000.0, pages=rt.fmem.num_frames // 2)
        engine.clear_flaky(450_000.0, "compute", "mem0")
        result = engine.run(addrs, writes)
        assert result.passed, [c.detail for c in result.invariants
                               if not c.passed]
        # Dropped flushes were retried on the seeded backoff path.
        assert rt.eviction.counters["flush_retries"] > 0
        assert rt.fabric.counters["dropped_transfers"] > 0
        assert rt.eviction.stats.account["retry_backoff"] > 0


class TestPartitionCampaign:
    def test_partition_parks_then_drains(self):
        rt = build_chaos_runtime(seed=2)
        region = rt.mmap(REGION_BYTES)
        addrs, writes = chaos_stream(region.start, 8_000, seed=2)
        engine = ChaosEngine(rt, seed=2)
        engine.partition(120_000.0, ["compute"], ["mem0"])
        engine.pressure(200_000.0, pages=rt.fmem.num_frames // 2)
        engine.heal_partition(350_000.0)
        result = engine.run(addrs, writes)
        assert result.passed, [c.detail for c in result.invariants
                               if not c.passed]
        assert rt.eviction.counters["lines_requeued"] > 0
        assert rt.eviction.parked_records == 0


class TestBackpressure:
    def test_overflow_charges_stall_but_loses_nothing(self):
        rt = build_chaos_runtime(seed=0)
        # Shrink the park so the outage overflows it immediately.
        rt.eviction.writeback_buffer.capacity = 64
        region = rt.mmap(REGION_BYTES)
        addrs, writes = chaos_stream(region.start, 8_000, seed=0)
        engine = ChaosEngine(rt, seed=0)
        engine.kill_node(100_000.0, "mem0")
        engine.pressure(200_000.0, pages=rt.fmem.num_frames // 2)
        engine.recover_node(400_000.0, "mem0")
        result = engine.run(addrs, writes)
        ev = rt.eviction
        assert ev.counters["backpressure_stalls"] > 0
        assert ev.stats.account["backpressure_stall"] > 0
        # Overflow throttles the producer; it never drops records.
        assert result.passed, [c.detail for c in result.invariants
                               if not c.passed]


class TestInvariantChecks:
    def test_amat_recovered_tolerance(self):
        assert amat_recovered(100.0, 120.0, tolerance=0.25).passed
        assert not amat_recovered(100.0, 130.0, tolerance=0.25).passed

    def test_amat_without_baseline_fails(self):
        check = amat_recovered(0.0, 50.0)
        assert not check.passed
        assert "baseline" in check.detail

    def test_check_all_on_quiet_runtime(self):
        rt = build_chaos_runtime(seed=0)
        checks = check_all(rt, pre_fault_amat_ns=100.0,
                           post_recovery_amat_ns=100.0)
        assert [c.name for c in checks] == [
            "writeback_conservation", "no_scatter_loss",
            "fully_recovered", "amat_recovered"]
        assert all(c.passed for c in checks)
        assert rt.health.state is HealthState.HEALTHY
