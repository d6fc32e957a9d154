"""Tests for the RDMA fabric model."""

import pytest

import repro.common.units as u
from repro.common.errors import ConfigError
from repro.net.fabric import Fabric, FaultSchedule


@pytest.fixture
def fabric():
    f = Fabric()
    f.add_node("compute")
    f.add_node("mem0")
    return f


class TestTopology:
    def test_add_and_has(self, fabric):
        assert fabric.has_node("compute")
        assert not fabric.has_node("ghost")

    def test_duplicate_node_rejected(self, fabric):
        with pytest.raises(ConfigError):
            fabric.add_node("compute")

    def test_unknown_node_rejected(self, fabric):
        with pytest.raises(ConfigError):
            fabric.fail_node("ghost")


class TestTransfers:
    def test_cost_matches_latency_model(self, fabric):
        cost = fabric.transfer_cost_ns("compute", "mem0", 4096,
                                       linked=True, signaled=False)
        expected = fabric.latency.rdma_transfer_ns(4096, linked=True,
                                                   signaled=False)
        assert cost == expected


class TestFailureInjection:
    def test_failed_node_unreachable(self, fabric):
        assert fabric.lossless()
        fabric.fail_node("mem0")
        assert fabric.is_down("mem0")
        assert not fabric.reachable("compute", "mem0")
        assert not fabric.reachable("mem0", "compute")
        assert not fabric.lossless()

    def test_recover(self, fabric):
        fabric.fail_node("mem0")
        fabric.recover_node("mem0")
        assert not fabric.is_down("mem0")
        assert fabric.reachable("compute", "mem0")
        assert fabric.lossless()

    def test_link_delay_adds_latency(self, fabric):
        base = fabric.transfer_cost_ns("compute", "mem0", 64)
        fabric.delay_link("compute", "mem0", 50_000)
        assert fabric.transfer_cost_ns("compute", "mem0", 64) == base + 50_000
        # The reverse direction is unaffected.
        assert fabric.transfer_cost_ns("mem0", "compute", 64) == base

    def test_negative_delay_rejected(self, fabric):
        with pytest.raises(ConfigError):
            fabric.delay_link("compute", "mem0", -5)

    def test_clear_delay_restores_baseline(self, fabric):
        base = fabric.transfer_cost_ns("compute", "mem0", 64)
        fabric.delay_link("compute", "mem0", 50_000)
        fabric.clear_delay("compute", "mem0")
        assert fabric.transfer_cost_ns("compute", "mem0", 64) == base

    def test_zero_delay_retracts_injection(self, fabric):
        base = fabric.transfer_cost_ns("compute", "mem0", 64)
        fabric.delay_link("compute", "mem0", 50_000)
        fabric.delay_link("compute", "mem0", 0)
        assert fabric.transfer_cost_ns("compute", "mem0", 64) == base


class TestFlakyLinks:
    def test_drops_are_seeded_and_charged(self, fabric):
        fabric.set_flaky("compute", "mem0", 0.5, seed=3)
        assert not fabric.lossless()
        # A flaky link stays reachable; each attempt draws its own drop.
        assert fabric.reachable("compute", "mem0")
        drops = sum(fabric.drops_transfer("compute", "mem0")
                    for _ in range(64))
        assert 0 < drops < 64
        assert fabric.counters["dropped_transfers"] == drops
        assert fabric.counters["failed_transfers"] == drops
        # The reverse direction is not flaky.
        assert not any(fabric.drops_transfer("mem0", "compute")
                       for _ in range(64))

    def test_same_seed_same_drop_pattern(self):
        def pattern(seed):
            f = Fabric()
            f.add_node("a")
            f.add_node("b")
            f.set_flaky("a", "b", 0.5, seed=seed)
            return [f.drops_transfer("a", "b") for _ in range(32)]

        assert pattern(9) == pattern(9)
        assert pattern(9) != pattern(10)

    def test_clear_flaky(self, fabric):
        fabric.set_flaky("compute", "mem0", 1.0, seed=0)
        assert fabric.drops_transfer("compute", "mem0")
        fabric.clear_flaky("compute", "mem0")
        assert not fabric.drops_transfer("compute", "mem0")
        assert fabric.counters["dropped_transfers"] == 1
        assert fabric.lossless()

    def test_bad_drop_rate_rejected(self, fabric):
        with pytest.raises(ConfigError):
            fabric.set_flaky("compute", "mem0", 1.5)


class TestPartition:
    def test_partition_blocks_both_directions(self, fabric):
        fabric.partition(["compute"], ["mem0"])
        assert fabric.is_partitioned("compute", "mem0")
        assert fabric.is_partitioned("mem0", "compute")
        assert not fabric.reachable("compute", "mem0")
        assert not fabric.reachable("mem0", "compute")
        assert not fabric.lossless()

    def test_heal_partition(self, fabric):
        fabric.partition(["compute"], ["mem0"])
        fabric.heal_partition()
        assert not fabric.is_partitioned("compute", "mem0")
        assert fabric.reachable("compute", "mem0")
        assert fabric.reachable("mem0", "compute")
        assert fabric.lossless()

    def test_overlapping_groups_rejected(self, fabric):
        with pytest.raises(ConfigError):
            fabric.partition(["compute", "mem0"], ["mem0"])


class TestFaultSchedule:
    def test_fires_in_timestamp_order(self):
        schedule = FaultSchedule()
        fired = []
        schedule.at(300, "late", lambda: fired.append("late"))
        schedule.at(100, "early", lambda: fired.append("early"))
        schedule.at(200, "mid", lambda: fired.append("mid"))
        labels = schedule.fire_due(250)
        assert labels == ["early", "mid"]
        assert fired == ["early", "mid"]
        assert schedule.pending == 1
        assert schedule.next_at() == 300

    def test_each_event_fires_once(self):
        schedule = FaultSchedule()
        hits = []
        schedule.at(50, "once", lambda: hits.append(1))
        schedule.fire_due(100)
        schedule.fire_due(200)
        assert hits == [1]
        assert schedule.fired == [(50, "once")]

    def test_ties_fire_in_registration_order(self):
        schedule = FaultSchedule()
        fired = []
        schedule.at(100, "first", lambda: fired.append("first"))
        schedule.at(100, "second", lambda: fired.append("second"))
        schedule.fire_due(100)
        assert fired == ["first", "second"]

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule().at(-1, "bad", lambda: None)
