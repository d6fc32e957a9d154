"""Tests for the runtime timing harness and the perf gate.

``measure_variants`` times the scalar, batched, capture-on and
fleet-on variants of one case in one interleaved schedule; these tests
drive it on a small warmed hot-mix case and pin what it refuses to
time (a perturbed simulation, a capture that misses a fault) and what
``check_speedup`` refuses to pass.
"""

import copy
import statistics
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.experiments import bench
from repro.experiments.bench import (
    BATCHED,
    CAPTURE,
    FLEET,
    MAX_OVERHEAD,
    RUNTIME_CANONICAL_CASE,
    RUNTIME_EXTRA_CASES,
    RUNTIME_FLOORS,
    RUNTIME_QUICK_CASES,
    SCALAR,
    Run,
    RuntimeBenchCase,
    Variant,
    _build_runtime,
    _overhead_result,
    check_speedup,
    measure_variants,
    run_runtime_bench,
)

#: A warmed hot-mix case small enough to replay in milliseconds; its
#: label is display only, so floors key on the unlabelled case.
SMALL = RuntimeBenchCase("hot-mix", 20_000, hot_lines=2048,
                         label="hot-mix-small")
SMALL_KEY = replace(SMALL, label=None)
ONCE = {"scalar": 1, "batched": 1, "capture": 1, "fleet": 1}


@pytest.fixture(scope="module")
def payload():
    """The runtime report on SMALL, one run per variant (the repeat
    counts change timing only)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "CANONICAL_RUNS", ONCE)
        return run_runtime_bench(quick=True, cases=[SMALL])


def gated(payload, speedup=2.0, capture=1.0, fleet=1.0):
    """The measured payload with its gated numbers pinned."""
    out = copy.deepcopy(payload)
    out["cases"][0]["speedup"] = out["canonical_speedup"] = speedup
    out["capture"]["overhead"] = capture
    out["fleet"]["overhead"] = fleet
    return out


def leaky(rt):
    """Causal capture with a coverage hole: odd access ordinals drop."""
    cap = rt.attach_causal_capture()
    record = cap.record
    cap.record = lambda seq, *rest: None if seq % 2 else record(seq, *rest)
    return cap


class TestMeasureVariants:
    def test_every_variant_has_one_fingerprint(self):
        best = measure_variants(SMALL, (SCALAR, BATCHED, CAPTURE, FLEET),
                                ONCE)
        fingerprints = [run.fingerprint for run in best.values()]
        assert len(fingerprints) == 4
        assert all(fp == fingerprints[0] for fp in fingerprints)
        assert best["fleet"].extra["snapshot_seconds"] > 0
        assert best["capture"].extra["log"].n \
            == fingerprints[0]["runtime"]["cache_misses"]

    def test_each_variant_keeps_its_rounds_in_order(self):
        runs = {"batched": 3, "capture": 2}
        best = measure_variants(SMALL, (BATCHED, CAPTURE), runs)
        for name, count in runs.items():
            assert len(best[name].rounds) == count
            assert best[name].seconds == min(best[name].rounds)

    def test_perturbing_variant_raises_naming_sections(self):
        slower_app = Variant(
            "slower-app",
            setup=lambda rt: setattr(rt, "app_ns_per_access", 71.0))
        with pytest.raises(SimulationError) as err:
            measure_variants(SMALL, (BATCHED, slower_app),
                             {"batched": 1, "slower-app": 1})
        msg = str(err.value)
        assert "slower-app diverged from batched" in msg
        assert "'elapsed_ns'" in msg and "'account'" in msg
        # Sections the perturbation leaves alone are not named.
        assert "'bitmap'" not in msg and "'directory'" not in msg

    @pytest.mark.parametrize("fleet", [False, True])
    def test_capture_with_a_coverage_hole_raises(self, fleet):
        holed = Variant("holed", setup=leaky, fleet=fleet)
        with pytest.raises(SimulationError, match="holed coverage hole"):
            measure_variants(SMALL, (holed,), {"holed": 1})


class TestRuntimeReport:
    def test_warmed_case_reports_its_timed_replay(self, payload):
        """Counters are deltas across the timed replay, not the
        runtime's totals, which include the warm-up sweep."""
        warm_addrs, warm_writes, addrs, writes, mem_bytes = SMALL.trace()
        rt = _build_runtime(SMALL)
        base = np.int64(rt.mmap(mem_bytes).start)
        rt.run_trace(warm_addrs + base, warm_writes)
        misses = rt.counters["cache_misses"]
        fetches = rt.agent.counters["remote_fetches"]
        rt.run_trace(addrs + base, writes)
        case = payload["cases"][0]
        assert case["warmup_accesses"] == SMALL.hot_lines
        assert case["cache_misses"] == rt.counters["cache_misses"] - misses
        assert case["remote_fetches"] \
            == rt.agent.counters["remote_fetches"] - fetches
        assert 0 < case["cache_misses"] < rt.counters["cache_misses"]
        hits = SMALL.num_accesses - case["cache_misses"]
        assert case["cpu_hit_ratio"] == round(hits / SMALL.num_accesses, 4)

    def test_capture_and_fleet_sections_cover_every_miss(self, payload):
        case = payload["cases"][0]
        every_miss = case["warmup_accesses"] + case["cache_misses"]
        for name in ("capture", "fleet"):
            section = payload[name]
            assert section["workload"] == "hot-mix-small"
            assert section["fault_records"] == every_miss
            # One round each: the median of one paired ratio.
            assert section["overhead"] == pytest.approx(
                section["on_seconds"] / section["off_seconds"])
        assert payload["fleet"]["snapshot_seconds"] > 0
        assert payload["fleet"]["fleet_components"] >= 2


    def test_miss_heavy_overheads_are_reported_not_gated(self):
        """The miss-heavy case runs capture and fleet too; the report
        carries their overheads, and the gate passes whatever they read."""
        miss = RuntimeBenchCase("page-rank", 4_096, fmem_mb=8,
                                label="page-rank-small")
        miss_key = replace(miss, label=None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench, "CANONICAL_RUNS", ONCE)
            mp.setattr(bench, "MISS_HEAVY_CASE", miss_key)
            mp.setattr(bench, "MISS_HEAVY_RUNS", ONCE)
            report = run_runtime_bench(quick=True, cases=[SMALL, miss])
        misses = report["cases"][1]["cache_misses"]
        assert misses > 0.9 * miss.num_accesses
        for name in ("capture", "fleet"):
            section = report["miss_heavy"][name]
            assert section["workload"] == "page-rank-small"
            assert section["fault_records"] == misses   # no warm-up
        over = gated(report)
        for section in over["miss_heavy"].values():
            section["overhead"] = 2 * MAX_OVERHEAD
        assert check_speedup(over, 1.0, {SMALL_KEY: 1.0, miss_key: 0.0}) \
            == []

    def test_overhead_is_the_median_of_paired_round_ratios(self):
        """A slow phase in round 2 hits both variants and cancels; the
        best runs (1.25 s and 1.0 s, from different rounds) would read
        1.25x."""
        fp = {"accesses": 10}
        log = SimpleNamespace(n=10, dominant_hop=lambda: "fab")
        best = {"batched": Run(1.0, fp, {}, (1.0, 3.0, 1.2)),
                "capture": Run(1.25, fp, {"log": log}, (1.3, 3.1, 1.25))}
        section = _overhead_result(SMALL, best, "capture", {"capture": 3})
        assert section["overhead"] == statistics.median(
            [1.3 / 1.0, 3.1 / 3.0, 1.25 / 1.2])
        assert section["overhead"] < 1.05
        assert (section["on_seconds"], section["off_seconds"]) == (1.25, 1.0)


class TestPerfGate:
    def test_passes_a_case_at_its_floor(self, payload):
        assert check_speedup(gated(payload), 1.0, {SMALL_KEY: 2.0}) == []

    def test_fails_a_case_below_its_floor(self, payload):
        failures = check_speedup(gated(payload), 1.0, {SMALL_KEY: 2.5})
        assert failures == ["hot-mix-small (20,000 accesses) speedup "
                            "2.00x below its floor 2.5x"]

    def test_fails_a_measured_case_without_a_floor(self, payload):
        """A floor for the same trace at another size does not count."""
        other_size = replace(SMALL_KEY, num_accesses=40_000)
        for floors in ({}, {other_size: 1.0}):
            failures = check_speedup(gated(payload), 1.0, floors)
            assert len(failures) == 1 and "no floor" in failures[0]

    @pytest.mark.parametrize("name", ["capture", "fleet"])
    def test_fails_an_instrument_over_budget(self, payload, name):
        floors = {SMALL_KEY: 1.0}
        at_budget = gated(payload, **{name: MAX_OVERHEAD})
        assert check_speedup(at_budget, 1.0, floors) == []
        failures = check_speedup(gated(payload, **{name: 1.2}), 1.0, floors)
        assert failures == [f"{name} overhead 1.200x exceeds the 1.15x "
                            f"budget"]

    def test_fails_a_canonical_case_below_min_speedup(self, payload):
        failures = check_speedup(gated(payload), 3.0, {SMALL_KEY: 1.0})
        assert failures == ["canonical speedup 2.00x below required 3.0x"]


class TestCommittedFloors:
    SUITE = (*RUNTIME_QUICK_CASES, RUNTIME_CANONICAL_CASE,
             *RUNTIME_EXTRA_CASES)

    def test_every_suite_case_has_a_floor(self):
        for case in self.SUITE:
            assert replace(case, label=None) in RUNTIME_FLOORS, case

    def test_no_floor_looser_than_the_old_gate(self):
        """The old gate held the quick hot-mix case at 4.54x (half the
        committed 9.08x) and the miss-heavy cases at 1.3x."""
        for case in self.SUITE:
            old = 4.54 if case.workload == "hot-mix" else 1.3
            assert RUNTIME_FLOORS[replace(case, label=None)] >= old, case

    def test_miss_lane_floor_catches_a_one_and_a_half_x_slowdown(self):
        """``page-rank-miss`` runs ~4x over the oracle; a miss lane 1.5x
        slower brings that to ~2.7x, which must fail the gate."""
        miss = RuntimeBenchCase("page-rank", 150_000, fmem_mb=8)
        assert RUNTIME_FLOORS[miss] > 2.7
