"""Tests for the parallel sweep runner and the engine benchmark."""

import json

import pytest

from repro.cache.amat import ALL_SYSTEMS
from repro.common import units as u
from repro.common.errors import ConfigError
from repro.experiments.bench import (
    BENCH_FILENAME,
    BenchCase,
    check_speedup,
    run_bench,
    run_case,
    write_bench,
)
from repro.experiments.sweep import (
    SweepPoint,
    run_sweep,
    sweep_grid,
)


class TestSweepGrid:
    def test_grid_is_cross_product_with_positional_seeds(self):
        points = sweep_grid(["redis-rand", "graph-coloring"],
                            [0.25, 0.5], base_seed=100)
        assert len(points) == 4
        assert [p.seed for p in points] == [100, 101, 102, 103]
        assert points[0].workload == "redis-rand"
        assert points[-1].workload == "graph-coloring"

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            SweepPoint(workload="nope", cache_fraction=0.5)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            run_sweep([])


class TestSweepRunner:
    POINTS = sweep_grid(["redis-rand"], [0.25, 0.75], num_ops=2000,
                        base_seed=7)

    def test_serial_results_are_complete(self):
        result = run_sweep(self.POINTS, processes=1)
        assert len(result.amat_ns) == len(self.POINTS)
        for amat in result.amat_ns:
            assert set(amat) == set(ALL_SYSTEMS)
            assert all(v > 0 for v in amat.values())
        for served in result.served:
            assert abs(sum(served.values()) - 1.0) < 1e-9

    def test_parallel_matches_serial(self):
        serial = run_sweep(self.POINTS, processes=1)
        parallel = run_sweep(self.POINTS, processes=2)
        assert serial.amat_ns == parallel.amat_ns
        assert serial.served == parallel.served

    def test_series_extraction(self):
        result = run_sweep(self.POINTS, processes=1)
        series = result.series("kona")
        assert [f for f, _ in series] == [0.25, 0.75]
        # More local cache never slows Kona down on this workload.
        assert series[1][1] <= series[0][1]

    def test_totals_aggregate_per_point_counters(self):
        result = run_sweep(self.POINTS, processes=1)
        assert len(result.counters) == len(self.POINTS)
        per_point = sum(c["accesses"] for c in result.counters)
        assert result.totals["accesses"] == per_point
        assert result.totals["accesses"] >= 2000 * len(self.POINTS)
        assert result.totals["remote_fetches"] > 0

    def test_parallel_totals_match_serial(self):
        serial = run_sweep(self.POINTS, processes=1)
        parallel = run_sweep(self.POINTS, processes=2)
        assert serial.totals.as_dict() == parallel.totals.as_dict()


SMALL_CASE = BenchCase("uniform-stress", 20_000, 0.5, seed=42)


class TestBench:
    def test_run_case_verifies_and_reports(self):
        result = run_case(SMALL_CASE, scalar_runs=1, vectorized_runs=1)
        assert result["counters_match"]
        assert result["speedup"] > 0
        assert result["scalar"]["seconds"] > 0
        assert result["vectorized"]["seconds"] > 0
        assert set(result["level_counters"]) == {"L1", "L2", "L3", "DRAM$"}

    def test_quick_bench_payload_schema(self, tmp_path):
        payload = run_bench(quick=True, cases=[SMALL_CASE])
        assert payload["benchmark"] == "kcachesim-engine-bench"
        assert payload["quick"] is True
        assert payload["canonical_workload"] == "uniform-stress"
        assert payload["canonical_speedup"] == payload["cases"][0]["speedup"]
        path = write_bench(payload, str(tmp_path / BENCH_FILENAME))
        with open(path) as fh:
            assert json.load(fh)["cases"][0]["num_accesses"] == 20_000

    def test_host_metadata_recorded(self):
        payload = run_bench(quick=True, cases=[SMALL_CASE])
        host = payload["host"]
        assert host["python"] and host["numpy"] and host["machine"]
        assert isinstance(host["cpu_count"], int) and host["cpu_count"] >= 1
        # Inside this repo the sha resolves; elsewhere it is None.
        assert host["git_sha"] is None or len(host["git_sha"]) >= 7

    def test_check_speedup_gate(self):
        payload = {"canonical_speedup": 2.0}
        assert check_speedup(payload, 1.5) == []
        failures = check_speedup(payload, 3.0)
        assert len(failures) == 1 and "2.00x" in failures[0]


class TestCommittedBenchReport:
    def test_repo_report_meets_acceptance_speedup(self):
        """The committed BENCH_kcachesim.json must record >= 8x.

        The floor allows for runner-hardware variance (observed 9.3x
        to 10.8x across containers for the same code) while still
        catching any real engine regression, which shows up as an
        order-of-magnitude drop.
        """
        import pathlib
        path = pathlib.Path(__file__).resolve().parents[1] / BENCH_FILENAME
        payload = json.loads(path.read_text())
        assert payload["canonical_workload"] == "uniform-stress"
        case = payload["cases"][0]
        assert case["num_accesses"] == 1_000_000
        assert payload["canonical_speedup"] >= 8.0
        assert check_speedup(payload, 8.0) == []

    def test_repo_report_records_environment(self):
        """The committed report must say where its numbers came from."""
        import pathlib
        path = pathlib.Path(__file__).resolve().parents[1] / BENCH_FILENAME
        host = json.loads(path.read_text())["host"]
        assert host["python"] and host["numpy"]
        assert host["cpu_count"] >= 1
        assert host["git_sha"] is None or len(host["git_sha"]) >= 7
