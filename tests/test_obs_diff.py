"""Tests for the run-to-run diff of fleet artifacts."""

import math

import numpy as np
import pytest

import repro.common.units as u
from repro.common.errors import ConfigError
from repro.kona.config import KonaConfig
from repro.kona.runtime import KonaRuntime
from repro.obs import (
    DiffEntry,
    FleetRecorder,
    FlightRecorder,
    diff_runs,
    fleet_view,
)


def traced_fleet(seed=3):
    """One small traced runtime run, frozen into a fleet artifact."""
    recorder = FlightRecorder(tracing=True, sample_interval_ns=10_000.0)
    rt = KonaRuntime(KonaConfig(fmem_capacity=4 * u.MB,
                                vfmem_capacity=64 * u.MB,
                                slab_bytes=16 * u.MB),
                     app_ns_per_access=70.0, recorder=recorder)
    region = rt.mmap(16 * u.MB)
    rng = np.random.default_rng(seed)
    addrs = (region.start
             + rng.integers(0, 16 * u.MB // u.CACHE_LINE, size=4_000)
             * u.CACHE_LINE)
    rt.run_trace(addrs.astype(np.int64), rng.random(4_000) < 0.4)
    fleet = FleetRecorder(name="diff")
    for member in rt.fleet_members():
        fleet.add(member)
    return fleet


def traced_run(seed=3):
    """The comparable view of one small traced run."""
    return fleet_view(traced_fleet(seed))


class TestDiffEntry:
    def test_delta_and_rel(self):
        entry = DiffEntry("metric", "x", 100.0, 110.0)
        assert entry.delta == 10.0
        assert entry.rel_change == pytest.approx(0.10)

    def test_new_value_is_inf(self):
        assert math.isinf(DiffEntry("metric", "x", 0.0, 5.0).rel_change)
        assert DiffEntry("metric", "x", 0.0, 0.0).rel_change == 0.0


class TestDiffRuns:
    def test_identical_artifacts_are_clean(self):
        artifact = traced_run()
        report = diff_runs(artifact, artifact)
        assert report.clean
        assert report.significant == []
        assert report.noise  # everything compared, nothing moved

    def test_identical_seed_runs_are_clean(self):
        # The anchor property: two runs of the same seed diff to zero
        # significant deltas (simulation is deterministic end to end).
        assert diff_runs(traced_run(seed=5), traced_run(seed=5)).clean

    def test_moved_metric_is_significant(self):
        before, after = traced_run(), traced_run()
        key = next(iter(after["metrics"]))
        after["metrics"][key] = before["metrics"][key] * 2 + 10
        report = diff_runs(before, after)
        assert not report.clean
        assert any(e.name == key for e in report.significant)

    def test_below_threshold_is_noise(self):
        before = {"metrics": {"x": 1000.0}}
        after = {"metrics": {"x": 1004.0}}
        report = diff_runs(before, after, rel_tol=0.01)
        assert report.clean
        assert report.noise[0].delta == 4.0

    def test_nan_on_one_side_is_significant(self):
        # A metric turning NaN and an empty histogram's NaN quantile
        # gaining a value both moved.
        report = diff_runs(
            {"metrics": {"x": 1.0},
             "histograms": {"h": {"p50": math.nan}}},
            {"metrics": {"x": math.nan},
             "histograms": {"h": {"p50": 5.0}}})
        assert not report.clean
        moved = {e.name for e in report.significant}
        assert {"x", "h.p50"} <= moved

    def test_nan_on_both_sides_is_unchanged(self):
        report = diff_runs({"metrics": {"x": math.nan}},
                           {"metrics": {"x": math.nan}})
        assert report.clean
        assert [e.name for e in report.noise] == ["x"]

    def test_missing_key_reported(self):
        before, after = traced_run(), traced_run()
        key = next(iter(after["metrics"]))
        del after["metrics"][key]
        report = diff_runs(before, after)
        assert not report.clean
        assert f"metric:{key}" in report.missing

    def test_histogram_quantile_shift_detected(self):
        before, after = traced_run(), traced_run()
        name = next(name for name, snap in after["histograms"].items()
                    if snap["count"])
        after["histograms"][name]["p99"] *= 4.0
        report = diff_runs(before, after)
        assert any(e.name == f"{name}.p99" for e in report.significant)

    def test_negative_tolerance_raises(self):
        with pytest.raises(ConfigError):
            diff_runs({}, {}, rel_tol=-1.0)

    def test_to_json_shape(self):
        report = diff_runs(traced_run(), traced_run())
        payload = report.to_json()
        assert payload["clean"] is True
        assert payload["significant"] == []
        assert payload["noise_count"] == len(report.noise)


class TestArtifacts:
    def test_artifact_contents(self):
        view = traced_run()
        assert "runtime/fetch.cache_misses" in view["metrics"]
        assert "runtime/kona_access_stall_ns" in view["histograms"]
        assert "fabric/fabric.bytes_moved" in view["metrics"]
        assert view["self_time_ns"]["runtime/fetch.fill"] > 0
        assert view["category_self_time_ns"]["runtime/rdma"] > 0

    def test_save_load_roundtrip(self, tmp_path):
        fleet = traced_fleet()
        path = fleet.save(str(tmp_path / "run.json"))
        loaded = fleet_view(FleetRecorder.load(path))
        assert loaded == fleet_view(fleet)
        assert diff_runs(loaded, fleet_view(fleet)).clean

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"benchmark": "something-else"}\n')
        with pytest.raises(ConfigError):
            FleetRecorder.load(str(path))
