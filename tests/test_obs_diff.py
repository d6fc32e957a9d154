"""Tests for the run-to-run diff."""

import math

import numpy as np
import pytest

import repro.common.units as u
from repro.common.errors import ConfigError
from repro.kona.config import KonaConfig
from repro.kona.runtime import KonaRuntime
from repro.obs import (
    DiffEntry,
    FlightRecorder,
    diff_runs,
    load_artifact,
    profile,
    run_artifact,
    save_artifact,
)


def traced_run(seed=3):
    """One small traced runtime run; returns its artifact."""
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
    return run_artifact(recorder, profile=profile(recorder.tracer.events),
                        meta={"seed": seed})


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
        before = {"format": "repro-run-artifact", "version": 1,
                  "metrics": {"x": 1000.0}, "histograms": {}, "meta": {}}
        after = {"format": "repro-run-artifact", "version": 1,
                 "metrics": {"x": 1004.0}, "histograms": {}, "meta": {}}
        report = diff_runs(before, after, rel_tol=0.01)
        assert report.clean
        assert report.noise[0].delta == 4.0

    def test_missing_key_reported(self):
        before, after = traced_run(), traced_run()
        key = next(iter(after["metrics"]))
        del after["metrics"][key]
        report = diff_runs(before, after)
        assert not report.clean
        assert f"metric:{key}" in report.missing

    def test_histogram_quantile_shift_detected(self):
        before, after = traced_run(), traced_run()
        name = next(iter(after["histograms"]))
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
        artifact = traced_run()
        assert artifact["format"] == "repro-run-artifact"
        assert "fetch.cache_misses" in artifact["metrics"]
        assert "kona_access_stall_ns" in artifact["histograms"]
        assert artifact["total_ns"] > 0
        assert artifact["self_time_ns"]

    def test_save_load_roundtrip(self, tmp_path):
        artifact = traced_run()
        path = save_artifact(artifact, str(tmp_path / "run.json"))
        assert load_artifact(path) == artifact

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"benchmark": "something-else"}\n')
        with pytest.raises(ConfigError):
            load_artifact(str(path))
