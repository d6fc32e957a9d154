"""Fleet observability plane: bit-exact federation across components.

The tentpole contract: a :class:`FleetRecorder` built from component
snapshots of sharded / streamed runs reproduces the monolithic
telemetry *bit-exactly* — counters, histogram quantiles, tsdb
timelines and fault-log aggregates — and the fleet artifact itself is
a stable, deterministic JSON document.  Satellites ride along: Chrome
pid/tid stability across exports and multi-sampler cadence on one
shared sim clock.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import repro.common.units as u
from repro.common import units
from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.kona import KonaConfig, KonaRuntime
from repro.obs import (
    FlightRecorder,
    component_pid,
    validate_chrome_trace,
)
from repro.obs.fleet import ComponentSnapshot, FleetRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import Sampler
from repro.workloads.trace import generate_hot_mix_stream, open_columnar


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fleet") / "hot.trace")
    generate_hot_mix_stream(path, 40_000, hot_lines=4096,
                            region_bytes=16 * units.MB, seed=29,
                            chunk_size=1 << 13)
    return path


def make_runtime(component="runtime:shard0", tenant=None):
    # Tracing on: the stall/evict histograms are fed on the access
    # path only while tracing, and the trace events ride the snapshot.
    recorder = FlightRecorder(tracing=True, sample_interval_ns=50_000.0,
                              component=component, tenant=tenant)
    cfg = KonaConfig(fmem_capacity=4 * u.MB, vfmem_capacity=32 * u.MB,
                     slab_bytes=1 * u.MB)
    return KonaRuntime(cfg, app_ns_per_access=50.0, recorder=recorder)


def capture_fleet(rt, tenant=None):
    fleet = FleetRecorder(name="test")
    for member in rt.fleet_members(tenant=tenant):
        fleet.add(member)
    return fleet


def artifact_bytes(fleet):
    return json.dumps(fleet.to_json(), sort_keys=True)


class TestStreamedEqualsMonolithic:
    """A chunked streamed replay federates to the monolithic fleet."""

    @pytest.fixture(scope="class")
    def fleets(self, trace_dir):
        columnar = open_columnar(trace_dir)
        addrs = columnar.addrs[:].astype(np.int64)
        writes = np.asarray(columnar.writes)

        mono_rt = make_runtime(tenant="t0")
        region = mono_rt.mmap(columnar.memory_bytes)
        mono_rt.attach_causal_capture()
        mono_rt.run_trace(addrs + np.int64(region.start), writes)

        stream_rt = make_runtime(tenant="t0")
        region2 = stream_rt.mmap(columnar.memory_bytes)
        stream_rt.attach_causal_capture()
        bounds = [0, 4 * 256, 31 * 256, 120 * 256, addrs.size]
        chunks = ((addrs[a:b], writes[a:b])
                  for a, b in zip(bounds, bounds[1:]))
        stream_rt.run_trace_stream(chunks, base=region2.start)

        return (capture_fleet(mono_rt, tenant="t0"),
                capture_fleet(stream_rt, tenant="t0"))

    def test_counter_totals_bit_equal(self, fleets):
        mono, streamed = fleets
        assert mono.totals() == streamed.totals()
        assert mono.totals()["fetch.cache_misses"] > 0

    def test_histogram_states_bit_equal(self, fleets):
        mono, streamed = fleets
        mono_h = {k: v.state() for k, v in mono.histogram_totals().items()}
        stream_h = {k: v.state()
                    for k, v in streamed.histogram_totals().items()}
        assert mono_h == stream_h
        assert mono_h["kona_access_stall_ns"]["count"] > 0
        for q in (0.5, 0.9, 0.99):
            assert (mono.histogram_totals()["kona_access_stall_ns"]
                    .quantile(q)
                    == streamed.histogram_totals()["kona_access_stall_ns"]
                    .quantile(q))

    def test_tsdb_timelines_bit_equal(self, fleets):
        mono, streamed = fleets
        assert mono.tsdb().as_dict() == streamed.tsdb().as_dict()
        assert mono.tsdb().as_dict(), "sampler produced no series"

    def test_fault_log_aggregates_bit_equal(self, fleets):
        mono, streamed = fleets
        assert mono.fault_log() is not None
        assert (mono.fault_log().aggregate()
                == streamed.fault_log().aggregate())

    def test_whole_artifacts_bit_equal(self, fleets):
        mono, streamed = fleets
        assert artifact_bytes(mono) == artifact_bytes(streamed)


class TestShardedFleet:
    """Page-modulo sharded fleets: exact sums, process-invariance."""

    @pytest.fixture(scope="class")
    def sharded(self, trace_dir):
        from repro.experiments.shard import make_shards, run_sharded
        specs = make_shards(trace_dir, 2, chunk_size=1 << 13,
                            fmem_mb=4, vfmem_mb=32, capture=True,
                            fleet=True, tenant="t0")
        return run_sharded(specs, processes=1)

    def test_fleet_counter_totals_match_merged_counters(self, sharded):
        fleet = sharded.fleet()
        totals = fleet.totals()
        assert totals["fetch.cache_hits"] == sharded.totals["cache_hits"]
        assert totals["fetch.cache_misses"] \
            == sharded.totals["cache_misses"]
        assert totals["fetch.remote_fetches"] \
            == sharded.totals["remote_fetches"]
        assert totals["eviction.pages_evicted"] \
            == sharded.totals["pages_evicted"]

    def test_fleet_fault_log_equals_merged_shard_logs(self, sharded):
        fleet_agg = sharded.fleet().fault_log().aggregate()
        assert fleet_agg == sharded.fault_log().aggregate()
        assert fleet_agg["n"] == sharded.totals["cache_misses"]

    def test_components_are_shard_qualified_and_unique(self, sharded):
        names = sharded.fleet().components()
        assert len(names) == len(set(names))
        assert "runtime:shard0" in names and "runtime:shard1" in names
        assert any(n.startswith("memnode:shard1.") for n in names)

    def test_parallel_artifact_identical_to_serial(self, trace_dir,
                                                   sharded):
        from repro.experiments.shard import make_shards, run_sharded
        specs = make_shards(trace_dir, 2, chunk_size=1 << 13,
                            fmem_mb=4, vfmem_mb=32, capture=True,
                            fleet=True, tenant="t0")
        parallel = run_sharded(specs, processes=2)
        assert artifact_bytes(parallel.fleet()) \
            == artifact_bytes(sharded.fleet())

    def test_fleet_capture_leaves_simulation_untouched(self, trace_dir,
                                                       sharded):
        from repro.experiments.shard import make_shards, run_sharded
        plain = run_sharded(make_shards(trace_dir, 2, chunk_size=1 << 13,
                                        fmem_mb=4, vfmem_mb=32),
                            processes=1)
        assert plain.totals.as_dict() == sharded.totals.as_dict()
        assert plain.elapsed_ns == sharded.elapsed_ns

    def test_tenant_attribution_covers_all_stall(self, sharded):
        rows = sharded.fleet().tenant_attribution()
        assert [r["tenant"] for r in rows] == ["t0"]
        assert rows[0]["faults"] == sharded.totals["cache_misses"]
        assert rows[0]["stall_share"] == 1.0


class TestFleetArtifact:
    @pytest.fixture(scope="class")
    def fleet(self, trace_dir):
        columnar = open_columnar(trace_dir)
        rt = make_runtime(tenant="t0")
        region = rt.mmap(columnar.memory_bytes)
        rt.attach_causal_capture()
        rt.run_trace(columnar.addrs[:].astype(np.int64)
                     + np.int64(region.start),
                     np.asarray(columnar.writes))
        return capture_fleet(rt, tenant="t0")

    def test_save_load_round_trips_bit_exactly(self, fleet, tmp_path):
        path = fleet.save(str(tmp_path / "fleet.json"))
        loaded = FleetRecorder.load(path)
        assert artifact_bytes(loaded) == artifact_bytes(fleet)
        assert loaded.totals() == fleet.totals()
        assert loaded.fault_log().aggregate() \
            == fleet.fault_log().aggregate()

    def test_duplicate_component_rejected(self, fleet):
        with pytest.raises(ConfigError):
            fleet.add(ComponentSnapshot(component="runtime:shard0"))

    def test_merged_registry_carries_identity_labels(self, fleet):
        samples = fleet.registry().flat_samples()
        key = ("fetch.cache_misses"
               "{component=runtime:shard0,tenant=t0}")
        assert key in samples
        assert samples[key] == fleet.totals()["fetch.cache_misses"]

    def test_tenant_filter(self, fleet):
        assert fleet.totals(tenant="t0") == fleet.totals()
        assert fleet.totals(tenant="nobody") == {}

    def test_per_component_tsdb_prefixes(self, fleet):
        series = fleet.tsdb().as_dict()
        assert series
        assert all(name.startswith("runtime:shard0/") for name in series)


class TestChromeExportStability:
    """Satellite: pids/tids are pure functions of component identity."""

    def test_component_pid_pinned_values(self):
        # FNV-1a/32 over the UTF-8 label, folded to a positive int.
        # Pinned so the pid assignment can never silently change —
        # saved traces must stay comparable across versions.
        assert component_pid("runtime:shard0") == 859002727
        assert component_pid("fabric") == 1743038524
        assert component_pid("memnode:mem0") == 430470707
        assert component_pid("fleet") == 1663056687

    def test_distinct_components_distinct_pids(self):
        labels = ["runtime:shard0", "runtime:shard1", "fabric",
                  "memnode:mem0", "memnode:mem1", "memnode:mem2"]
        pids = [component_pid(label) for label in labels]
        assert len(set(pids)) == len(pids)
        assert all(pid > 0 for pid in pids)

    def test_two_exports_byte_identical(self, trace_dir):
        columnar = open_columnar(trace_dir)
        rt = make_runtime(tenant="t0")
        region = rt.mmap(columnar.memory_bytes)
        rt.attach_causal_capture()
        rt.run_trace(columnar.addrs[:20_000].astype(np.int64)
                     + np.int64(region.start),
                     np.asarray(columnar.writes[:20_000]))
        fleet = capture_fleet(rt, tenant="t0")
        first = json.dumps(fleet.chrome_trace(), sort_keys=True)
        second = json.dumps(fleet.chrome_trace(), sort_keys=True)
        assert first == second

    def test_fleet_trace_schema_valid_with_per_component_pids(
            self, trace_dir):
        columnar = open_columnar(trace_dir)
        rt = make_runtime(tenant="t0")
        region = rt.mmap(columnar.memory_bytes)
        rt.attach_causal_capture()
        rt.run_trace(columnar.addrs[:20_000].astype(np.int64)
                     + np.int64(region.start),
                     np.asarray(columnar.writes[:20_000]))
        fleet = capture_fleet(rt, tenant="t0")
        payload = fleet.chrome_trace()
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        by_pid = {e["pid"] for e in events}
        for member in fleet.members:
            assert member.pid in by_pid
        flows = [e for e in events if e["ph"] in ("s", "t", "f")]
        assert flows, "no correlation flow arrows in the fleet trace"
        assert all("id" in e for e in flows)


class TestMultiSamplerCadence:
    """Satellite: N samplers with different periods share one clock."""

    PERIODS = (700.0, 1100.0, 1300.0)

    def _run(self, tick_ns=97.0, until_ns=300_000.0):
        clock = SimClock()
        reg = MetricsRegistry(clock=clock)
        reg.gauge("g", fn=lambda: clock.now)
        samplers = [Sampler(reg, interval_ns=p, clock=clock)
                    for p in self.PERIODS]
        while clock.now < until_ns:
            clock.advance(tick_ns)
            for s in samplers:
                s.maybe_sample()
        return clock, samplers

    def test_every_sampler_fires_once_per_grid_point(self):
        clock, samplers = self._run()
        for sampler, period in zip(samplers, self.PERIODS):
            # Ticks (97 ns) are denser than every period, so each grid
            # point fires exactly once: 1 (the t~0 arm) + one per
            # whole period elapsed.
            assert len(sampler.samples) == 1 + int(clock.now // period)

    def test_timestamps_anchor_to_the_grid_without_drift(self):
        _, samplers = self._run()
        for sampler, period in zip(samplers, self.PERIODS):
            stamps = [t for t, _ in sampler.samples]
            for i, ts in enumerate(stamps[1:], start=1):
                grid = i * period
                assert grid <= ts < grid + 97.0, (
                    f"sample {i} of period {period} fired at {ts}, "
                    f"grid point {grid} — cadence drifted")

    def test_late_burst_never_double_fires(self):
        clock = SimClock()
        reg = MetricsRegistry(clock=clock)
        reg.gauge("g", fn=lambda: 1.0)
        sampler = Sampler(reg, interval_ns=1000.0, clock=clock)
        sampler.maybe_sample()               # arms the grid at t=0
        clock.advance(10_500.0)              # sleeps through 10 points
        assert sampler.maybe_sample() is True
        assert sampler.maybe_sample() is False   # same tick: no refire
        assert sampler._next_due % 1000.0 == 0.0
        assert sampler._next_due > clock.now
        assert len(sampler.samples) == 2

    def test_samplers_share_rows_from_one_registry(self):
        _, samplers = self._run(until_ns=10_000.0)
        for sampler in samplers:
            for ts, row in sampler.samples:
                assert row["g"] == ts
