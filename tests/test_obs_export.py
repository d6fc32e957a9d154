"""End-to-end exporter tests: a traced runtime produces valid artifacts."""

import json

import pytest

import repro.common.units as u
from repro.kona import KonaConfig, KonaRuntime
from repro.obs import (
    FlightRecorder,
    chrome_trace,
    prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
)


@pytest.fixture()
def traced_runtime():
    recorder = FlightRecorder(tracing=True, sample_interval_ns=10_000.0)
    config = KonaConfig(fmem_capacity=4 * u.MB,
                        vfmem_capacity=64 * u.MB,
                        slab_bytes=16 * u.MB)
    runtime = KonaRuntime(config, recorder=recorder)
    region = runtime.mmap(16 * u.MB)
    # Touch twice the FMem capacity so fetches AND evictions happen.
    for page in range(2048):
        runtime.write(region.start + page * u.PAGE_4K)
        runtime.fabric.clock.advance(50.0)   # app compute between accesses
        if page % 64 == 0:
            runtime.maybe_evict()
            runtime.obs.tick()
    # A full health round-trip, so the trace carries health instants.
    runtime.health.degrade("test-outage")
    runtime.health.start_recovery()
    runtime.health.recovered()
    return runtime


class TestChromeTrace:
    def test_trace_is_schema_valid(self, traced_runtime):
        payload = chrome_trace(traced_runtime.obs.tracer.events)
        assert validate_chrome_trace(payload) == []

    def test_trace_has_runtime_spans(self, traced_runtime):
        events = chrome_trace(traced_runtime.obs.tracer.events)["traceEvents"]
        names = {e["name"] for e in events}
        assert "fetch.fill" in names
        assert "rdma.read" in names
        assert "evict.page" in names

    def test_trace_has_health_instants(self, traced_runtime):
        events = chrome_trace(traced_runtime.obs.tracer.events)["traceEvents"]
        health = [e for e in events if e["name"].startswith("health.")
                  and e["ph"] == "i"]
        states = [e["name"] for e in health]
        assert states == ["health.DEGRADED", "health.RECOVERING",
                          "health.HEALTHY"]
        assert health[0]["args"]["reason"] == "test-outage"

    def test_rdma_reads_nest_inside_fills(self, traced_runtime):
        events = chrome_trace(traced_runtime.obs.tracer.events)["traceEvents"]
        fills = [(e["ts"], e["ts"] + e["dur"]) for e in events
                 if e["name"] == "fetch.fill"]
        reads = [e["ts"] for e in events if e["name"] == "rdma.read"]
        assert reads, "no rdma.read spans traced"
        assert all(any(lo <= ts <= hi for lo, hi in fills)
                   for ts in reads[:20])

    def test_timestamps_are_microseconds(self, traced_runtime):
        recorder = traced_runtime.obs
        raw = [e for e in recorder.tracer.events if e["ts"] > 0]
        exported = chrome_trace(recorder.tracer.events)["traceEvents"]
        by_name_raw = raw[-1]
        match = [e for e in exported if e.get("name") == by_name_raw["name"]
                 and e["ts"] == by_name_raw["ts"] / 1e3]
        assert match

    def test_written_file_round_trips(self, traced_runtime, tmp_path):
        path = str(tmp_path / "trace.json")
        payload = chrome_trace(traced_runtime.obs.tracer.events)
        assert write_chrome_trace(payload, path) == []
        assert json.loads(open(path).read()) == payload

    def test_invalid_trace_is_never_written(self, tmp_path):
        path = tmp_path / "bad.json"
        errors = write_chrome_trace({"traceEvents": [{"ph": "X"}]},
                                    str(path))
        assert errors and not path.exists()


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2]) != []

    def test_rejects_missing_fields(self):
        errors = validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        assert any("missing 'name'" in e for e in errors)
        assert any("dur" in e for e in errors)

    def test_rejects_unknown_phase(self):
        errors = validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "Z", "ts": 0, "pid": 1, "tid": 1}]})
        assert any("unknown phase" in e for e in errors)

    def test_rejects_negative_ts(self):
        errors = validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "i", "ts": -5, "pid": 1, "tid": 1}]})
        assert any("bad ts" in e for e in errors)

    def test_accepts_minimal_valid(self):
        assert validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "i", "ts": 0, "pid": 1, "tid": 1}]}) == []


class TestJsonlAndSampler:
    def test_sampler_produced_time_series(self, traced_runtime):
        samples = traced_runtime.obs.sampler.samples
        assert len(samples) >= 2
        ts = [t for t, _ in samples]
        assert ts == sorted(ts)
        assert all("memory.fmem_occupancy" in row for _, row in samples)

    def test_prometheus_dump_covers_sections(self, traced_runtime):
        text = prometheus_text(traced_runtime.obs.registry)
        assert "memory_fmem_bytes" in text
        assert "fetch_remote_fetches" in text
        assert "kona_access_stall_ns_count" in text
        # Replication gauges render even on an unreplicated runtime
        # (None-guarded to zero), so dashboards keep a stable schema.
        assert "replication_backlog_slots 0" in text
        assert "replication_failovers 0" in text


@pytest.fixture()
def replicated_traced_runtime():
    """A traced, replicated runtime that lives through a failover."""
    recorder = FlightRecorder(tracing=True, sample_interval_ns=10_000.0)
    config = KonaConfig(fmem_capacity=4 * u.MB,
                        vfmem_capacity=48 * u.MB,
                        slab_bytes=8 * u.MB,
                        replication_factor=2)
    runtime = KonaRuntime(config, num_memory_nodes=3, recorder=recorder)
    runtime.attach_data_plane()
    region = runtime.mmap(8 * u.MB)
    for page in range(2048):
        runtime.write(region.start + page * u.PAGE_4K)
        runtime.fabric.clock.advance(50.0)
        if page % 64 == 0:
            runtime.maybe_evict()
            runtime.obs.tick()
    slot = runtime.replication.slot_of(region.start)
    victim = runtime.replication.sets[slot].primary.node
    runtime.controller.node(victim).fail()
    runtime.on_memnode_failure(victim)
    runtime.recover()
    runtime.obs.tick()
    return runtime


class TestReplicationExportMatrix:
    """Replication telemetry flows through every exporter."""

    def test_chrome_trace_valid_and_has_failover_events(
            self, replicated_traced_runtime):
        payload = chrome_trace(replicated_traced_runtime.obs.tracer.events)
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"]}
        assert "replication.promote" in names
        assert "replication.rebuild" in names
        assert "runtime.failover" in names

    def test_prometheus_dump_has_live_replication_gauges(
            self, replicated_traced_runtime):
        text = prometheus_text(replicated_traced_runtime.obs.registry)
        assert "replication_factor 2" in text
        assert "replication_failovers 1" in text
        assert "replication_backlog_slots 0" in text
        assert "replication_lines_replicated" in text

    def test_sampler_series_include_replication(
            self, replicated_traced_runtime):
        samples = replicated_traced_runtime.obs.sampler.samples
        assert samples
        _, last = samples[-1]
        assert "replication.factor" in last
        assert "replication.promotions" in last
