"""Causal fault tracing: capture, attribution, anomalies, exporters.

The load-bearing contracts:

* capture observes without perturbing — a capture-enabled run is
  bit-identical to a capture-off run in every counter, account,
  bitmap bit and the simulated clock;
* the record stream is complete — exactly one record per cache miss,
  identical between the scalar and batched engines and between
  streamed and monolithic replay;
* the reductions are exact and the fleet's fault chains validate.
"""

import json

import numpy as np
import pytest

import repro.common.units as u
from repro.common.clock import SimClock
from repro.common.errors import ConfigError
from repro.experiments.bench import runtime_fingerprint
from repro.kona import KonaConfig, KonaRuntime
from repro.obs.causal import (
    FLAG_FABRIC_DOWN,
    FLAG_REPLICA_READ,
    HOPS,
    CausalCapture,
    FaultLog,
    tail_anomalies,
)
from repro.obs.export import validate_chrome_trace
from repro.obs.fleet import FleetRecorder
from repro.obs.registry import HistogramMetric, MetricsRegistry
from repro.obs.sampler import Sampler
from repro.obs.tsdb import TimeSeriesStore


def make_runtime(**config_kwargs):
    defaults = dict(fmem_capacity=4 * u.MB, vfmem_capacity=16 * u.MB,
                    slab_bytes=1 * u.MB)
    defaults.update(config_kwargs)
    return KonaRuntime(KonaConfig(**defaults), app_ns_per_access=50.0)


def hot_cold_trace(n, seed=11, hot_lines=4096, region_bytes=12 * u.MB,
                   cold_fraction=0.05):
    """Zero-based hot/cold access mix exercising hits, misses and
    evictions (the cold tail overflows the 4 MB FMem)."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, hot_lines, size=n, dtype=np.int64)
    cold = rng.random(n) < cold_fraction
    lines[cold] = rng.integers(hot_lines, region_bytes // u.CACHE_LINE,
                               size=int(cold.sum()), dtype=np.int64)
    return lines * u.CACHE_LINE, rng.random(n) < 0.3


def run_with_capture(engine="batched", n=30_000, **capture_kwargs):
    rt = make_runtime()
    region = rt.mmap(12 * u.MB)
    cap = rt.attach_causal_capture(**capture_kwargs)
    addrs, writes = hot_cold_trace(n)
    report = rt.run_trace(addrs + np.int64(region.start), writes,
                          engine=engine)
    return rt, report, cap


class TestCaptureCompleteness:
    def test_one_record_per_miss(self):
        rt, _, cap = run_with_capture()
        log = cap.log
        assert log.n == rt.counters["cache_misses"]
        assert log.n > 0
        assert (log.kinds[0] + log.kinds[1]) == log.n
        assert log.kinds[1] == rt.agent.counters["remote_fetches"]

    def test_engines_emit_identical_streams(self):
        _, _, cap_b = run_with_capture(engine="batched")
        _, _, cap_s = run_with_capture(engine="scalar")
        assert cap_b.log.aggregate() == cap_s.log.aggregate()

    def test_streamed_equals_monolithic(self):
        rt, _, cap = run_with_capture()
        rt2 = make_runtime()
        region2 = rt2.mmap(12 * u.MB)
        cap2 = rt2.attach_causal_capture()
        addrs, writes = hot_cold_trace(30_000)
        # Ragged 256-multiple chunks (only the last may be ragged).
        cuts = [0, 4 * 256, 31 * 256, 64 * 256, 65 * 256, 30_000]
        chunks = ((addrs[a:b], writes[a:b])
                  for a, b in zip(cuts, cuts[1:]))
        rt2.run_trace_stream(chunks, base=region2.start)
        assert cap.log.aggregate() == cap2.log.aggregate()

    def test_hop_cost_model(self):
        rt, _, cap = run_with_capture()
        log = cap.log
        lat = rt.agent.latency
        # FMem hits stall only on the memnode hop, at fmem_ns.
        assert set(log.spectra["mem"]) <= {0.0, lat.fmem_ns}
        # Remote fetches stall on the directory hop at the coherence
        # message cost; the fabric hop carries the RDMA line read.
        assert set(log.spectra["dir"]) <= {0.0, lat.coherence_msg_ns}
        assert log.spectra["dir"].get(lat.coherence_msg_ns, 0) \
            == log.kinds[1]
        fab_faults = sum(c for v, c in log.spectra["fab"].items() if v)
        assert fab_faults == log.kinds[1]


class TestCaptureIsInvisible:
    def test_fingerprint_bit_identical_with_capture(self):
        addrs0, writes = hot_cold_trace(30_000)
        fps = {}
        for mode in ("off", "on"):
            rt = make_runtime()
            region = rt.mmap(12 * u.MB)
            if mode == "on":
                rt.attach_causal_capture()
            report = rt.run_trace(addrs0 + np.int64(region.start), writes)
            fps[mode] = runtime_fingerprint(rt, report)
        assert fps["on"] == fps["off"]

    def test_scalar_access_path_unperturbed(self):
        costs = {}
        for mode in ("off", "on"):
            rt = make_runtime()
            region = rt.mmap(2 * u.MB)
            if mode == "on":
                rt.attach_causal_capture()
            costs[mode] = [rt.read(region.start + i * u.PAGE_4K)
                           for i in range(64)]
        assert costs["on"] == costs["off"]

    def test_attach_is_idempotent(self):
        rt = make_runtime()
        cap = rt.attach_causal_capture()
        assert rt.attach_causal_capture() is cap


class TestReplicationHop:
    def test_replica_read_charged_to_repl_hop(self):
        cfg = dict(fmem_capacity=4 * u.MB, vfmem_capacity=48 * u.MB,
                   slab_bytes=8 * u.MB, replication_factor=2)
        rt = KonaRuntime(KonaConfig(**cfg), num_memory_nodes=3)
        cap = rt.attach_causal_capture()
        region = rt.mmap(1 * u.MB)
        rt.read(region.start)
        primary = rt.translation.resolve(region.start).node
        rt.controller.node(primary).fail()
        rt.read(region.start + 8 * u.PAGE_4K)
        log = cap.log
        assert log.replica_faults == rt.counters["replica_reads"] == 1
        assert any(v > 0 for v in log.spectra["repl"])
        top = log.exemplars[0]
        assert top[11] > 0                       # repl hop stalled
        assert top[7] & FLAG_REPLICA_READ
        assert log.dominant_hop() == "repl"

    def test_fabric_down_flag(self):
        rt, _, cap = run_with_capture(n=2_000)
        assert cap.log.fabric_down_faults == 0   # healthy rack
        cfg = dict(fmem_capacity=4 * u.MB, vfmem_capacity=48 * u.MB,
                   slab_bytes=8 * u.MB, replication_factor=2)
        rt2 = KonaRuntime(KonaConfig(**cfg), num_memory_nodes=3)
        cap2 = rt2.attach_causal_capture()
        region = rt2.mmap(1 * u.MB)
        rt2.read(region.start)
        primary = rt2.translation.resolve(region.start).node
        rt2.controller.node(primary).fail()
        rt2.read(region.start + 8 * u.PAGE_4K)
        # The healthy first fetch is unflagged; the fetch during the
        # outage carries the fabric-down chaos flag.
        flags = [ex[7] for ex in sorted(cap2.log.exemplars,
                                        key=lambda ex: ex[1])]
        assert flags[0] & FLAG_FABRIC_DOWN == 0
        assert flags[-1] & FLAG_FABRIC_DOWN


class TestFaultLogReductions:
    def test_quantiles_exact_from_spectrum(self):
        log = FaultLog()
        cap = CausalCapture()
        for i in range(90):
            cap.record(i, i * 64, None, 0, 0.0, 0.0, 220.0)
        for i in range(90, 100):
            cap.record(i, i * 64, "mem0", 1, 70.0, 1519.32, 0.0)
        log.merge(cap.log)
        assert log.quantile(0.5) == 220.0
        assert log.quantile(0.95) == pytest.approx(70.0 + 1519.32)
        assert log.total_stall_ns() == pytest.approx(
            90 * 220.0 + 10 * (70.0 + 1519.32))

    def test_histogram_rebuild_matches_observations(self):
        _, _, cap = run_with_capture(n=10_000)
        log = cap.log
        hist = log.histogram()
        assert hist.count == log.n
        assert hist.sum == pytest.approx(log.total_stall_ns())
        ref = HistogramMetric()
        for v, c in sorted(log.spectra["total"].items()):
            for _ in range(c):
                ref.observe(v)
        assert hist._buckets == ref._buckets

    def test_summary_is_json_serializable(self):
        _, _, cap = run_with_capture(n=5_000)
        payload = json.dumps(cap.log.summary())
        assert "dominant_hop" in payload



class TestRecordFetches:
    """``record_fetches`` stores a block as per-row ``record`` calls
    would, across drains and with a failover outcome pending."""

    @staticmethod
    def _state(cap):
        log = cap.log
        return (log.aggregate(), log.exemplars, log.reservoir,
                log.reservoir_seen, cap._node_names)

    def test_block_equals_rows(self):
        rng = np.random.default_rng(5)
        n = 300
        seq = list(range(1000, 1000 + n))
        line = (rng.integers(0, 1 << 20, n) * u.CACHE_LINE).tolist()
        node = [None if x < 0.5 else f"mem{int(x * 10) % 3}"
                for x in rng.random(n)]
        rows = CausalCapture(capacity=64, reservoir_size=16)
        block = CausalCapture(capacity=64, reservoir_size=16)
        for cap in (rows, block):
            cap.on_health("RECOVERING")
            # A replica read the previous fetch stashed but never
            # recorded: the next record carries it.
            cap._repl_ns, cap._used_replica = 10_000.0, True
        for s, a, name in zip(seq, line, node):
            if name is None:
                rows.record(s, a, None, 0, 0.0, 0.0, 220.0)
            else:
                rows.record(s, a, name, 1, 70.0, 1519.32, 0.0)
        for lo, hi in ((0, 100), (100, n)):
            block.record_fetches(seq[lo:hi], line[lo:hi], node[lo:hi],
                                 220.0, 70.0, 1519.32)
        assert block.log.replica_faults == 1
        assert self._state(block) == self._state(rows)


class TestTailAnomalies:
    def _log_with_spike(self, spike_window=7, windows=12, per=64):
        cap = CausalCapture(window_size=256)
        for w in range(windows):
            if w == spike_window:
                # The outage window: a handful of faults stalled on
                # huge replication waits.
                for i in range(3):
                    cap._repl_ns = 250_000.0
                    cap.record(w * 256 + i, i * 64, "mem1", 1, 70.0,
                               1519.32, 0.0)
                continue
            for i in range(per):
                seq = w * 256 + i
                cap.record(seq, seq * 64, "mem0", 1, 70.0, 1519.32, 0.0)
        return cap.log

    def test_spike_window_flagged(self):
        log = self._log_with_spike()
        anomalies = tail_anomalies(log)
        assert anomalies
        top = anomalies[0]
        assert top["window"] == 7
        assert top["dominant_hop"] == "repl"
        assert top["max_ns"] > 250_000.0
        assert top["score"] == float("inf") or top["score"] > 3.5

    def test_uniform_log_has_no_anomalies(self):
        cap = CausalCapture(window_size=256)
        for seq in range(8 * 256):
            cap.record(seq, seq * 64, "mem0", 1, 70.0, 1519.32, 0.0)
        assert tail_anomalies(cap.log) == []

    def test_too_few_windows_is_silent(self):
        log = self._log_with_spike(spike_window=1, windows=2)
        assert tail_anomalies(log, min_windows=4) == []


class TestHistogramMerge:
    def test_merge_equals_single_stream(self):
        rng = np.random.default_rng(3)
        values = rng.exponential(500.0, size=1_000)
        whole, left, right = (HistogramMetric() for _ in range(3))
        for i, v in enumerate(values):
            whole.observe(v)
            (left if i % 2 else right).observe(v)
        left.merge(right)
        assert left._buckets == whole._buckets
        assert left.count == whole.count
        assert left.min == whole.min and left.max == whole.max
        assert left.sum == pytest.approx(whole.sum)

    def test_merge_rejects_other_types(self):
        with pytest.raises(ConfigError):
            HistogramMetric().merge(object())

    def test_merge_empty_is_identity(self):
        hist = HistogramMetric()
        hist.observe(5.0)
        before = dict(hist._buckets)
        hist.merge(HistogramMetric())
        assert hist._buckets == before and hist.count == 1


class TestSamplerCadence:
    def test_late_tick_does_not_drift_the_grid(self):
        clock = SimClock()
        sampler = Sampler(MetricsRegistry(clock=clock), interval_ns=1000.0,
                          clock=clock)
        clock.advance_to(1000.0)
        assert sampler.maybe_sample()
        # A tick landing mid-interval (a streamed chunk boundary) must
        # reschedule on the grid (3000), not slide to 2500 + 1000.
        clock.advance_to(2500.0)
        assert sampler.maybe_sample()
        assert sampler._next_due == 3000.0
        clock.advance_to(3200.0)
        assert sampler.maybe_sample()     # old sliding code: not due
        clock.advance_to(3300.0)
        assert not sampler.maybe_sample()  # and no double fire

    def test_prime_interval_stays_grid_anchored(self):
        # Chunk-boundary ticks (multiples of 1024) against a prime
        # cadence: every due time stays a multiple of the interval no
        # matter how late each tick lands.
        clock = SimClock()
        sampler = Sampler(MetricsRegistry(clock=clock), interval_ns=997.0,
                          clock=clock)
        fired = 0
        for k in range(1, 101):
            clock.advance_to(k * 1024.0)
            fired += sampler.maybe_sample()
            assert sampler._next_due % 997.0 == 0.0
        # Interval < tick spacing: exactly one sample per tick.
        assert fired == 100


class TestTsdbMerge:
    def test_shifted_merge_equals_monolithic(self):
        whole = TimeSeriesStore()
        first = TimeSeriesStore()
        second = TimeSeriesStore()
        for t in range(0, 10):
            whole.append(float(t * 10), "m", float(t))
        for t in range(0, 6):
            first.append(float(t * 10), "m", float(t))
        for t in range(6, 10):
            # The second chunk records locally from 0; merge realigns.
            second.append(float(t * 10 - 60), "m", float(t))
        first.merge(second, base_ns=60.0)
        assert first.series("m") == whole.series("m")

    def test_merge_rejects_other_types(self):
        with pytest.raises(ConfigError):
            TimeSeriesStore().merge({})


class TestSLOIntegration:
    def test_health_transitions_carry_fault_attribution(self):
        from repro.experiments.failover import run_failover
        failover = run_failover(seed=0, ops=6_000, capture=True)
        assert failover.fault_log is not None
        assert failover.fault_log.n > 0
        transitions = failover.result.health_transitions
        assert transitions
        # Transition context must carry the dominant hop and exemplars.
        hops = [ctx.get("dominant_hop") for _, _, ctx in transitions]
        assert any(h in HOPS for h in hops)
        tops = [ctx["top_faults"] for _, _, ctx in transitions
                if ctx.get("top_faults")]
        assert tops and all("total_ns" in f for f in tops[0])

    def test_capture_does_not_change_campaign_outcome(self):
        from repro.experiments.failover import run_failover
        plain = run_failover(seed=0, ops=6_000)
        traced = run_failover(seed=0, ops=6_000, capture=True)
        assert traced.fingerprint() == plain.fingerprint()
        assert traced.image_matches and plain.image_matches


def captured_fleet(n):
    rt, _, _ = run_with_capture(n=n)
    fleet = FleetRecorder(name="chains")
    for member in rt.fleet_members():
        fleet.add(member)
    return fleet


class TestFaultChainExport:
    def test_trace_validates_with_flow_events(self):
        payload = captured_fleet(10_000).chrome_trace(top_faults=8)
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"s", "f", "X"} <= phases
        for e in events:
            if e["ph"] in ("s", "t", "f"):
                assert "id" in e
        pids = {e["pid"] for e in events
                if e["ph"] == "X" and e.get("cat") == "fault"}
        assert len(pids) >= 2

    def test_chains_link_runtime_and_fabric_tracks(self):
        fleet = captured_fleet(10_000)
        events = fleet.correlation_events(top=4)
        by_id = {}
        for e in events:
            if e["ph"] in ("s", "t", "f"):
                by_id.setdefault(e["id"], []).append(e["ph"])
        # Every chain starts once and terminates once.
        assert by_id
        for phases in by_id.values():
            assert phases.count("s") == 1 and phases.count("f") == 1
        runtime, fabric = (fleet.member(c).pid for c in ("runtime", "fabric"))
        assert {runtime, fabric} <= {e["pid"] for e in events}

    def test_validator_rejects_flow_without_id(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "s", "ts": 0, "pid": 1, "tid": 1,
             "cat": "fault"}]}
        assert validate_chrome_trace(bad)


class TestFaultLogMergeBasics:
    def test_merge_window_size_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            FaultLog(window_size=256).merge(FaultLog(window_size=512))

    def test_merge_type_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            FaultLog().merge({})

    def test_merge_accumulates_exemplars_exactly(self):
        caps = [CausalCapture(top_k=4) for _ in range(2)]
        whole = CausalCapture(top_k=4)
        rng = np.random.default_rng(5)
        for seq in range(200):
            mem = float(rng.integers(100, 4000))
            part = caps[seq % 2]
            part.record(seq, seq * 64, None, 0, 0.0, 0.0, mem)
            whole.record(seq, seq * 64, None, 0, 0.0, 0.0, mem)
        merged = FaultLog(top_k=4)
        merged.merge(caps[0].log)
        merged.merge(caps[1].log)
        assert merged.exemplars == whole.log.exemplars
