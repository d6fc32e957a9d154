"""Tests for the trace profiler: forests, self time, stalls."""

import pytest

from repro.common.errors import ConfigError
from repro.obs import (
    build_forest,
    critical_path,
    profile,
    stall_windows,
    top_stalls,
)


def x(name, cat, ts, dur):
    """One complete (X) trace event in ns."""
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur}


def sample_events():
    """Two roots; the first nests a child chain and a sibling leaf."""
    return [
        x("fetch.fill", "fetch", 0.0, 100.0),
        x("rdma.read", "rdma", 10.0, 30.0),
        x("net.wire", "net", 12.0, 5.0),
        x("evict.page", "evict", 50.0, 20.0),
        x("fetch.fill", "fetch", 200.0, 50.0),
        {"name": "blip", "cat": "health", "ph": "i", "ts": 5.0},
        {"name": "g", "ph": "C", "ts": 6.0, "args": {"v": 1}},
    ]


class TestForest:
    def test_nesting_reconstructed(self):
        roots = build_forest(sample_events())
        assert [r.name for r in roots] == ["fetch.fill", "fetch.fill"]
        first = roots[0]
        assert [c.name for c in first.children] == ["rdma.read",
                                                    "evict.page"]
        assert [g.name for g in first.children[0].children] == ["net.wire"]
        assert first.children[0].children[0].depth == 2

    def test_non_x_events_ignored(self):
        roots = build_forest([e for e in sample_events()
                              if e["ph"] != "X"])
        assert roots == []

    def test_self_time(self):
        roots = build_forest(sample_events())
        first = roots[0]
        assert first.self_ns == 100.0 - (30.0 + 20.0)
        assert first.children[0].self_ns == 30.0 - 5.0
        assert roots[1].self_ns == 50.0


class TestProfile:
    def test_self_time_conservation(self):
        report = profile(sample_events())
        assert report.total_ns == 150.0
        # Self times over the forest sum back to the root durations.
        assert report.self_total_ns == pytest.approx(report.total_ns)
        assert report.coverage == pytest.approx(1.0)

    def test_empty_trace_coverage_is_one(self):
        assert profile([]).coverage == 1.0

    def test_by_name_aggregation(self):
        report = profile(sample_events())
        fill = report.by_name["fetch.fill"]
        assert fill.count == 2
        assert fill.total_ns == 150.0
        assert fill.self_ns == 100.0

    def test_by_category_aggregation(self):
        report = profile(sample_events())
        assert set(report.by_category) == {"fetch", "rdma", "net", "evict"}
        assert report.by_category["net"].self_ns == 5.0

    def test_top_spans_sorted_by_self(self):
        report = profile(sample_events())
        tops = report.top_spans(2)
        assert tops[0].key == "fetch.fill"
        assert tops[0].self_ns >= tops[1].self_ns

    def test_top_spans_bad_key_raises(self):
        with pytest.raises(ConfigError):
            profile(sample_events()).top_spans(key="dur_ns")


class TestCriticalPath:
    def test_follows_longest_chain(self):
        path = critical_path(build_forest(sample_events()))
        assert [(step[0], step[1]) for step in path] == [
            (0, "fetch.fill"), (1, "rdma.read"), (2, "net.wire")]

    def test_empty_forest(self):
        assert critical_path([]) == []


class TestStallWindows:
    def test_attribution_by_start_window(self):
        windows = stall_windows(build_forest(sample_events()), 100.0)
        # Window (0,100]: root self 50 + rdma self 25 + net 5 + evict 20;
        # window (200,300]: the second root's 50.
        assert windows == [
            (100.0, {"fetch": 50.0, "rdma": 25.0, "net": 5.0,
                     "evict": 20.0}),
            (300.0, {"fetch": 50.0})]

    def test_category_filter(self):
        windows = stall_windows(build_forest(sample_events()), 100.0,
                                categories=("rdma", "net"))
        assert windows == [(100.0, {"rdma": 25.0, "net": 5.0})]

    def test_invalid_window_raises(self):
        with pytest.raises(ConfigError):
            stall_windows([], 0.0)

    def test_top_stalls_ranked(self):
        windows = stall_windows(build_forest(sample_events()), 100.0)
        top = top_stalls(windows, n=2)
        assert top[0][1][0] == ("fetch", 50.0)
        assert len(top[0][1]) == 2


class TestRealTrace:
    def test_flight_campaign_coverage_within_one_percent(self):
        # The acceptance bar: profiling a real traced campaign, the
        # self-time attribution reconstructs total traced time.
        from repro.experiments.chaos import run_chaos

        run = run_chaos(seed=0, ops=3_000, tracing=True)
        report = profile(run.recorder.tracer.events)
        assert report.total_ns > 0
        assert abs(report.coverage - 1.0) < 0.01
        assert "fetch" in report.by_category
