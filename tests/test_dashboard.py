"""Cluster dashboard rendering: valid from every fleet source.

The dashboard must render a faithful, self-contained report from any
fleet artifact — a failover chaos campaign and a multi-process sharded
replay are the two canonical producers — with no external assets and
no information encoded in color alone.
"""

import json

import pytest

from repro.experiments.failover import run_failover
from repro.obs import validate_chrome_trace
from repro.obs.dashboard import (
    dashboard_html,
    dashboard_text,
    write_dashboard,
)
from repro.obs.fleet import FleetRecorder


@pytest.fixture(scope="module")
def failover_fleet():
    result = run_failover(seed=0, ops=6_000, capture=True, fleet=True,
                          tenant="tenant-a")
    assert result.fleet is not None
    return result.fleet


@pytest.fixture(scope="module")
def sharded_fleet(tmp_path_factory):
    from repro.experiments.shard import make_shards, run_sharded
    from repro.workloads.trace import generate_hot_mix_stream
    import repro.common.units as u
    path = str(tmp_path_factory.mktemp("dash") / "hot.trace")
    generate_hot_mix_stream(path, 30_000, hot_lines=4096,
                            region_bytes=16 * u.MB, seed=11,
                            chunk_size=1 << 13)
    result = run_sharded(
        make_shards(path, 2, chunk_size=1 << 13, fmem_mb=4, vfmem_mb=32,
                    capture=True, fleet=True, tenant="tenant-b"),
        processes=2)
    return result.fleet()


class TestFailoverDashboard:
    def test_text_summary_has_all_sections(self, failover_fleet):
        text = dashboard_text(failover_fleet)
        assert "runtime:failover" in text
        assert "memnode:mem0" in text
        assert "fabric" in text
        assert "tenant-a" in text
        assert "park-drained" in text          # SLO verdicts
        assert "DEGRADED" in text              # health timeline

    def test_html_is_self_contained(self, failover_fleet):
        html = dashboard_html(failover_fleet)
        assert html.startswith("<!doctype html>")
        # No external assets: every style, script and graphic inline.
        assert 'src="http' not in html
        assert 'href="http' not in html
        assert "<link" not in html
        assert "@import" not in html

    def test_html_covers_components_slos_and_health(self, failover_fleet):
        html = dashboard_html(failover_fleet)
        for component in failover_fleet.components():
            assert component in html
        assert "park-drained" in html
        # Health states are rendered as text labels (chips carry the
        # state name, never color alone).
        assert "DEGRADED" in html
        assert "HEALTHY" in html
        assert "prefers-color-scheme: dark" in html

    def test_html_has_inline_svg_sparklines(self, failover_fleet):
        html = dashboard_html(failover_fleet)
        assert "<svg" in html and "polyline" in html

    def test_write_dashboard_round_trip(self, failover_fleet, tmp_path):
        path = write_dashboard(failover_fleet,
                               str(tmp_path / "dash.html"))
        content = open(path).read()
        assert content == dashboard_html(failover_fleet)

    def test_fleet_chrome_trace_valid_with_flows(self, failover_fleet):
        payload = failover_fleet.chrome_trace()
        assert validate_chrome_trace(payload) == []
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert {"s", "f"} <= phases, "no correlation flow arrows"

    def test_artifact_renders_after_round_trip(self, failover_fleet,
                                               tmp_path):
        path = failover_fleet.save(str(tmp_path / "fleet.json"))
        loaded = FleetRecorder.load(path)
        assert dashboard_html(loaded) == dashboard_html(failover_fleet)
        assert dashboard_text(loaded) == dashboard_text(failover_fleet)


class TestShardedDashboard:
    def test_text_names_every_shard_component(self, sharded_fleet):
        text = dashboard_text(sharded_fleet)
        assert "runtime:shard0" in text
        assert "runtime:shard1" in text
        assert "memnode:shard0.mem0" in text
        assert "tenant-b" in text

    def test_html_renders_from_multiprocess_capture(self, sharded_fleet):
        html = dashboard_html(sharded_fleet)
        assert html.startswith("<!doctype html>")
        assert "runtime:shard1" in html
        assert 'src="http' not in html

    def test_chrome_trace_valid(self, sharded_fleet):
        assert validate_chrome_trace(sharded_fleet.chrome_trace()) == []


class TestDashboardCli:
    def test_from_artifact_to_html(self, failover_fleet, tmp_path,
                                   capsys):
        from repro.cli import main
        artifact = failover_fleet.save(str(tmp_path / "fleet.json"))
        html_out = str(tmp_path / "dash.html")
        trace_out = str(tmp_path / "fleet-trace.json")
        assert main(["dashboard", "--from-artifact", artifact,
                     "--html", html_out, "--trace-out", trace_out]) == 0
        out = capsys.readouterr().out
        assert "runtime:failover" in out
        assert open(html_out).read().startswith("<!doctype html>")
        payload = json.load(open(trace_out))
        assert validate_chrome_trace(payload) == []


class TestAttributionGate:
    """The report fails when the fault log cannot explain an outage."""

    def test_blind_attribution_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.causal import CausalCapture
        from repro.obs.fleet import ComponentSnapshot
        cap = CausalCapture()
        cap.on_health("DEGRADED")
        for seq in range(64):
            # Outage-window faults served from FMem: mem-dominated only.
            cap.record(seq, seq * 64, None, 0, 0.0, 0.0, 500.0)
        fleet = FleetRecorder(name="blind").add(ComponentSnapshot(
            component="runtime", fault_log=cap.log.to_json()))
        path = fleet.save(str(tmp_path / "blind.json"))
        with pytest.raises(SystemExit) as exc:
            main(["dashboard", "--from-artifact", path])
        assert exc.value.code == 1
        assert "attribution is blind" in capsys.readouterr().out

    def test_failover_fleet_passes(self, failover_fleet, tmp_path, capsys):
        from repro.cli import main
        log = failover_fleet.fault_log()
        assert log.health_counts[1] + log.health_counts[2] > 0
        path = failover_fleet.save(str(tmp_path / "fleet.json"))
        assert main(["dashboard", "--from-artifact", path]) == 0
        out = capsys.readouterr().out
        assert "Per-hop stall budget" in out
        assert "Slowest fault chains" in out
