"""Tests for the command-line interface."""

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_all_commands_parse(self):
        parser = build_parser()
        for name in COMMANDS:
            args = parser.parse_args([name])
            assert args.command == name

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_options(self):
        args = build_parser().parse_args(["fig7", "--region-mb", "8"])
        assert args.region_mb == 8

    def test_chaos_campaign_default_and_choices(self):
        args = build_parser().parse_args(["chaos"])
        assert args.campaign == "node-failure"
        args = build_parser().parse_args(
            ["chaos", "--campaign", "memnode-failover",
             "--trace-out", "fo.json"])
        assert args.campaign == "memnode-failover"
        assert args.trace_out == "fo.json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--campaign", "bogus"])


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            assert name in out

    def test_fig11c_prints_breakdown(self, capsys):
        assert main(["fig11c"]) == 0
        out = capsys.readouterr().out
        assert "copy" in out and "bitmap" in out

    def test_fig10_prints_workloads(self, capsys):
        assert main(["fig10"]) == 0
        out = capsys.readouterr().out
        assert "redis-rand" in out

    def test_fig11a_prints_strategies(self, capsys):
        assert main(["fig11a"]) == 0
        out = capsys.readouterr().out
        assert "kona-cl-log" in out

    def test_table2_small(self, capsys):
        assert main(["table2", "--windows", "3"]) == 0
        out = capsys.readouterr().out
        assert "voltdb-tpcc" in out
        assert "paper 4KB" in out

    def test_sweep_prints_tables(self, capsys):
        assert main(["sweep", "--ops", "2000", "--processes", "1"]) == 0
        out = capsys.readouterr().out
        assert "redis-rand" in out and "kona" in out

    def test_bench_quick_writes_report(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "uniform-stress" in out and "speedup" in out
        assert out_path.exists()

    def test_bench_gate_failure_exits_nonzero(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        with pytest.raises(SystemExit):
            main(["bench", "--quick", "--output", str(out_path),
                  "--min-speedup", "1000"])

    def test_profile_prints_self_time(self, capsys):
        # The dashboard's self-run campaign is traced, so its report
        # carries the runtime member's trace profile.
        assert main(["dashboard", "--ops", "3000"]) == 0
        out = capsys.readouterr().out
        assert "Critical path" in out
        assert "self-time coverage: 1.0000" in out
        assert "rdma" in out

    def test_perfdiff_identical_seeds_clean(self, capsys):
        assert main(["perfdiff", "--trace-ops", "2000"]) == 0
        out = capsys.readouterr().out
        assert "0 significant" in out
        assert "clean" in out

    def test_perfdiff_artifacts_and_report(self, capsys, tmp_path):
        import json

        from repro.obs.fleet import ComponentSnapshot, FleetRecorder

        for name, x in (("a", 1.0), ("b", 5.0)):
            fleet = FleetRecorder(name=name)
            fleet.add(ComponentSnapshot(component="runtime",
                                        metrics={"x": x}))
            fleet.save(str(tmp_path / f"{name}.json"))
        report = tmp_path / "diff.json"
        with pytest.raises(SystemExit):
            main(["perfdiff", "--run-a", str(tmp_path / "a.json"),
                  "--run-b", str(tmp_path / "b.json"),
                  "--report", str(report)])
        out = capsys.readouterr().out
        assert "NOT clean" in out
        payload = json.loads(report.read_text())
        assert payload["clean"] is False
        assert payload["significant"][0]["name"] == "runtime/x"

    def test_perfdiff_self_run_fails_when_runs_differ(self, capsys,
                                                      monkeypatch):
        from types import SimpleNamespace

        from repro.obs.fleet import ComponentSnapshot, FleetRecorder

        values = iter([1.0, 2.0])

        def fake_run(**kw):
            fleet = FleetRecorder(name="run").add(ComponentSnapshot(
                component="runtime", metrics={"x": next(values)}))
            return SimpleNamespace(fleet=fleet)

        monkeypatch.setattr("repro.cli.run_chaos", fake_run)
        with pytest.raises(SystemExit) as exc:
            main(["perfdiff"])
        assert exc.value.code == 1
        assert "NOT clean" in capsys.readouterr().out

    def test_slo_prints_alerts_and_verdicts(self, capsys):
        assert main(["chaos", "--ops", "4000"]) == 0
        out = capsys.readouterr().out
        assert "Alert timeline" in out
        assert "DEGRADED" in out
        assert "burn" in out
        assert "SLO compliance" in out
        assert "DEGRADED transition explained by" in out

    @staticmethod
    def _fake_chaos(passed: bool, alerts):
        from repro.chaos import CampaignResult, InvariantCheck
        from repro.experiments.chaos import ChaosRun
        from repro.kona.telemetry import TelemetrySnapshot
        from repro.obs import FlightRecorder, SLOEngine, TimeSeriesStore

        result = CampaignResult(
            seed=0, accesses=1, faulted_accesses=0, timeline=[],
            window_amat_ns=[], pre_fault_amat_ns=1.0,
            post_recovery_amat_ns=1.0)
        result.invariants = [InvariantCheck(
            name="writeback_conservation", passed=passed, detail="boom")]
        result.telemetry = TelemetrySnapshot(data={"health": {}})
        result.health_transitions = [(1.0, "DEGRADED", {"alerts": alerts})]
        return ChaosRun(result=result, recorder=FlightRecorder(),
                        engine=SLOEngine(TimeSeriesStore(), []))

    def test_chaos_exits_nonzero_on_invariant_violation(self, capsys,
                                                        monkeypatch):
        result = self._fake_chaos(passed=False, alerts=["x: burn 9x"])
        monkeypatch.setattr("repro.cli.run_chaos", lambda **kw: result)
        with pytest.raises(SystemExit) as exc:
            main(["chaos"])
        assert exc.value.code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_chaos_exits_nonzero_without_degraded_alert(self, capsys,
                                                        monkeypatch):
        result = self._fake_chaos(passed=True, alerts=[])
        monkeypatch.setattr("repro.cli.run_chaos", lambda **kw: result)
        with pytest.raises(SystemExit) as exc:
            main(["chaos"])
        assert exc.value.code == 1
        out = capsys.readouterr().out
        assert "Recovery invariants held" in out
        assert "no burn-rate alert attached to a DEGRADED" in out

    @staticmethod
    def _fake_failover(passed: bool):
        from repro.chaos import CampaignResult, InvariantCheck
        from repro.experiments.failover import FailoverResult
        from repro.kona.telemetry import TelemetrySnapshot
        from repro.obs import FlightRecorder, SLOEngine, TimeSeriesStore

        result = CampaignResult(
            seed=0, accesses=1, faulted_accesses=0, timeline=[],
            window_amat_ns=[], pre_fault_amat_ns=1.0,
            post_recovery_amat_ns=1.0)
        result.invariants = [InvariantCheck(
            name="durability_image_match", passed=passed, detail="image")]
        result.telemetry = TelemetrySnapshot(data={})
        return FailoverResult(
            result=result, recorder=FlightRecorder(),
            engine=SLOEngine(TimeSeriesStore(), []), image_lines=1,
            oracle_lines=1, image_matches=passed, image_digest="cafe",
            mttr_ns=0.0, failovers=1, promotions=1, scrub_repairs=0)

    def test_failover_campaign_exits_nonzero_on_violation(
            self, capsys, monkeypatch):
        fake = self._fake_failover(passed=False)
        monkeypatch.setattr("repro.cli.run_failover", lambda **kw: fake)
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--campaign", "memnode-failover"])
        assert exc.value.code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_failover_campaign_exits_zero_when_proof_holds(
            self, capsys, monkeypatch):
        fake = self._fake_failover(passed=True)
        monkeypatch.setattr("repro.cli.run_failover", lambda **kw: fake)
        assert main(["chaos", "--campaign", "memnode-failover"]) == 0
        out = capsys.readouterr().out
        assert "Durability proof" in out
        assert "bit-identical" in out

    def test_trace_gen_replay_round_trip(self, capsys, tmp_path):
        import json

        trace = tmp_path / "hot.trace"
        assert main(["trace-gen", "--out", str(trace),
                     "--accesses", "20000", "--hot-lines", "2048",
                     "--region-mb", "8", "--chunk", "8192"]) == 0
        out = capsys.readouterr().out
        assert "columnar trace" in out and "20,000 accesses" in out
        assert main(["trace-replay", "--input", str(trace),
                     "--chunk", "8192", "--fmem-mb", "4",
                     "--vfmem-mb", "32",
                     "--rss-ceiling-mb", "4096"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["accesses"] == 20000
        assert summary["cache_hits"] + summary["cache_misses"] == 20000
        assert summary["elapsed_model_ns"] > 0
        assert summary["peak_rss_mb"] > 0

    def test_trace_replay_sharded_matches_totals(self, capsys, tmp_path):
        import json

        trace = tmp_path / "hot.trace"
        main(["trace-gen", "--out", str(trace), "--accesses", "20000",
              "--hot-lines", "2048", "--region-mb", "8",
              "--chunk", "8192"])
        capsys.readouterr()
        assert main(["trace-replay", "--input", str(trace),
                     "--chunk", "8192", "--fmem-mb", "4",
                     "--vfmem-mb", "32", "--shards", "2",
                     "--processes", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert sum(summary["per_shard_accesses"]) == 20000

    def test_trace_replay_rss_ceiling_enforced(self, capsys, tmp_path):
        trace = tmp_path / "hot.trace"
        main(["trace-gen", "--out", str(trace), "--accesses", "8192",
              "--hot-lines", "512", "--region-mb", "4",
              "--chunk", "4096"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["trace-replay", "--input", str(trace),
                  "--chunk", "4096", "--fmem-mb", "4",
                  "--vfmem-mb", "32", "--rss-ceiling-mb", "1"])
        assert exc.value.code == 1

    def test_trace_replay_rejects_misaligned_chunk(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace-replay", "--input", str(tmp_path),
                  "--chunk", "300"])

    def test_trace_convert_round_trip(self, capsys, tmp_path):
        import numpy as np

        from repro.common import units
        from repro.workloads.trace import load_trace, make_trace, save_trace

        npz_a = tmp_path / "a.npz"
        columnar = tmp_path / "b.trace"
        npz_b = tmp_path / "c.npz"
        rng = np.random.default_rng(3)
        n = 5000
        trace = make_trace(
            (rng.integers(0, 1 << 16, n).astype(np.uint64)
             * np.uint64(units.CACHE_LINE)),
            np.full(n, units.WORD, np.uint32),
            rng.random(n) < 0.3,
            rng.integers(0, 4, n).astype(np.uint32),
            memory_bytes=16 * units.MB, name="rand")
        save_trace(trace, npz_a)
        assert main(["trace-convert", "--input", str(npz_a),
                     "--out", str(columnar), "--to", "columnar"]) == 0
        assert "columnar trace" in capsys.readouterr().out
        assert main(["trace-convert", "--input", str(columnar),
                     "--out", str(npz_b), "--to", "npz"]) == 0
        assert "npz trace" in capsys.readouterr().out
        again = load_trace(npz_b)
        assert np.array_equal(again.data, trace.data)
        assert again.memory_bytes == trace.memory_bytes

    def test_trace_writes_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace
        from repro.obs.fleet import FleetRecorder

        trace = tmp_path / "trace.json"
        fleet = tmp_path / "fleet.json"
        assert main(["chaos", "--ops", "4000", "--trace-out", str(trace),
                     "--fleet-out", str(fleet)]) == 0
        out = capsys.readouterr().out
        assert "chrome trace" in out and "fleet artifact" in out
        payload = json.loads(trace.read_text())
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"]}
        assert "fetch.fill" in names and "evict.page" in names
        loaded = FleetRecorder.load(str(fleet))
        assert "runtime:chaos" in loaded.components()
        assert loaded.member("runtime:chaos").slo
        prom = tmp_path / "metrics.prom"
        assert main(["dashboard", "--from-artifact", str(fleet),
                     "--prom", str(prom)]) == 0
        text = prom.read_text()
        assert text.startswith("# ")
        assert 'kona_access_stall_ns_count{component="runtime:chaos"' in text

    def test_invalid_trace_is_refused(self, capsys, tmp_path,
                                      monkeypatch):
        from repro.obs.fleet import ComponentSnapshot, FleetRecorder

        artifact = FleetRecorder(name="tiny").add(
            ComponentSnapshot(component="runtime", metrics={"x": 1}))
        path = artifact.save(str(tmp_path / "fleet.json"))
        monkeypatch.setattr(FleetRecorder, "chrome_trace",
                            lambda self: {"traceEvents": [{"ph": "X"}]})
        trace = tmp_path / "trace.json"
        with pytest.raises(SystemExit) as exc:
            main(["dashboard", "--from-artifact", path,
                  "--trace-out", str(trace)])
        assert exc.value.code == 1
        assert "INVALID" in capsys.readouterr().err
        assert not trace.exists()

    @pytest.mark.parametrize("command", ["dashboard", "perfdiff"])
    @pytest.mark.parametrize("bad", ["missing", "not-json", "not-fleet"])
    def test_bad_artifact_fails_in_one_line(self, capsys, tmp_path,
                                            command, bad):
        path = tmp_path / f"{bad}.json"
        if bad == "not-json":
            path.write_text("{not json")
        elif bad == "not-fleet":
            path.write_text('{"format": "repro-run-artifact"}\n')
        argv = (["dashboard", "--from-artifact", str(path)]
                if command == "dashboard"
                else ["perfdiff", "--run-a", str(path), "--run-b",
                      str(path)])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert str(path) in err
