"""Self-tests of the benchmark harness.

Run with ``python -m pytest bench/``; they are not part of the tier-1
suite.  The quick end-to-end run takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import cases
import layers
import probe
import run

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")


def test_every_package_module_maps_to_a_layer():
    unmapped = []
    for dirpath, _, files in os.walk(layers.PACKAGE_DIR):
        for name in files:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, name),
                                      layers.PACKAGE_DIR)
                if layers.module_layer(rel) not in layers.LAYERS:
                    unmapped.append(rel)
    assert unmapped == []


def _func(rel, name):
    return (os.path.join(layers.PACKAGE_DIR, rel), 1, name)


@pytest.mark.parametrize("rel,name,layer", [
    ("kona/engine.py", "_run_span", "frontend"),
    ("kona/engine.py", "drain_page_addr", "eviction"),
    ("kona/engine.py", "replay", "miss_lane"),
    ("kona/engine.py", "a_path_added_later", "miss_lane"),
    ("kona/runtime.py", "maybe_evict", "eviction"),
    ("kona/runtime.py", "run_trace", "runtime"),
    ("coherence/directory.py", "get", "directory"),
    ("experiments/shard.py", "_aligned_chunks", "trace_io"),
])
def test_function_layers(rel, name, layer):
    assert layers.function_layer(_func(rel, name)) == layer


def test_outside_time_is_charged_to_the_nearest_package_caller():
    directory = _func("coherence/directory.py", "get")
    evict = _func("kona/eviction.py", "evict_page")
    wrapper = ("/site-packages/numpy/_core/fromnumeric.py", 1, "sum")
    builtin = ("~", 0, "<method 'reduce' of 'numpy.ufunc' objects>")
    # pstats rows: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
    raw = {
        directory: (1, 1, 1.0, 4.0, {}),
        evict: (1, 1, 2.0, 4.0, {}),
        # The wrapper is called 3:1 (by cumulative time) from the
        # directory and from eviction; the builtin only by the wrapper.
        wrapper: (4, 4, 0.4, 2.4, {directory: (3, 3, 0.3, 1.8),
                                   evict: (1, 1, 0.1, 0.6)}),
        builtin: (4, 4, 2.0, 2.0, {wrapper: (4, 4, 2.0, 2.0)}),
        ("~", 0, "<built-in method time.perf_counter>"):
            (1, 1, 0.5, 0.5, {}),
    }
    table = layers.attribute(raw)
    assert table["directory"]["seconds"] == pytest.approx(1.0 + 0.3 + 1.5)
    assert table["eviction"]["seconds"] == pytest.approx(2.0 + 0.1 + 0.5)
    assert table[layers.UNMAPPED]["seconds"] == pytest.approx(0.5)
    assert table["directory"]["calls"] == pytest.approx(1 + 3 + 3)


def test_speed_probe_scales_each_slice_by_the_probe_after_it():
    speed = probe.SpeedProbe()
    ref = probe.REF_S
    # A slice probed at half speed, one at the reference speed, and a
    # tail that takes the last probe's speed.
    speed._slices["replay"] = [(1.0, 2 * ref), (1.0, ref), (0.5, None)]
    assert speed.wall_s("replay") == 2.5
    assert speed.fast_s("replay") == pytest.approx(0.5 + 1.0 + 0.5)


def test_speed_probe_samples_a_region_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    speed = probe.SpeedProbe()
    t0 = time.perf_counter()
    with speed.region("busy"):
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    elapsed = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) == previous
    assert sum(p is not None for _, p in speed._slices["busy"]) >= 10
    wall = speed.wall_s("busy")
    assert wall < elapsed
    assert speed.fast_s("busy") > 0
    with speed.region("short"):
        pass
    assert speed.fast_s("short") == speed.wall_s("short")


def test_generators_are_deterministic_and_match_the_pinned_digests():
    assert cases.pinned_digests() == cases.load_pinned()
    hot = cases.WORKLOADS["hot-reuse"]
    assert (cases.input_digest(hot.inputs(5, quick=True))
            == cases.input_digest(hot.inputs(5, quick=True))
            != cases.input_digest(hot.inputs(6, quick=True)))


def _round(**overrides):
    good = {"digest": "d", "input_digest": "i", "oracle_mismatch": None,
            "accesses": 1000, "replay_s": 0.5, "replay_wall_s": 0.6,
            "setup_s": 0.1, "setup_wall_s": 0.12, "peak_rss_mb": 100.0}
    return {**good, **overrides}


def test_injected_fingerprint_mismatches_count_as_failures():
    units = {"throughput_maps": "Maccesses/s", "setup_s": "s",
             "peak_rss_mb": "MB"}
    rounds = [_round(), _round(digest="other"),
              _round(oracle_mismatch="differs in elapsed_ns"),
              _round(input_digest="moved"), _round(error="exit 1: boom"),
              _round(replay_s=0.25)]
    summary = run.summarize(rounds, None, "i", units)
    assert summary["failed"] == 4
    assert summary["failed_frac"] == pytest.approx(4 / 6)
    assert summary["end_to_end"]["throughput_maps"]["n"] == 2


def test_oracle_comparison_reports_the_differing_sections(monkeypatch):
    real = cases.runtime_fingerprint
    calls = []

    def perturbed(rt, report, capture=None):
        fp = real(rt, report, capture)
        calls.append(fp)
        if len(calls) == 1:          # the scalar oracle's fingerprint
            fp["elapsed_ns"] += 1.0
        return fp

    monkeypatch.setattr(cases, "runtime_fingerprint", perturbed)
    case = cases.WORKLOADS["hot-reuse"]
    state = case.setup(3, quick=True, workdir="")
    assert case.oracle(state, "") == "differs in elapsed_ns"


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "report.json"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, RUN, "--quick", "--out",
                           str(out)], capture_output=True, text=True,
                          timeout=300)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        return proc.stdout, json.load(fh), elapsed


def test_quick_run_finishes_and_is_marked_not_for_claims(quick_run):
    stdout, report, elapsed = quick_run
    assert elapsed < 60
    assert report["quick"] is True
    assert "not for claims" in stdout
    line = json.loads(stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert set(report["host"]) >= {"cpu_count", "python", "numpy",
                                   "git_sha"}


def test_report_has_every_benchmark_metric_with_its_unit(quick_run):
    stdout, report, _ = quick_run
    spec = run.load_spec()
    assert list(report["workloads"]) == [w["name"]
                                         for w in spec["workloads"]]
    line = json.loads(stdout.strip().splitlines()[-1])
    for name, summary in report["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                entry = summary[section][metric["name"]]
                assert entry["unit"] == metric["unit"]
        for metric in spec["per_layer"]:
            assert (line["metrics"][f"{name}.{metric['name']}"]["unit"]
                    == metric["unit"])


def test_capture_records_only_on_write_stream(quick_run):
    _, report, _ = quick_run
    for name, summary in report["workloads"].items():
        records = summary["per_layer"]["telemetry.capture_records"]["value"]
        assert (records > 0) == (name == "write-stream")


def test_single_workload_prints_unprefixed_end_to_end_metrics(tmp_path):
    proc = subprocess.run(
        [sys.executable, RUN, "--quick", "--workload", "hot-reuse",
         "--seed", "11", "--rounds", "1", "--trace", "0",
         "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = run.load_spec()
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert line["attempted"] == 1


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--quick"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
