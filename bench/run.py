"""Host-performance benchmark of the Kona simulator.

Usage::

    python bench/run.py [--workload NAME ...] [--seed N] [--rounds R]
                        [--seconds S] [--trace 0|1] [--quick] [--out FILE]

Every (round, workload) pair runs in a fresh child process
(``bench/child.py``), one at a time; workloads take turns round-robin
and the order rotates each round, so slow and fast phases of the host
spread across workloads.  Each end-to-end metric is the median over
rounds, reported with its quartiles and sample count.  With
``--trace 1`` one extra round per workload runs under cProfile and
yields the per-layer host-time table and the simulated counts.

The last stdout line is one JSON object: ``correct``, ``attempted``
(rounds), ``failed`` (rounds that raised, diverged from the oracle,
were nondeterministic or generated unexpected inputs) and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Metric names are prefixed with ``<workload>.`` when
more than one workload runs.  The full report is written to ``--out``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional

import numpy as np

import cases
import layers

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")
SPEC_PATH = os.path.join(cases.ROOT, "BENCHMARK.json")
DEFAULT_OUT = os.path.join(cases.ROOT, ".bench_work", "report.json")

#: A child that runs longer than this is killed and its round failed.
CHILD_TIMEOUT_S = 150.0


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def run_child(workload: str, seed: int, quick: bool, traced: bool) -> dict:
    """Run one round in a fresh process; a crash becomes an ``error``."""
    cmd = [sys.executable, CHILD, workload, str(seed)]
    cmd += ["--quick"] * quick + ["--traced"] * traced
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=cases.ROOT)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"workload": workload,
                "error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def round_failures(rounds: List[dict], pinned: Optional[str]
                   ) -> Dict[int, str]:
    """Round number -> why it failed.  A round fails when it raised,
    diverged from the oracle, generated inputs other than the pinned
    ones, or replayed to a different fingerprint than the first round
    (so a nondeterministic run fails every round after the first)."""
    reference = next((r["digest"] for r in rounds if "digest" in r), None)
    failures = {}
    for i, r in enumerate(rounds, 1):
        if "error" in r:
            failures[i] = r["error"]
        elif r.get("oracle_mismatch"):
            failures[i] = f"oracle mismatch, {r['oracle_mismatch']}"
        elif pinned is not None and r["input_digest"] != pinned:
            failures[i] = (f"input digest {r['input_digest']} != pinned "
                           f"{pinned}")
        elif r["digest"] != reference:
            failures[i] = "fingerprint digest differs from round 1"
    return failures


def distribution(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(rounds: List[dict], traced: Optional[dict],
              pinned: Optional[str], units: Dict[str, str]) -> dict:
    """Aggregate one workload's rounds (and its traced round)."""
    failed = round_failures(rounds, pinned)
    good = [r for i, r in enumerate(rounds, 1) if i not in failed]
    failures = [f"round {i}: {why}" for i, why in failed.items()]
    summary = {"attempted": len(rounds), "failed": len(failed),
               "failed_frac": len(failed) / len(rounds),
               "failures": failures, "end_to_end": {}}
    if good:
        def stats(name: str, key: str) -> dict:
            if name == "throughput_maps":
                values = [r["accesses"] / r[key] / 1e6 for r in good]
            else:
                values = [r[key] for r in good]
            return {**distribution(values), "unit": units[name]}

        summary["end_to_end"] = {
            "throughput_maps": stats("throughput_maps", "replay_s"),
            "setup_s": stats("setup_s", "setup_s"),
            "peak_rss_mb": stats("peak_rss_mb", "peak_rss_mb")}
        # The same two timings in plain wall time, for information.
        summary["wall"] = {
            "throughput_maps": stats("throughput_maps", "replay_wall_s"),
            "setup_s": stats("setup_s", "setup_wall_s")}
    if traced is not None:
        reference = good[0]["digest"] if good else None
        if "error" in traced:
            failures.append(f"traced round: {traced['error']}")
        elif traced["digest"] != reference:
            failures.append("traced round: fingerprint differs from the "
                            "timed rounds")
        elif traced["unmapped_share"] > layers.MAX_UNMAPPED_SHARE:
            failures.append(f"traced round: {traced['unmapped_share']:.1%} "
                            f"of profiled time unmapped")
        else:
            median_wall = statistics.median(r["replay_wall_s"] for r in good)
            values = {**traced["layers"], **traced["sim"],
                      "unmapped.share": traced["unmapped_share"],
                      "trace_overhead_x":
                          traced["replay_wall_s"] / median_wall}
            summary["per_layer"] = {
                name: {"value": value, "unit": units[name]}
                for name, value in values.items()}
            summary["not_exposed"] = traced["not_exposed"]
        summary["traced_failed"] = "per_layer" not in summary
    summary["rounds"] = rounds
    if traced is not None:
        summary["traced"] = traced
    return summary


def schedule(workloads: List[str], rounds: Optional[int]
             ) -> Iterator[List[str]]:
    """Round-robin order, rotated by one workload each round; endless
    when ``rounds`` is None."""
    k = len(workloads)
    for r in itertools.count() if rounds is None else range(rounds):
        yield [workloads[(r + i) % k] for i in range(k)]


def git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=cases.ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host() -> dict:
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "git_sha": git_sha()}


def result_line(report: dict, spec: dict, trace: bool) -> dict:
    """The last stdout line: every end-to-end (``trace`` false) or
    per-layer metric of every workload that ran."""
    section, field = ("per_layer", "value") if trace else ("end_to_end",
                                                            "median")
    multi = len(report["workloads"]) > 1
    metrics = {}
    complete = True
    for name, summary in report["workloads"].items():
        for metric in spec[section]:
            entry = summary.get(section, {}).get(metric["name"])
            if entry is None:
                complete = False
                continue
            key = f"{name}.{metric['name']}" if multi else metric["name"]
            metrics[key] = {"value": entry[field], "unit": entry["unit"]}
    attempted = sum(s["attempted"] + ("traced" in s)
                    for s in report["workloads"].values())
    failed = sum(s["failed"] + s.get("traced_failed", False)
                 for s in report["workloads"].values())
    return {"correct": failed == 0 and complete, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_table(report: dict) -> None:
    print(f"seed {report['seed']}, host {report['host']}")
    for name, s in report["workloads"].items():
        print(f"\n== {name}: {s['attempted']} rounds, {s['failed']} failed, "
              f"failed_frac {s['failed_frac']:.3f}")
        for failure in s["failures"]:
            print(f"   FAIL {failure}")
        rows = list(s["end_to_end"].items()) + [
            (f"{metric} (wall)", d) for metric, d in s.get("wall", {}).items()]
        for metric, d in rows:
            print(f"   {metric:<22} {d['median']:>10.4f} {d['unit']:<12}"
                  f" q1 {d['q1']:.4f}  q3 {d['q3']:.4f}  n={d['n']}")
        per_layer = s.get("per_layer")
        if not per_layer:
            continue
        value = {metric: entry["value"] for metric, entry in per_layer.items()}
        print(f"   {'layer':<10} {'host ns/access':>15} {'share':>7} "
              f"{'calls':>12}")
        for layer in layers.LAYERS:
            print(f"   {layer:<10} {value[layer + '.host_ns_per_access']:>15.1f}"
                  f" {value[layer + '.share']:>7.1%}"
                  f" {value[layer + '.calls']:>12,}")
        print(f"   {'unmapped':<10} {'':>15} {value['unmapped.share']:>7.1%}"
              f"   trace overhead {value['trace_overhead_x']:.2f}x")
        for metric in s["traced"]["sim"]:
            shown = ("n/a" if metric in s["not_exposed"]
                     else f"{value[metric]:,.4g}")
            print(f"   {metric:<34} {shown:>16} {per_layer[metric]['unit']}")
    if report["quick"]:
        print("\nquick run: short traces, not for claims")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=sorted(cases.WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=None,
                        help="timed rounds per workload (default 7, quick "
                             "2; unlimited when --seconds is given)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget for the timed rounds; every "
                             "workload still gets one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="run the traced round and print the "
                             "per-layer metrics last (default 1)")
    parser.add_argument("--quick", action="store_true",
                        help="short traces and 2 rounds; not for claims")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="report JSON path")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    rounds = args.rounds
    if rounds is None and args.seconds is None:
        rounds = 2 if args.quick else 7
    pinned = {} if args.quick else cases.load_pinned().get(str(args.seed), {})

    start = time.perf_counter()
    results: Dict[str, List[dict]] = {w: [] for w in workloads}
    last_s: Dict[str, float] = {}   # wall time of each workload's last round
    for order in schedule(workloads, rounds):
        for w in order:
            # A round starts only if one as long as the workload's last
            # still ends inside the budget.
            if (args.seconds is not None and w in last_s
                    and time.perf_counter() - start + last_s[w]
                    > args.seconds):
                break
            t0 = time.perf_counter()
            results[w].append(run_child(w, args.seed, args.quick, False))
            last_s[w] = time.perf_counter() - t0
        else:
            continue
        break
    traced = {w: run_child(w, args.seed, args.quick, True)
              for w in workloads} if args.trace else {}

    report = {"benchmark": "kona-host-bench", "version": 1,
              "quick": args.quick, "seed": args.seed, "host": host(),
              "created_unix": int(time.time()),
              "workloads": {w: summarize(results[w], traced.get(w),
                                         pinned.get(w), units)
                            for w in workloads}}
    if args.quick:
        report["note"] = "quick run: short traces, not for claims"
    line = result_line(report, spec, bool(args.trace))
    report["result"] = line
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print_table(report)
    print(f"report written to {args.out}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
