"""One benchmark round in a fresh process.

Usage: ``python bench/child.py WORKLOAD SEED [--quick] [--traced]``.

The round sets the workload up (timed as set-up), checks the batched
engine against the scalar oracle on a prefix, collects garbage, then
times one full replay on the runtime set-up built.  Set-up and replay
are timed both as wall time and in reference-host seconds (see
``probe.py``).  A ``--traced`` round skips the oracle check and runs
the replay under cProfile, without the probe, to attribute host time
to layers; it is never reported as a timed run.  The round prints one
JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import shutil
import sys
import tempfile
import time

import cases
import layers
import probe

WORK_DIR = os.path.join(cases.ROOT, ".bench_work")


def run_round(name: str, seed: int, quick: bool, traced: bool) -> dict:
    """Execute one round; returns what the parent aggregates."""
    case = cases.WORKLOADS[name]
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    speed = probe.SpeedProbe()
    try:
        with speed.region("setup"):
            state = case.setup(seed, quick, workdir, traced)
        out = {"workload": name, "seed": seed, "quick": quick,
               "traced": traced, "input_digest": cases.input_digest(
                   case.replayed_inputs(state))}
        if not traced:
            out["oracle_mismatch"] = case.oracle(state, workdir)
        gc.collect()
        if traced:
            profiler = cProfile.Profile()
            t0 = time.perf_counter()
            profiler.enable()
            result = case.replay(state)
            profiler.disable()
            out["replay_wall_s"] = time.perf_counter() - t0
        else:
            with speed.region("replay"):
                result = case.replay(state)
            out["replay_wall_s"] = speed.wall_s("replay")
            out["replay_s"] = speed.fast_s("replay")
        out["setup_wall_s"] = speed.wall_s("setup")
        out["setup_s"] = speed.fast_s("setup")
        out["accesses"] = result.accesses
        out["digest"] = cases.digest(case.fingerprint(state, result))
        if traced:
            out["layers"], out["unmapped_share"] = layers.layer_metrics(
                pstats.Stats(profiler).stats, out["accesses"])
            out["sim"] = case.sim_counts(state, result)
            out["not_exposed"] = list(case.not_exposed)
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(cases.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    out = run_round(args.workload, args.seed, args.quick, args.traced)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
