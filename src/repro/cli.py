"""Command-line interface: regenerate any paper table or figure.

Usage::

    python -m repro list
    python -m repro table2
    python -m repro fig7 [--region-mb 16]
    python -m repro fig8 | fig8d | fig9 | fig10
    python -m repro fig11a | fig11b | fig11c
    python -m repro sections
    python -m repro chaos [--seed 0] [--ops 40000]
                          [--campaign node-failure|memnode-failover]
                          [--trace-out FILE] [--fleet-out FILE]
                          [--tenant NAME]
    python -m repro dashboard [--from-artifact FLEET.json] [--html FILE]
                              [--fleet-out FILE] [--trace-out FILE]
                              [--prom FILE] [--tenant NAME]
                              [--seed 0] [--ops 40000]
    python -m repro perfdiff [--run-a FLEET.json --run-b FLEET.json]
                             [--seed 0] [--trace-ops 8000]
                             [--rel-tol 0.01] [--report FILE]
    python -m repro sweep [--processes N] [--ops 40000]
    python -m repro bench [--suite kcachesim|runtime] [--quick]
                          [--min-speedup 1.0] [--output FILE]
    python -m repro trace-gen --out DIR [--accesses N] [--chunk N]
                              [--hot-lines N] [--cold-fraction F]
                              [--region-mb MB] [--write-fraction F]
    python -m repro trace-convert --input SRC --out DST
                                  [--to columnar|npz]
    python -m repro trace-replay --input DIR [--chunk N] [--shards N]
                                 [--engine batched|scalar]
                                 [--processes N] [--rss-ceiling-mb MB]
                                 [--fleet-out FILE] [--tenant NAME]
    python -m repro all

Each command prints the regenerated rows/series next to the paper's
reference values.  ``bench --suite runtime --min-speedup X`` is the
perf gate: it fails when the canonical speedup is below X, when any
case is below the floor derived for that exact case (or has none),
and when capture or fleet overhead exceeds its 1.15x budget.

Observability has one run artifact and one report.  ``chaos`` runs a
monitored campaign and can save its fleet artifact (``--fleet-out``)
and Chrome trace (``--trace-out``); ``dashboard`` renders a fleet
artifact (SLOs, health, fault attribution, trace profile) and
``perfdiff`` compares two.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Dict, List

from . import units
from .analysis import paper, render_comparison, render_series, render_table
from .common.errors import ConfigError
from .experiments import (
    run_chaos,
    run_failover,
    run_fig7,
    run_fig8_amat,
    run_fig8d_blocksize,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig11c_breakdown,
    run_sec21_motivation,
    run_sec61_baseline_parity,
    run_sec62_simulation_overhead,
    run_headline,
    run_sec63_tracker_overhead,
    run_table2,
)
from .experiments.bench import (
    BENCH_FILENAME,
    RUNTIME_BENCH_FILENAME,
    RUNTIME_FLOORS,
    check_speedup,
    run_bench,
    run_runtime_bench,
    write_bench,
)
from .experiments.fig8 import SYSTEMS, best_block
from .experiments.sweep import run_sweep, sweep_grid
from .obs import (
    FleetRecorder,
    diff_runs,
    fleet_view,
    prometheus_text,
    write_chrome_trace,
)


def cmd_table2(args: argparse.Namespace) -> None:
    """Table 2: dirty data amplification."""
    result = run_table2(windows=args.windows)
    print(render_table(
        ["workload", "4KB", "2MB", "64B",
         "paper 4KB", "paper 2MB", "paper 64B"],
        result.rows(), title="Table 2 (measured vs paper)"))


def cmd_fig7(args: argparse.Namespace) -> None:
    """Figure 7: Kona vs Kona-VM microbenchmark."""
    result = run_fig7(region_bytes=args.region_mb * units.MB)
    rows = [(s, t, round(sec, 4)) for s, t, sec in result.rows()]
    print(render_table(["system", "threads", "time (s)"], rows,
                       title="Figure 7"))
    print()
    print(render_table(
        ["threads", "kona vs kona-vm", "paper"],
        [(t, round(result.speedup(t), 2),
          "6.6X" if t == 1 else "4-5X") for t in (1, 2, 4)]))
    print(f"\nNoEvict speedup: {result.noevict_speedup():.1f}X "
          f"(paper: 3-5X); NoWP slowdown vs Kona: "
          f"{result.nowp_slowdown():.1f}X (paper: 1.2-2.9X)")


def cmd_fig8(args: argparse.Namespace) -> None:
    """Figure 8(a-c): AMAT vs cache size."""
    result = run_fig8_amat(num_ops=args.ops)
    for workload in result.amat_ns:
        rows = [(pct, *(round(v, 1) for v in vals))
                for pct, *vals in result.rows(workload)]
        print(render_table(["cache %", *SYSTEMS], rows,
                           title=f"Figure 8 — {workload} (AMAT ns)"))
        print(f"  @25%: vs LegoOS {result.improvement_at(workload, 0.25, 'legoos'):.1f}X, "
              f"vs Infiniswap {result.improvement_at(workload, 0.25, 'infiniswap'):.1f}X "
              f"(paper: 1.7X / 5X)\n")


def cmd_fig8d(args: argparse.Namespace) -> None:
    """Figure 8(d): fetch block-size sweep."""
    sweep = run_fig8d_blocksize(num_ops=args.ops)
    blocks = sorted(next(iter(sweep.values())))
    rows = [(b, *(round(sweep[f][b], 1) for f in sorted(sweep)))
            for b in blocks]
    print(render_table(
        ["block B", *(f"cache {int(f*100)}%" for f in sorted(sweep))],
        rows, title="Figure 8d — AMAT (ns) by fetch block size"))
    for f in sorted(sweep):
        print(f"  best at {int(f*100)}% cache: {best_block(sweep[f])} B")


def cmd_fig9(args: argparse.Namespace) -> None:
    """Figure 9: per-window amplification reduction."""
    result = run_fig9()
    for workload, series in result.series.items():
        print(render_series([(w, round(r, 2)) for w, r in series],
                            "window", "4KB/CL ratio",
                            title=f"Figure 9 — {workload}"))
        print()
    lo, hi = result.band("redis-rand")
    print(f"redis-rand steady band: {lo:.1f}-{hi:.1f}X (paper: 2-10X); "
          f"redis-seq mean: {result.mean('redis-seq'):.1f}X (paper: ~2X)")


def cmd_fig10(args: argparse.Namespace) -> None:
    """Figure 10: tracking speedup vs write-protection."""
    result = run_fig10()
    print(render_table(
        ["workload", "speedup %"],
        [(n, round(p, 1)) for n, p in result.rows()],
        title="Figure 10 (paper: 1% to 35%)"))


def cmd_fig11a(args: argparse.Namespace) -> None:
    """Figure 11(a): goodput, contiguous dirty lines."""
    _fig11(pattern="contiguous")


def cmd_fig11b(args: argparse.Namespace) -> None:
    """Figure 11(b): goodput, alternate dirty lines."""
    _fig11(pattern="alternate")


def _fig11(pattern: str) -> None:
    result = run_fig11(pattern=pattern)
    strategies = sorted(result.relative_goodput)
    rows = [(n, *(round(v, 2) for v in vals)) for n, *vals in result.rows()]
    print(render_table(["dirty lines", *strategies], rows,
                       title=f"Figure 11 ({pattern}): goodput vs Kona-VM"))


def cmd_fig11c(args: argparse.Namespace) -> None:
    """Figure 11(c): CL-log time breakdown."""
    breakdown = run_fig11c_breakdown()
    buckets = ("bitmap", "copy", "rdma_write", "ack_wait")
    rows = [(n, *(f"{s.get(b, 0.0):.0%}" for b in buckets),
             round(s["total_ms"], 1)) for n, s in sorted(breakdown.items())]
    print(render_table(["dirty lines", *buckets, "total ms"], rows,
                       title="Figure 11c"))


def cmd_sections(args: argparse.Namespace) -> None:
    """All in-text experiments (2.1, 6.1, 6.2, 6.3)."""
    print(render_comparison(
        {k: round(v, 2) for k, v in run_sec21_motivation().items()},
        {"throughput_drop": "> 0.6", "fetch_us": "40", "rdma_4k_us": "3",
         "evict_us": "> 32"}, title="Section 2.1"))
    print()
    print(render_comparison(
        {k: round(v, 3) for k, v in run_sec61_baseline_parity().items()},
        {"speedup_fraction": "up to 0.60"}, title="Section 6.1"))
    print()
    slowdown = run_sec62_simulation_overhead()
    print(f"Section 6.2: KCacheSim slowdown {slowdown:.0f}X (paper: 43X)")
    print()
    print(render_comparison(
        {k: round(v, 3) for k, v in run_sec63_tracker_overhead().items()},
        {"loss": "~0.60", "diff_share": "~0.95", "ptrace_share": "~0.05"},
        title="Section 6.3"))


def cmd_chaos(args: argparse.Namespace) -> None:
    """Section 4.5 chaos campaigns: node failure or memnode failover."""
    keep = bool(args.trace_out or args.fleet_out)
    if args.campaign == "memnode-failover":
        _chaos_failover(args, keep)
        return
    run = run_chaos(seed=args.seed, ops=args.ops,
                    tracing=args.trace_out is not None, fleet=keep,
                    tenant=args.tenant)
    result = run.result
    _print_timeline("Chaos campaign timeline", result)
    print(render_table(["metric", "value"], result.rows(),
                       title="Campaign result"))
    print()
    print(render_table(
        ["counter", "value"], sorted(result.telemetry.data["health"].items()),
        title="Health telemetry"))
    _print_slos(run.engine)
    _save_run(run.fleet, args)
    print(f"\nRecovery invariants {'held' if run.passed else 'VIOLATED'}.")
    explained = run.degraded_alerts()
    if explained:
        print(f"DEGRADED transition explained by: {explained[0]}")
    else:
        print("FAIL: no burn-rate alert attached to a DEGRADED "
              "transition — the control tower was blind to the outage")
    if not (run.passed and explained):
        raise SystemExit(1)


def _chaos_failover(args: argparse.Namespace, keep: bool) -> None:
    """The replicated memnode-failover durability campaign."""
    failover = run_failover(seed=args.seed, ops=args.ops,
                            tracing=args.trace_out is not None,
                            capture=args.fleet_out is not None,
                            fleet=keep, tenant=args.tenant)
    _print_timeline("Failover campaign timeline", failover.result)
    print(render_table(["metric", "value"], failover.rows(),
                       title="Durability proof"))
    _print_slos(failover.engine)
    _save_run(failover.fleet, args)
    verdict = ("held — final image bit-identical to the no-fault oracle"
               if failover.passed else "VIOLATED")
    print(f"\nDurability invariants and SLOs {verdict}.")
    if not failover.passed:
        raise SystemExit(1)


def _print_timeline(title: str, result) -> None:
    print(render_table(
        ["t (us)", "event"],
        [(round(t / 1e3, 1), label) for t, label in result.timeline],
        title=f"{title} (seed {result.seed})"))
    print()


def _print_slos(engine) -> None:
    """The campaign's burn-rate alert timeline and SLO verdicts."""
    alerts = sorted(engine.alerts, key=lambda a: (a.at_ns, a.rule))
    if alerts:
        print()
        print(render_table(
            ["t (us)", "rule", "burn", "value"],
            [(round(a.at_ns / 1e3, 1), a.rule,
              "inf" if a.burn_rate == float("inf")
              else round(a.burn_rate, 1),
              round(a.value, 1)) for a in alerts],
            title="Alert timeline"))
    print()
    print(render_table(
        ["rule", "objective", "good fraction", "verdict"],
        engine.verdict_rows(), title="SLO compliance"))


def _save_run(fleet, args: argparse.Namespace) -> None:
    """Write the run's Chrome trace and fleet artifact, as asked."""
    if args.trace_out:
        _write_trace(fleet, args.trace_out)
    if args.fleet_out:
        print(f"\nfleet artifact: {fleet.save(args.fleet_out)} "
              f"({len(fleet.members)} components) — render with "
              f"`python -m repro dashboard --from-artifact "
              f"{args.fleet_out}`")


def _write_trace(fleet, path: str) -> None:
    """The fleet's unified Chrome trace, schema-checked before writing."""
    payload = fleet.chrome_trace()
    errors = write_chrome_trace(payload, path)
    if errors:
        for msg in errors[:10]:
            print(f"INVALID: {msg}", file=sys.stderr)
        raise SystemExit(1)
    print(f"\nchrome trace: {path} ({len(payload['traceEvents'])} events, "
          f"one track per component) — open in Perfetto "
          f"(ui.perfetto.dev) or chrome://tracing")


def _load_fleet(path: str) -> FleetRecorder:
    """A fleet artifact from disk; one clear line and exit 1 if not."""
    try:
        return FleetRecorder.load(path)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"{path}: cannot load fleet artifact: {exc}", file=sys.stderr)
        raise SystemExit(1)


def cmd_sweep(args: argparse.Namespace) -> None:
    """Parallel AMAT sweep over every workload and cache size."""
    fractions = (0.125, 0.25, 0.375, 0.5, 0.75, 1.0)
    workloads = ("redis-rand", "linear-regression", "graph-coloring")
    points = sweep_grid(workloads, fractions, num_ops=args.ops)
    result = run_sweep(points, processes=args.processes)
    systems = ("kona", "legoos", "infiniswap")
    for workload in sorted({p.workload for p in result.points}):
        rows = [(int(p.cache_fraction * 100),
                 *(round(a[s], 1) for s in systems))
                for p, a in zip(result.points, result.amat_ns)
                if p.workload == workload]
        print(render_table(["cache %", *systems], rows,
                           title=f"Sweep — {workload} (AMAT ns)"))
        print()
    print(render_table(["counter", "total"], result.totals.items(),
                       title="Sweep traffic (all workers)"))


def cmd_bench(args: argparse.Namespace) -> None:
    """Benchmark the scalar vs vectorized/batched engines."""
    if args.suite == "runtime":
        payload = run_runtime_bench(quick=args.quick)
        fast_label, floors = "batched", RUNTIME_FLOORS
    else:
        payload = run_bench(quick=args.quick)
        fast_label, floors = "vectorized", None
    for case in payload["cases"]:
        print(f"{case['workload']:>18s}  {case['num_accesses']:>9,} accesses  "
              f"scalar {case['scalar']['seconds']:.3f}s  "
              f"{fast_label} {case[fast_label]['seconds']:.3f}s  "
              f"speedup {case['speedup']:.1f}x  "
              f"counters {'ok' if case['counters_match'] else 'MISMATCH'}")
    sections = [(name, payload.get(name)) for name in ("capture", "fleet")]
    sections += [(f"{name}/miss-heavy", section)
                 for name, section in payload.get("miss_heavy", {}).items()]
    for name, section in sections:
        if section:
            print(f"{name:>18s}  {section['num_accesses']:>9,} accesses  "
                  f"off {section['off_seconds']:.3f}s  "
                  f"on {section['on_seconds']:.3f}s  "
                  f"overhead {section['overhead']:.3f}x  "
                  f"({section['fault_records']:,} fault records)")
    streaming = payload.get("streaming")
    if streaming:
        print(f"{streaming['workload']:>18s}  "
              f"{streaming['num_accesses']:>9,} accesses  "
              f"streamed {streaming['streamed_seconds']:.3f}s  "
              f"monolithic {streaming['monolithic_seconds']:.3f}s  "
              f"chunk {streaming['chunk']:,}  fingerprint "
              f"{'ok' if streaming['fingerprint_matches_monolithic'] else 'MISMATCH'}")
    output = args.output
    if output is None:
        output = (RUNTIME_BENCH_FILENAME if args.suite == "runtime"
                  else BENCH_FILENAME)
    path = write_bench(payload, output)
    print(f"\ncanonical speedup: {payload['canonical_speedup']:.1f}x "
          f"({payload['canonical_workload']}); report: {path}")
    if args.min_speedup is not None:
        failures = check_speedup(payload, args.min_speedup, floors)
        if failures:
            for msg in failures:
                print(f"FAIL: {msg}")
            raise SystemExit(1)
        print(f"speedup gate passed (>= {args.min_speedup}x)")


def cmd_trace_convert(args: argparse.Namespace) -> None:
    """Convert traces between .npz and columnar (memory-mapped) form."""
    from .workloads.trace import (load_trace, open_columnar, save_columnar,
                                  save_trace)
    src, dst = args.input, args.out
    if src is None or dst is None:
        raise SystemExit("trace-convert needs --input SRC and --out DST")
    if args.to == "columnar":
        trace = load_trace(src)
        save_columnar(trace, dst)
        columnar = open_columnar(dst)
        print(f"columnar trace: {dst} ({columnar.length:,} accesses, "
              f"{columnar.memory_bytes:,} region bytes, "
              f"columns {', '.join(read_meta_columns(dst))})")
    else:
        columnar = open_columnar(src)
        save_trace(columnar.materialize(), dst)
        print(f"npz trace: {dst} ({columnar.length:,} accesses)")


def read_meta_columns(path: str) -> List[str]:
    """Column names of a columnar trace (for display)."""
    from .workloads.trace import read_columnar_meta
    return list(read_columnar_meta(path)["columns"])


def cmd_trace_gen(args: argparse.Namespace) -> None:
    """Generate a hot-mix trace straight to columnar storage.

    Chunked generation with per-chunk seeded RNG streams the trace to
    disk, so 100M+-access traces never occupy RAM.
    """
    from .workloads.trace import generate_hot_mix_stream
    if args.out is None:
        raise SystemExit("trace-gen needs --out DIR")
    columnar = generate_hot_mix_stream(
        args.out, args.accesses, hot_lines=args.hot_lines,
        cold_fraction=args.cold_fraction,
        region_bytes=args.region_mb * units.MB,
        write_fraction=args.write_fraction, seed=args.seed,
        chunk_size=args.chunk)
    total = columnar.addrs.nbytes + columnar.writes.nbytes
    print(f"columnar trace: {args.out} ({columnar.length:,} accesses, "
          f"{total / units.MB:.0f} MB on disk, region "
          f"{args.region_mb} MB)")


def cmd_trace_replay(args: argparse.Namespace) -> None:
    """Replay a columnar trace: streamed chunks, optional sharding.

    ``--shards 1`` (default) streams the memory-mapped trace through
    one runtime in fixed chunks; ``--shards N`` partitions by page
    modulo across N runtimes (``--processes`` workers).  With
    ``--rss-ceiling-mb`` the command exits nonzero if peak RSS exceeds
    the ceiling — the CI guard that streaming replay stays O(chunk)
    in memory no matter the trace length.
    """
    import resource

    from .workloads.trace import open_columnar

    if args.input is None:
        raise SystemExit("trace-replay needs --input TRACE_DIR")
    chunk = args.chunk
    if chunk % 256:
        raise SystemExit(f"--chunk {chunk} must be a multiple of the "
                         f"256-access maintenance cadence")
    columnar = open_columnar(args.input)
    summary: Dict[str, Any] = {
        "trace": args.input,
        "accesses": columnar.length,
        "chunk": chunk,
        "shards": args.shards,
        "engine": args.engine,
    }
    fleet_out = getattr(args, "fleet_out", None)
    import time as _time
    t0 = _time.perf_counter()
    if args.shards <= 1:
        from .kona.config import KonaConfig
        from .kona.runtime import KonaRuntime
        cfg = KonaConfig(fmem_capacity=args.fmem_mb * units.MB,
                         vfmem_capacity=args.vfmem_mb * units.MB,
                         slab_bytes=16 * units.MB)
        rt = KonaRuntime(cfg)
        region = rt.mmap(columnar.memory_bytes)
        report = rt.run_trace_stream(columnar.iter_chunks(chunk),
                                     engine=args.engine,
                                     base=region.start)
        summary.update({
            "elapsed_model_ns": report.elapsed_ns,
            "cache_hits": rt.counters["cache_hits"],
            "cache_misses": rt.counters["cache_misses"],
            "remote_fetches": rt.agent.counters["remote_fetches"],
            "pages_evicted": rt.eviction.stats.pages_evicted,
            "background_ns": report.background_ns,
            "lines_logged": rt.eviction.stats.lines_logged,
            "wire_bytes": rt.eviction.stats.wire_bytes,
        })
        if fleet_out:
            from .obs.fleet import FleetRecorder
            fleet = FleetRecorder(name="trace-replay")
            for member in rt.fleet_members(
                    tenant=getattr(args, "tenant", None)):
                fleet.add(member)
            summary["fleet_artifact"] = fleet.save(fleet_out)
    else:
        from .experiments.shard import make_shards, run_sharded
        result = run_sharded(
            make_shards(args.input, args.shards, chunk_size=chunk,
                        engine=args.engine,
                        fmem_mb=args.fmem_mb, vfmem_mb=args.vfmem_mb,
                        fleet=fleet_out is not None,
                        tenant=getattr(args, "tenant", None)),
            processes=args.processes)
        if fleet_out:
            summary["fleet_artifact"] = \
                result.fleet(name="trace-replay").save(fleet_out)
        summary.update({
            "elapsed_model_ns": result.elapsed_ns,
            "cache_hits": result.totals["cache_hits"],
            "cache_misses": result.totals["cache_misses"],
            "remote_fetches": result.totals["remote_fetches"],
            "pages_evicted": result.totals["pages_evicted"],
            "per_shard_accesses": [o.accesses for o in result.outcomes],
        })
    summary["wall_seconds"] = round(_time.perf_counter() - t0, 3)
    # ru_maxrss is KB on Linux; the ceiling check is the whole point of
    # streaming (100M accesses must not mean 100M-entry arrays in RAM).
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary["peak_rss_mb"] = round(peak_mb, 1)
    print(json.dumps(summary, indent=2))
    if args.rss_ceiling_mb is not None and peak_mb > args.rss_ceiling_mb:
        print(f"FAIL: peak RSS {peak_mb:.1f} MB exceeds ceiling "
              f"{args.rss_ceiling_mb} MB", file=sys.stderr)
        raise SystemExit(1)


def cmd_perfdiff(args: argparse.Namespace) -> None:
    """Run-to-run diff of two fleet artifacts (metrics and self time)."""
    if args.run_a and args.run_b:
        before, after = _load_fleet(args.run_a), _load_fleet(args.run_b)
        labels = (args.run_a, args.run_b)
    else:
        print(f"diffing two identical traced node-failure campaigns "
              f"(seed {args.seed}, {args.trace_ops} ops) ...")
        before, after = (run_chaos(seed=args.seed, ops=args.trace_ops,
                                   tracing=True, fleet=True).fleet
                         for _ in range(2))
        labels = ("run A", "run B")
    report = diff_runs(fleet_view(before), fleet_view(after),
                       rel_tol=args.rel_tol)
    if report.significant:
        print(render_table(
            ["kind", "name", "before", "after", "delta", "rel"],
            [e.row() for e in report.significant],
            title=f"Significant deltas: {labels[0]} -> {labels[1]}"))
    for key in report.missing:
        print(f"missing: {key} (present in only one run)")
    print(f"\n{len(report.significant)} significant, {len(report.noise)} "
          f"within noise (rel tol {report.rel_tol:.1%}); "
          f"{'clean' if report.clean else 'NOT clean'}")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"diff report: {args.report}")
    if not report.clean:
        raise SystemExit(1)


def cmd_dashboard(args: argparse.Namespace) -> None:
    """Run report: a fleet artifact's SLOs, faults and profile, text + HTML."""
    from .obs.dashboard import dashboard_text, write_dashboard
    if args.from_artifact:
        fleet = _load_fleet(args.from_artifact)
    else:
        print(f"no --from-artifact: running a traced, capture-on "
              f"memnode-failover campaign (seed {args.seed}, "
              f"{args.ops} ops) ...\n")
        fleet = run_failover(seed=args.seed, ops=args.ops, tracing=True,
                             capture=True, fleet=True,
                             tenant=args.tenant).fleet
    print(dashboard_text(fleet), end="")
    if args.fleet_out:
        print(f"\nfleet artifact: {fleet.save(args.fleet_out)}")
    if args.html:
        print(f"dashboard html: {write_dashboard(fleet, args.html)}")
    if args.trace_out:
        _write_trace(fleet, args.trace_out)
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(prometheus_text(fleet.registry()))
        print(f"prometheus dump: {args.prom}")
    log = fleet.fault_log()
    if log is not None:
        outage = log.health_counts[1] + log.health_counts[2]
        dominated = log.degraded_hop_counts()
        if outage and not dominated["fab"] + dominated["repl"]:
            print("\nFAIL: outage-window faults exist but none are "
                  "dominated by the fabric or replication hops — "
                  "attribution is blind to the failover")
            raise SystemExit(1)


def cmd_summary(args: argparse.Namespace) -> None:
    """Headline claims: the abstract's numbers, measured."""
    result = run_headline(num_ops=args.ops)
    print(render_table(["claim", "paper", "measured"], result.rows(),
                       title="Headline claims"))
    verdict = "hold" if result.all_claims_hold() else "DO NOT all hold"
    print(f"\nAll headline claims {verdict}.")


COMMANDS: Dict[str, Callable[[argparse.Namespace], None]] = {
    "summary": cmd_summary,
    "table2": cmd_table2,
    "fig7": cmd_fig7,
    "fig8": cmd_fig8,
    "fig8d": cmd_fig8d,
    "fig9": cmd_fig9,
    "fig10": cmd_fig10,
    "fig11a": cmd_fig11a,
    "fig11b": cmd_fig11b,
    "fig11c": cmd_fig11c,
    "sections": cmd_sections,
    "chaos": cmd_chaos,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
    "trace-convert": cmd_trace_convert,
    "trace-gen": cmd_trace_gen,
    "trace-replay": cmd_trace_replay,
    "dashboard": cmd_dashboard,
    "perfdiff": cmd_perfdiff,
}


#: File-driven utilities: excluded from ``repro all`` (they need
#: --input/--out paths rather than regenerating a paper artifact).
_NOT_IN_ALL = {"trace-convert", "trace-gen", "trace-replay"}


def cmd_list(args: argparse.Namespace) -> None:
    """List available experiments."""
    for name, func in COMMANDS.items():
        summary = func.__doc__.strip().splitlines()[0]
        print(f"{name:14s} {summary}")


def cmd_all(args: argparse.Namespace) -> None:
    """Run every experiment in sequence."""
    for name, func in COMMANDS.items():
        if name in _NOT_IN_ALL:
            continue
        print(f"\n{'=' * 70}\n{name}\n{'=' * 70}")
        func(args)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of 'Rethinking "
                    "Software Runtimes for Disaggregated Memory' "
                    "(Kona, ASPLOS 2021).")
    parser.add_argument("command",
                        choices=[*COMMANDS, "list", "all"],
                        help="experiment to regenerate")
    parser.add_argument("--windows", type=int, default=6,
                        help="measurement windows for trace experiments")
    parser.add_argument("--region-mb", type=int, default=16,
                        help="per-thread region size for fig7 (MB)")
    parser.add_argument("--ops", type=int, default=40_000,
                        help="data operations for AMAT simulations")
    parser.add_argument("--seed", type=int, default=0,
                        help="chaos/dashboard/perfdiff: campaign seed")
    parser.add_argument("--campaign",
                        choices=["node-failure", "memnode-failover"],
                        default="node-failure",
                        help="chaos: which fault campaign to run")
    parser.add_argument("--trace-out", default=None,
                        help="chaos/dashboard: write the run's unified "
                             "Chrome trace (schema-checked) to this path")
    parser.add_argument("--processes", type=int, default=None,
                        help="worker processes for the sweep command "
                             "(default: cpu count)")
    parser.add_argument("--quick", action="store_true",
                        help="bench: smaller traces")
    parser.add_argument("--suite", choices=["kcachesim", "runtime"],
                        default="kcachesim",
                        help="bench: kcachesim hierarchy engines or the "
                             "end-to-end runtime engines (run_trace)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="bench: gate the report: the canonical case "
                             "must reach this speedup, every case its "
                             "floor, capture and fleet their budget")
    parser.add_argument("--output", default=None,
                        help="bench: report output path (default depends "
                             "on --suite)")
    parser.add_argument("--out", default=None,
                        help="trace-gen/trace-convert: output path")
    parser.add_argument("--trace-ops", type=int, default=8_000,
                        help="perfdiff: accesses in each self-run "
                             "traced campaign")
    parser.add_argument("--prom", default=None,
                        help="dashboard: also write a Prometheus text "
                             "dump of the fleet registry")
    parser.add_argument("--from-artifact", default=None,
                        help="dashboard: render a saved fleet artifact "
                             "instead of running a campaign")
    parser.add_argument("--html", default=None,
                        help="dashboard: write the self-contained HTML "
                             "report to this path")
    parser.add_argument("--fleet-out", default=None,
                        help="chaos/dashboard/trace-replay: save the fleet "
                             "telemetry artifact (JSON) to this path")
    parser.add_argument("--tenant", default=None,
                        help="chaos/dashboard/trace-replay: tenant label "
                             "on every captured component")
    parser.add_argument("--run-a", default=None,
                        help="perfdiff: 'before' fleet artifact JSON")
    parser.add_argument("--run-b", default=None,
                        help="perfdiff: 'after' fleet artifact JSON")
    parser.add_argument("--rel-tol", type=float, default=0.01,
                        help="perfdiff: relative noise threshold")
    parser.add_argument("--report", default=None,
                        help="perfdiff: also write the diff report JSON")
    parser.add_argument("--input", default=None,
                        help="trace-convert/trace-replay: source trace "
                             "(.npz file or columnar directory)")
    parser.add_argument("--to", choices=["columnar", "npz"],
                        default="columnar",
                        help="trace-convert: target format")
    parser.add_argument("--accesses", type=int, default=1_000_000,
                        help="trace-gen: accesses to generate")
    parser.add_argument("--chunk", type=int, default=1 << 20,
                        help="trace-gen/trace-replay: streaming chunk "
                             "size in accesses (multiple of 256)")
    parser.add_argument("--hot-lines", type=int, default=16384,
                        help="trace-gen: hot working-set size in lines")
    parser.add_argument("--cold-fraction", type=float, default=0.002,
                        help="trace-gen: per-access cold-miss probability")
    parser.add_argument("--write-fraction", type=float, default=0.3,
                        help="trace-gen: per-access write probability")
    parser.add_argument("--fmem-mb", type=int, default=64,
                        help="trace-replay: FMem cache capacity (MB)")
    parser.add_argument("--vfmem-mb", type=int, default=256,
                        help="trace-replay: VFMem capacity (MB)")
    parser.add_argument("--shards", type=int, default=1,
                        help="trace-replay: page-modulo address shards")
    parser.add_argument("--engine", choices=["batched", "scalar"],
                        default="batched",
                        help="trace-replay: replay engine")
    parser.add_argument("--rss-ceiling-mb", type=float, default=None,
                        help="trace-replay: fail if peak RSS exceeds "
                             "this many MB (streaming memory guard)")
    return parser


def main(argv: List[str] = None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)
    handler = {"list": cmd_list, "all": cmd_all, **COMMANDS}[args.command]
    handler(args)
    return 0


if __name__ == "__main__":      # pragma: no cover
    sys.exit(main())
