"""In-text experiments: sections 2.1, 6.1, 6.2(3), 6.3(3)."""

import pytest

from conftest import run_once, write_report
from repro.analysis import paper, render_comparison
from repro.experiments import (
    run_sec21_motivation,
    run_sec61_baseline_parity,
    run_sec62_simulation_overhead,
    run_sec63_tracker_overhead,
)


@pytest.mark.benchmark(group="sections")
def test_sec21_motivation(benchmark):
    """Redis under Infiniswap with 25% remote data (section 2.1)."""
    result = run_once(benchmark, run_sec21_motivation)
    text = render_comparison(
        {k: round(v, 2) for k, v in result.items()},
        {"throughput_drop": "> 0.60", "fetch_us": "> 40",
         "rdma_4k_us": "~3", "evict_us": "> 32"},
        title="Section 2.1: motivation numbers")
    write_report("sec21_motivation", text)

    assert result["throughput_drop"] > paper.MOTIVATION_THROUGHPUT_DROP_MIN
    assert result["fetch_us"] >= 36.0
    assert 2.5 <= result["rdma_4k_us"] <= 3.6
    assert result["evict_us"] >= 30.0
    # The software stack, not the wire, is the bottleneck.
    assert result["fetch_us"] / result["rdma_4k_us"] > 10.0


@pytest.mark.benchmark(group="sections")
def test_sec61_kona_vm_vs_infiniswap(benchmark):
    """Kona-VM parity check: similar to or up to 60% faster (6.1)."""
    result = run_once(benchmark, run_sec61_baseline_parity)
    text = render_comparison(
        {k: round(v, 3) for k, v in result.items()},
        {"speedup_fraction": "<= 0.60 (paper: 'up to 60%')"},
        title="Section 6.1: Kona-VM vs Infiniswap")
    write_report("sec61_baseline_parity", text)

    assert 0.0 <= result["speedup_fraction"] <= \
        paper.KONA_VM_VS_INFINISWAP_MAX_SPEEDUP + 0.05
    assert result["kona_vm_s"] <= result["infiniswap_s"]


@pytest.mark.benchmark(group="sections")
def test_sec62_kcachesim_overhead(benchmark):
    """KCacheSim slowdown vs native replay (paper: 43X)."""
    slowdown = run_once(benchmark, run_sec62_simulation_overhead)
    # The slowdown is a host timing that moves run to run, so the
    # committed report holds the band verdict, not the figure.
    floor = paper.KCACHESIM_SLOWDOWN_MIN
    verdict = "pass" if slowdown > floor else "FAIL"
    write_report("sec62_simulation_overhead",
                 f"KCacheSim slowdown vs native replay: band > {floor:.0f}X "
                 f"(paper: 43X lower throughput): {verdict}")
    assert slowdown > paper.KCACHESIM_SLOWDOWN_MIN


@pytest.mark.benchmark(group="sections")
def test_sec63_ktracker_overhead(benchmark):
    """KTracker emulation overhead at native Redis scale (6.3)."""
    result = run_once(benchmark, run_sec63_tracker_overhead)
    text = render_comparison(
        {k: round(v, 3) for k, v in result.items()},
        {"loss": "~0.60", "diff_share": "~0.95", "ptrace_share": "~0.05"},
        title="Section 6.3: KTracker emulation overhead")
    write_report("sec63_tracker_overhead", text)

    assert paper.within(result["loss"], paper.KTRACKER_LOSS)
    assert result["diff_share"] > paper.KTRACKER_DIFF_SHARE_MIN
    assert result["ptrace_share"] < 0.15
