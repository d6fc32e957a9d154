"""Experiment drivers: one module per paper table/figure.

Each driver runs the full experiment at a laptop-friendly scale and
returns a structured result with both the measured series and the
paper's reference values, ready for the benchmark harness to print and
assert.  Examples reuse the same drivers, so the numbers in the README
and EXPERIMENTS.md come from exactly this code.
"""

from .bench import (
    BenchCase,
    RUNTIME_FLOORS,
    check_speedup,
    run_bench,
    run_case,
    write_bench,
)
from .chaos import (
    KONA_SLOS,
    ChaosRun,
    build_chaos_runtime,
    chaos_stream,
    run_chaos,
)
from .failover import (
    FAILOVER_SLOS,
    FailoverResult,
    build_failover_runtime,
    run_failover,
)
from .fig7 import Fig7Result, run_fig7
from .fig8 import Fig8Result, run_fig8_amat, run_fig8d_blocksize
from .fig9 import Fig9Result, run_fig9
from .fig10 import Fig10Result, run_fig10
from .fig11 import Fig11Result, run_fig11, run_fig11c_breakdown
from .headline import HeadlineResult, run_headline
from .sweep import SweepPoint, SweepResult, run_sweep, sweep_grid
from .table2 import Table2Result, run_table2
from .sections import (
    run_sec21_motivation,
    run_sec61_baseline_parity,
    run_sec62_simulation_overhead,
    run_sec63_tracker_overhead,
)

__all__ = [
    "BenchCase",
    "ChaosRun",
    "FAILOVER_SLOS",
    "FailoverResult",
    "Fig10Result",
    "Fig11Result",
    "Fig7Result",
    "Fig8Result",
    "Fig9Result",
    "HeadlineResult",
    "KONA_SLOS",
    "RUNTIME_FLOORS",
    "SweepPoint",
    "SweepResult",
    "Table2Result",
    "build_chaos_runtime",
    "build_failover_runtime",
    "chaos_stream",
    "check_speedup",
    "run_bench",
    "run_case",
    "run_chaos",
    "run_failover",
    "run_fig10",
    "run_fig11",
    "run_fig11c_breakdown",
    "run_fig7",
    "run_fig8_amat",
    "run_fig8d_blocksize",
    "run_fig9",
    "run_headline",
    "run_sec21_motivation",
    "run_sec61_baseline_parity",
    "run_sec62_simulation_overhead",
    "run_sec63_tracker_overhead",
    "run_sweep",
    "run_table2",
    "sweep_grid",
    "write_bench",
]
