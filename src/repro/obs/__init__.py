"""repro.obs — the flight-recorder and control-tower subsystem.

Labeled metrics registry, sim-clock span tracing, periodic gauge
sampling, and Chrome-trace / Prometheus / JSONL exporters; on top of
them the analysis layer: the trace profiler (:mod:`repro.obs.analysis`),
the run-to-run diff (:mod:`repro.obs.diff`), the time-series store
(:mod:`repro.obs.tsdb`) and the SLO/burn-rate engine
(:mod:`repro.obs.slo`).  See ``docs/architecture.md`` (Observability
and Control tower) for the span model, export formats and data flow.
"""

from .causal import CausalCapture, FaultLog, tail_anomalies
from .analysis import (
    ProfileReport,
    SpanNode,
    SpanStat,
    build_forest,
    critical_path,
    profile,
    stall_windows,
    top_stalls,
)
from .diff import (
    DiffEntry,
    DiffReport,
    diff_runs,
    load_artifact,
    run_artifact,
    save_artifact,
)
from .export import (
    chrome_trace,
    component_pid,
    fault_chain_trace,
    iter_jsonl,
    jsonl_lines,
    prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from .dashboard import dashboard_html, dashboard_text
from .fleet import ComponentSnapshot, FleetRecorder
from .recorder import FlightRecorder
from .registry import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricFamily,
    MetricsRegistry,
)
from .sampler import Sampler
from .slo import Alert, SLOEngine, SLORule
from .trace import NULL_SPAN, Span, Tracer, traced
from .tsdb import TimeSeriesStore

__all__ = [
    "Alert",
    "CausalCapture",
    "ComponentSnapshot",
    "CounterMetric",
    "DiffEntry",
    "DiffReport",
    "FaultLog",
    "FleetRecorder",
    "FlightRecorder",
    "GaugeMetric",
    "HistogramMetric",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_SPAN",
    "ProfileReport",
    "SLOEngine",
    "SLORule",
    "Sampler",
    "Span",
    "SpanNode",
    "SpanStat",
    "TimeSeriesStore",
    "Tracer",
    "build_forest",
    "chrome_trace",
    "component_pid",
    "critical_path",
    "dashboard_html",
    "dashboard_text",
    "diff_runs",
    "fault_chain_trace",
    "iter_jsonl",
    "jsonl_lines",
    "load_artifact",
    "profile",
    "prometheus_text",
    "run_artifact",
    "save_artifact",
    "stall_windows",
    "tail_anomalies",
    "top_stalls",
    "traced",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
