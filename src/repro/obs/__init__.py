"""repro.obs — the flight-recorder and control-tower subsystem.

Labeled metrics registry, sim-clock span tracing, periodic gauge
sampling, and Chrome-trace / Prometheus exporters; on top of them the
analysis layer: the trace profiler (:mod:`repro.obs.analysis`), the
time-series store (:mod:`repro.obs.tsdb`), the SLO/burn-rate engine
(:mod:`repro.obs.slo`) and causal fault capture
(:mod:`repro.obs.causal`).  One run artifact, the fleet
(:mod:`repro.obs.fleet`), carries all of it; one report renders it
(:mod:`repro.obs.dashboard`) and one diff compares two
(:mod:`repro.obs.diff`).  See ``docs/architecture.md`` (Observability
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
from .diff import DiffEntry, DiffReport, diff_runs, fleet_view
from .export import (
    chrome_trace,
    component_pid,
    prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
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
    "fleet_view",
    "profile",
    "prometheus_text",
    "stall_windows",
    "tail_anomalies",
    "top_stalls",
    "traced",
    "validate_chrome_trace",
    "write_chrome_trace",
]
