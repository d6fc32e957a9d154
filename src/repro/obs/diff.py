"""Run-to-run diff with configurable noise thresholds.

:func:`run_artifact` freezes one finished run (a
:class:`~repro.obs.recorder.FlightRecorder`, optionally plus its
:class:`~repro.obs.analysis.ProfileReport`) into a plain JSON dict:
every numeric counter/gauge, every histogram's summary snapshot, and
per-span/per-category self times.  :func:`diff_runs` compares two
artifacts — scalar vs batched engine, before vs after a change, two
seeds — and classifies each delta as significant or noise against
relative/absolute thresholds.  Two identical-seed runs must diff to
*zero* significant entries; that property is the regression tests'
anchor.  (Wall-clock speedups are gated by ``repro bench``; see
:func:`repro.experiments.bench.check_speedup`.)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..common.errors import ConfigError
from .registry import HistogramMetric, MetricsRegistry

#: Artifact schema version written by :func:`run_artifact`.
ARTIFACT_VERSION = 1

#: Histogram snapshot keys compared by :func:`diff_runs`.
_HIST_KEYS = ("count", "sum", "mean", "p50", "p95", "p99")


def _sample_key(name: str, labels) -> str:
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def run_artifact(recorder, profile=None,
                 meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Freeze a recorder (and optional profile) into a JSON-able dict."""
    registry: MetricsRegistry = recorder.registry
    metrics: Dict[str, float] = {}
    for name, labels, value in registry.samples():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        metrics[_sample_key(name, labels)] = float(value)
    histograms: Dict[str, Dict[str, float]] = {}
    for family in registry.families():
        if family.kind != "histogram":
            continue
        for labels, child in family.children():
            assert isinstance(child, HistogramMetric)
            histograms[_sample_key(family.name, labels)] = child.snapshot()
    artifact: Dict[str, Any] = {
        "format": "repro-run-artifact",
        "version": ARTIFACT_VERSION,
        "metrics": metrics,
        "histograms": histograms,
        "meta": dict(meta or {}),
    }
    if profile is not None:
        artifact["self_time_ns"] = {
            s.key: s.self_ns for s in profile.by_name.values()}
        artifact["category_self_time_ns"] = {
            s.key: s.self_ns for s in profile.by_category.values()}
        artifact["total_ns"] = profile.total_ns
    return artifact


def save_artifact(artifact: Dict[str, Any], path: str) -> str:
    """Write an artifact as JSON; returns the path."""
    with open(path, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_artifact(path: str) -> Dict[str, Any]:
    """Load an artifact written by :func:`save_artifact`."""
    with open(path) as fh:
        artifact = json.load(fh)
    if artifact.get("format") != "repro-run-artifact":
        raise ConfigError(f"{path} is not a repro run artifact")
    return artifact


@dataclass(frozen=True)
class DiffEntry:
    """One compared quantity between two runs."""

    kind: str          # "metric" | "histogram" | "self-time" | "category"
    name: str
    before: float
    after: float

    @property
    def delta(self) -> float:
        """Absolute change, after minus before."""
        return self.after - self.before

    @property
    def rel_change(self) -> float:
        """Relative change against ``before`` (inf for 0 -> nonzero)."""
        if self.before == 0:
            return 0.0 if self.after == 0 else math.inf
        return self.delta / abs(self.before)

    def row(self) -> Tuple[str, str, float, float, float, str]:
        """A render-ready table row."""
        rel = self.rel_change
        rel_str = "new" if math.isinf(rel) else f"{rel:+.1%}"
        return (self.kind, self.name, round(self.before, 3),
                round(self.after, 3), round(self.delta, 3), rel_str)


@dataclass
class DiffReport:
    """Classified deltas between two runs."""

    rel_tol: float
    abs_tol: float
    significant: List[DiffEntry] = field(default_factory=list)
    noise: List[DiffEntry] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)   # keys in only one run

    @property
    def clean(self) -> bool:
        """True when nothing significant moved and nothing vanished."""
        return not self.significant and not self.missing

    def to_json(self) -> Dict[str, Any]:
        """A JSON-able summary (for CI artifacts)."""
        def rows(entries: List[DiffEntry]) -> List[Dict[str, Any]]:
            return [{"kind": e.kind, "name": e.name, "before": e.before,
                     "after": e.after, "delta": e.delta} for e in entries]
        return {"rel_tol": self.rel_tol, "abs_tol": self.abs_tol,
                "clean": self.clean,
                "significant": rows(self.significant),
                "noise_count": len(self.noise),
                "missing": list(self.missing)}


def _compare(report: DiffReport, kind: str,
             before: Dict[str, float], after: Dict[str, float]) -> None:
    for key in sorted(set(before) | set(after)):
        if key not in before or key not in after:
            report.missing.append(f"{kind}:{key}")
            continue
        entry = DiffEntry(kind, key, float(before[key]), float(after[key]))
        moved = abs(entry.delta) > report.abs_tol and (
            math.isinf(entry.rel_change)
            or abs(entry.rel_change) > report.rel_tol)
        (report.significant if moved else report.noise).append(entry)


def diff_runs(before: Dict[str, Any], after: Dict[str, Any],
              rel_tol: float = 0.01, abs_tol: float = 1e-9) -> DiffReport:
    """Compare two run artifacts; classify every delta.

    A delta is *significant* when it exceeds both the absolute floor
    (``abs_tol``, default ~0: any real movement) and the relative
    threshold (``rel_tol``, default 1%).  Keys present in only one
    artifact are reported under ``missing`` — a renamed counter is a
    finding, not noise.
    """
    if rel_tol < 0 or abs_tol < 0:
        raise ConfigError("diff tolerances must be non-negative")
    report = DiffReport(rel_tol=rel_tol, abs_tol=abs_tol)
    _compare(report, "metric",
             before.get("metrics", {}), after.get("metrics", {}))
    hist_a = {f"{name}.{k}": snap.get(k, 0.0)
              for name, snap in before.get("histograms", {}).items()
              for k in _HIST_KEYS}
    hist_b = {f"{name}.{k}": snap.get(k, 0.0)
              for name, snap in after.get("histograms", {}).items()
              for k in _HIST_KEYS}
    _compare(report, "histogram", hist_a, hist_b)
    _compare(report, "self-time",
             before.get("self_time_ns", {}), after.get("self_time_ns", {}))
    _compare(report, "category",
             before.get("category_self_time_ns", {}),
             after.get("category_self_time_ns", {}))
    return report
