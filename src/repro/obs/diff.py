"""Run-to-run diff of two fleet artifacts with noise thresholds.

:func:`fleet_view` reduces one :class:`~repro.obs.fleet.FleetRecorder`
to the numbers worth comparing, per component: every numeric metric,
every histogram's summary snapshot, and per-span and per-category self
time profiled from the member's span events.  Keys are
``<component>/<name>``.  :func:`diff_runs` compares two views — before
vs after a change, two seeds, two engines — and classifies each delta
as significant or noise against relative/absolute thresholds.  Two
identical-seed runs must diff to *zero* significant entries; that
property is the regression tests' anchor.  (Wall-clock speedups are
gated by ``repro bench``; see
:func:`repro.experiments.bench.check_speedup`.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..common.errors import ConfigError
from .analysis import profile
from .registry import HistogramMetric

#: Histogram snapshot keys compared by :func:`diff_runs`.
_HIST_KEYS = ("count", "sum", "mean", "p50", "p95", "p99")


def fleet_view(fleet) -> Dict[str, Dict[str, Any]]:
    """The comparable numbers of one fleet, keyed ``component/name``."""
    view: Dict[str, Dict[str, Any]] = {
        "metrics": {}, "histograms": {}, "self_time_ns": {},
        "category_self_time_ns": {}}
    for m in fleet.members:
        prefix = f"{m.component}/"
        for key, value in m.metrics.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            view["metrics"][prefix + key] = float(value)
        for key, state in m.histograms.items():
            view["histograms"][prefix + key] = \
                HistogramMetric.from_state(state).snapshot()
        if m.events:
            report = profile(m.events)
            for stat in report.by_name.values():
                view["self_time_ns"][prefix + stat.key] = stat.self_ns
            for stat in report.by_category.values():
                view["category_self_time_ns"][prefix + stat.key] = \
                    stat.self_ns
    return view


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


def _moved(entry: DiffEntry, rel_tol: float, abs_tol: float) -> bool:
    """Whether one delta is significant.  A value that turns NaN (or
    stops being NaN) moved; NaN on both sides is unchanged."""
    nan_before, nan_after = math.isnan(entry.before), math.isnan(entry.after)
    if nan_before or nan_after:
        return nan_before != nan_after
    return abs(entry.delta) > abs_tol and (
        math.isinf(entry.rel_change) or abs(entry.rel_change) > rel_tol)


def _compare(report: DiffReport, kind: str,
             before: Dict[str, float], after: Dict[str, float]) -> None:
    for key in sorted(set(before) | set(after)):
        if key not in before or key not in after:
            report.missing.append(f"{kind}:{key}")
            continue
        entry = DiffEntry(kind, key, float(before[key]), float(after[key]))
        moved = _moved(entry, report.rel_tol, report.abs_tol)
        (report.significant if moved else report.noise).append(entry)


def diff_runs(before: Dict[str, Any], after: Dict[str, Any],
              rel_tol: float = 0.01, abs_tol: float = 1e-9) -> DiffReport:
    """Compare two :func:`fleet_view` views; classify every delta.

    A delta is *significant* when it exceeds both the absolute floor
    (``abs_tol``, default ~0: any real movement) and the relative
    threshold (``rel_tol``, default 1%), or when exactly one side is
    NaN.  Keys present in only one view are reported under
    ``missing`` — a renamed counter is a finding, not noise.
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
