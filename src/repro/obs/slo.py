"""Declarative SLOs with burn-rate alerting over the time-series store.

An :class:`SLORule` names a metric, how to read it (``level`` — the
gauge value itself; ``rate`` — a cumulative counter's increase per
simulated second; ``quantile`` — a registry histogram's estimated
quantile), and the *good* condition (``op``/``bound``).  The
:class:`SLOEngine` evaluates rules against the
:class:`~repro.obs.tsdb.TimeSeriesStore` the sampler populates and
raises :class:`Alert` objects using the error-budget **burn rate**
discipline: over a lookback window the fraction of bad samples is
divided by the rule's error budget (``1 - objective``), and an alert
fires when both the short and the long window burn faster than
``burn_threshold`` — the multiwindow form that ignores single-sample
blips but pages within one window of a real outage.

The engine is runtime-agnostic (metric names are plain strings), and
hooks into any health monitor exposing ``add_context_provider``: on
every state transition the provider snapshots the gauges, evaluates
all rules *at that instant*, and returns the active alerts — so a
DEGRADED transition in a chaos campaign carries the alert context
that explains it.  :mod:`repro.experiments.chaos` defines the Kona
rule set and wires all of this into both chaos campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..common.errors import ConfigError
from .registry import MetricsRegistry
from .tsdb import TimeSeriesStore

#: Comparison table: the *good* condition on the observed value.
_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<=": lambda v, b: v <= b,
    "<": lambda v, b: v < b,
    ">=": lambda v, b: v >= b,
    ">": lambda v, b: v > b,
}


@dataclass(frozen=True)
class SLORule:
    """One declarative objective over a metric.

    ``kind``:

    * ``level`` — every tsdb sample of ``metric`` is good when
      ``value op bound`` holds;
    * ``rate`` — adjacent tsdb samples form per-interval rates
      (counter increase per simulated second); each rate is judged;
    * ``quantile`` — the registry histogram ``metric``'s
      ``quantile`` estimate is judged at evaluation time (no burn
      window; an SLO on a distribution tail, e.g. p99 access stall).

    ``objective`` is the target good fraction (0.999 = three nines);
    its complement is the error budget the burn rate is measured
    against.  ``window_ns`` is the short lookback; the long window is
    ``long_window_factor`` times that.
    """

    name: str
    metric: str
    kind: str = "level"
    op: str = "<="
    bound: float = 0.0
    objective: float = 0.999
    window_ns: float = 200_000.0
    long_window_factor: float = 4.0
    burn_threshold: float = 10.0
    quantile: float = 0.99
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("level", "rate", "quantile"):
            raise ConfigError(f"unknown SLO kind {self.kind!r}")
        if self.op not in _OPS:
            raise ConfigError(f"unknown SLO comparison {self.op!r}")
        if not 0.0 < self.objective < 1.0:
            raise ConfigError(
                f"objective must be in (0, 1), got {self.objective}")
        if self.window_ns <= 0 or self.long_window_factor < 1.0:
            raise ConfigError("SLO windows must be positive")

    @property
    def error_budget(self) -> float:
        """Allowed bad fraction: ``1 - objective``."""
        return 1.0 - self.objective

    def good(self, value: float) -> bool:
        """Whether one observed value satisfies the objective."""
        return _OPS[self.op](value, self.bound)


@dataclass(frozen=True)
class Alert:
    """One firing of a rule."""

    rule: str
    at_ns: float
    burn_rate: float
    value: float
    window_ns: float
    message: str

    def brief(self) -> str:
        """Compact one-line form (embedded in health-transition args)."""
        if self.burn_rate == float("inf"):
            return f"{self.rule}: threshold breached (value {self.value:g})"
        return (f"{self.rule}: burn {self.burn_rate:.0f}x budget "
                f"(value {self.value:g})")


class SLOEngine:
    """Evaluates a rule set over a time-series store (plus registry).

    ``registry`` is only needed for ``quantile`` rules; ``sampler``,
    when given, lets the health-transition hook force a fresh gauge
    snapshot so the triggering sample is part of the judged window.
    """

    def __init__(self, tsdb: TimeSeriesStore, rules: List[SLORule],
                 registry: Optional[MetricsRegistry] = None,
                 sampler: Any = None) -> None:
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate SLO rule names in {names}")
        self.tsdb = tsdb
        self.rules = list(rules)
        self.registry = registry
        self.sampler = sampler
        self.alerts: List[Alert] = []
        self._seen: set = set()
        self._fault_source: Any = None

    # -- sample judging -----------------------------------------------------------

    def _judged_values(self, rule: SLORule, start_ns: float,
                       end_ns: float) -> List[Tuple[float, float]]:
        """(ts, judged value) pairs for one rule over one window."""
        points = self.tsdb.series(rule.metric, start_ns, end_ns)
        if rule.kind == "level":
            return list(points)
        # rate: adjacent-pair counter increase per simulated second.
        out: List[Tuple[float, float]] = []
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if t1 > t0:
                out.append((t1, (v1 - v0) / (t1 - t0) * 1e9))
        return out

    def _burn(self, rule: SLORule, start_ns: float,
              end_ns: float) -> Tuple[float, int, float]:
        """(burn rate, judged samples, last bad value) over a window."""
        judged = self._judged_values(rule, start_ns, end_ns)
        if not judged:
            return 0.0, 0, 0.0
        bad = [v for _, v in judged if not rule.good(v)]
        burn = (len(bad) / len(judged)) / rule.error_budget
        return burn, len(judged), bad[-1] if bad else 0.0

    # -- evaluation ---------------------------------------------------------------

    def evaluate_at(self, now_ns: float) -> List[Alert]:
        """Evaluate every rule at one instant; returns *firing* alerts.

        Fired alerts also accumulate on :attr:`alerts` (deduplicated
        per rule and timestamp, so a sweep plus a transition hook do
        not double-count).
        """
        firing: List[Alert] = []
        for rule in self.rules:
            alert = self._evaluate_rule(rule, now_ns)
            if alert is None:
                continue
            firing.append(alert)
            key = (alert.rule, alert.at_ns)
            if key not in self._seen:
                self._seen.add(key)
                self.alerts.append(alert)
        return firing

    def _evaluate_rule(self, rule: SLORule,
                       now_ns: float) -> Optional[Alert]:
        if rule.kind == "quantile":
            return self._evaluate_quantile(rule, now_ns)
        short_burn, n_short, bad_value = self._burn(
            rule, now_ns - rule.window_ns, now_ns)
        if n_short == 0 or short_burn < rule.burn_threshold:
            return None
        long_burn, n_long, _ = self._burn(
            rule, now_ns - rule.window_ns * rule.long_window_factor, now_ns)
        if n_long and long_burn < rule.burn_threshold:
            return None
        return Alert(
            rule=rule.name, at_ns=now_ns, burn_rate=short_burn,
            value=bad_value, window_ns=rule.window_ns,
            message=(f"{rule.name}: {rule.kind}({rule.metric}) burned "
                     f"{short_burn:.0f}x the error budget over the last "
                     f"{rule.window_ns / 1e3:.0f} us "
                     f"(long window {long_burn:.0f}x)"))

    def _evaluate_quantile(self, rule: SLORule,
                           now_ns: float) -> Optional[Alert]:
        if self.registry is None:
            return None
        family = self.registry.get(rule.metric)
        if family is None or family.kind != "histogram" or not family.count:
            return None
        value = family.quantile(rule.quantile)
        if rule.good(value):
            return None
        return Alert(
            rule=rule.name, at_ns=now_ns, burn_rate=float("inf"),
            value=value, window_ns=0.0,
            message=(f"{rule.name}: p{rule.quantile * 100:g}"
                     f"({rule.metric}) = {value:g} violates "
                     f"{rule.op} {rule.bound:g}"))

    def sweep(self) -> List[Alert]:
        """Evaluate every rule at every sampled timestamp.

        The post-hoc pass: replays the whole campaign's series through
        the alerting logic, so the alert timeline is complete even if
        nothing called :meth:`evaluate_at` online.  Returns (and
        accumulates) all alerts in time order.
        """
        stamps = sorted({ts for rule in self.rules
                         for ts, _ in self.tsdb.series(rule.metric)})
        out: List[Alert] = []
        for ts in stamps:
            out.extend(self.evaluate_at(ts))
        return out

    # -- compliance reporting -----------------------------------------------------

    def verdicts(self) -> List[Tuple[str, float, bool]]:
        """(rule, measured good fraction, objective met) per rule.

        Judged over the *entire* recorded series (quantile rules judge
        the final histogram state: met = 1.0, violated = 0.0).
        """
        out: List[Tuple[str, float, bool]] = []
        for rule in self.rules:
            if rule.kind == "quantile":
                alert = self._evaluate_quantile(rule, 0.0)
                good_fraction = 0.0 if alert is not None else 1.0
            else:
                judged = self._judged_values(rule, 0.0, float("inf"))
                if not judged:
                    out.append((rule.name, 1.0, True))
                    continue
                good = sum(1 for _, v in judged if rule.good(v))
                good_fraction = good / len(judged)
            out.append((rule.name, good_fraction,
                        good_fraction >= rule.objective))
        return out

    def verdict_rows(self) -> List[Tuple[str, str, str, str]]:
        """(rule, objective, good fraction, met) table rows."""
        by_name = {rule.name: rule for rule in self.rules}
        return [(name, f"{by_name[name].objective:.3f}",
                 f"{good_fraction:.3f}", "met" if met else "VIOLATED")
                for name, good_fraction, met in self.verdicts()]

    def report(self) -> List[Dict[str, Any]]:
        """JSON-shaped verdicts for artifacts and dashboards.

        One dict per rule: name, kind, metric, objective, measured
        good fraction, met flag, and the count of alerts the rule
        fired — everything a fleet artifact needs to render SLO
        status without the engine.
        """
        fired: Dict[str, int] = {}
        for alert in self.alerts:
            fired[alert.rule] = fired.get(alert.rule, 0) + 1
        by_name = {rule.name: rule for rule in self.rules}
        return [{"rule": name, "kind": by_name[name].kind,
                 "metric": by_name[name].metric,
                 "objective": by_name[name].objective,
                 "good_fraction": good_fraction, "met": met,
                 "alerts": fired.get(name, 0)}
                for name, good_fraction, met in self.verdicts()]

    # -- health-machine integration -----------------------------------------------

    def attach(self, health: Any) -> None:
        """Register as a context provider on a health monitor.

        ``health`` is duck-typed: anything with
        ``add_context_provider(fn)`` (see
        :class:`repro.kona.health.HealthMonitor`).  On every state
        transition the hook snapshots the gauges (when a sampler is
        bound), evaluates all rules at the transition instant, and
        returns the active alerts as transition context.
        """
        health.add_context_provider(self._health_context)

    def attach_fault_log(self, source: Any) -> None:
        """Bind a causal fault source for transition attribution.

        ``source`` is a :class:`~repro.obs.causal.CausalCapture` (its
        ``.log`` is read lazily, so the latest records are drained at
        the transition) or a finished :class:`~repro.obs.causal.
        FaultLog`.  Every health transition then carries the dominant
        stall hop, the MAD tail-anomaly windows and the slowest fault
        exemplars alongside the firing alerts.
        """
        self._fault_source = source

    def _health_context(self, state_name: str) -> Dict[str, Any]:
        if self.sampler is not None:
            self.sampler.sample()
        now = self.tsdb.span_ns[1]
        firing = self.evaluate_at(now)
        ctx = {"alerts": [a.brief() for a in firing],
               "burn": {a.rule: (None if a.burn_rate == float("inf")
                                 else round(a.burn_rate, 1))
                        for a in firing}}
        if self._fault_source is not None:
            from .causal import tail_anomalies
            log = getattr(self._fault_source, "log", self._fault_source)
            if log.n:
                anomalies = tail_anomalies(log)
                ctx["dominant_hop"] = log.dominant_hop()
                ctx["tail_windows"] = [
                    {"window": a["window"],
                     "dominant_hop": a["dominant_hop"],
                     "max_ns": round(a["max_ns"], 1)}
                    for a in anomalies[:3]]
                ctx["top_faults"] = [
                    {"seq": ex[1], "node": ex[4],
                     "total_ns": round(ex[0], 1)}
                    for ex in log.exemplars[:3]]
        return ctx
