"""The run report: one fleet artifact, rendered for humans.

:func:`report_sections` computes every section's rows once from a
:class:`~repro.obs.fleet.FleetRecorder`, and two renderers draw them:

* :func:`dashboard_text` — the terminal report ``repro dashboard``
  prints;
* :func:`dashboard_html` — a **self-contained** HTML report.  No
  external assets: styling is one inline stylesheet on CSS custom
  properties (with a ``prefers-color-scheme`` dark scope), sparklines
  are inline SVG polylines over the fleet's sampled series.  Status
  is never color-alone (every chip carries a text label), values wear
  text tokens — the series color only ever paints marks.

Sections appear when their data is present:

* overview, SLO status, per-tenant attribution, the health timeline;
* fault attribution over the merged fault log: counts by kind and
  health with the stall quantiles, the per-hop budget with
  degraded-window dominance, the slowest fault chains, hot pages, the
  per-node table and the MAD tail-anomaly windows;
* a trace profile of every member with span events: self time by span
  and by category, the critical path, the heaviest 100 µs stall
  windows and the self-time coverage;
* per-component key metrics.

Both renderers read only the fleet's derived views, so anything that
can load a fleet artifact (the CLI, CI, a notebook) can render it.
"""

from __future__ import annotations

import html
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .analysis import critical_path, profile, stall_windows, top_stalls
from .causal import HOPS, FaultLog, tail_anomalies
from .fleet import ComponentSnapshot, FleetRecorder

#: Metric-name prefixes surfaced in the per-component "key metrics"
#: table (everything else stays in the collapsed full table).
_KEY_PREFIXES = ("fetch.", "memory.", "faults.", "network.",
                 "memnode.", "fabric.", "health.state",
                 "replication.failovers")

#: Per-component sparkline picks: first match per pattern, ≤ 4 total.
_SPARK_PATTERNS = ("stall", "transfers", "bytes", "faults")

#: Maximum rows rendered per table (the artifact keeps everything).
_MAX_ROWS = 40

#: Rows in each "top" table: slowest chains, hot pages, tail windows,
#: heaviest spans and categories, heaviest stall windows.
TOP_ROWS = 10

#: Stall-attribution window of the profile section (simulated ns).
STALL_WINDOW_NS = 100_000.0

#: Span categories that count as stall time in windowed attribution.
STALL_CATEGORIES = ("fetch", "evict", "rdma", "net", "coherence", "fault")

_HEALTH = ("HEALTHY", "DEGRADED", "RECOVERING")

#: Chip color per status word (the word itself is always shown).
_CHIPS = {"MET": "good", "HEALTHY": "good", "VIOLATED": "crit",
          "DEGRADED": "crit", "RECOVERING": "warn"}


@dataclass
class Section:
    """One report table, rendered identically by both renderers.

    ``columns`` are ``(label, kind)`` pairs: ``text``, ``num``
    (right-aligned) or ``status`` (a state word the HTML draws as a
    labelled chip).  Cells are preformatted strings.
    """

    title: str
    columns: Tuple[Tuple[str, str], ...]
    rows: List[Tuple[str, ...]]
    note: str = ""


# -- formatting helpers -------------------------------------------------------------


def _fmt_num(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value != value:
            return "nan"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        return f"{value:.3g}"
    return str(value)


def _fmt_ns(ns: float) -> str:
    if ns >= 1e9:
        return f"{ns / 1e9:,.2f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:,.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:,.2f} µs"
    return f"{ns:,.0f} ns"


def _us(ns: float) -> str:
    return f"{ns / 1e3:,.1f}"


def _key_metrics(metrics: Dict[str, Any]) -> List[Tuple[str, Any]]:
    out = [(name, metrics[name]) for name in sorted(metrics)
           if name.startswith(_KEY_PREFIXES)]
    if not out:
        out = sorted(metrics.items())[:8]
    return out[:_MAX_ROWS]


def _spark_series(points: Dict[str, List[Tuple[float, float]]]
                  ) -> List[str]:
    picked: List[str] = []
    for pattern in _SPARK_PATTERNS:
        for name in sorted(points):
            if name in picked or len(points[name]) < 2:
                continue
            if pattern in name:
                picked.append(name)
                break
    if not picked:
        picked = [name for name in sorted(points)
                  if len(points[name]) >= 2][:2]
    return picked[:4]


# -- sections ---------------------------------------------------------------------


def _overview(fleet: FleetRecorder, log: Optional[FaultLog]) -> Section:
    rows = [("components", f"{len(fleet.members)}")]
    if fleet.tenants():
        rows.append(("tenants", ", ".join(fleet.tenants())))
    if log is not None and log.n:
        rows += [("faults captured", f"{log.n:,}"),
                 ("total stall", _fmt_ns(log.total_stall_ns())),
                 ("p50 stall", _fmt_ns(log.quantile(0.5))),
                 ("p99 stall", _fmt_ns(log.quantile(0.99))),
                 ("dominant hop", str(log.dominant_hop()))]
    slo = fleet.slo_status()
    if slo:
        met = sum(1 for row in slo if row["met"])
        rows.append(("SLOs met", f"{met}/{len(slo)}"))
    transitions = len(fleet.health_timeline())
    if transitions:
        rows.append(("health transitions", f"{transitions}"))
    return Section("Overview", (("metric", "text"), ("value", "num")), rows)


def _fleet_sections(fleet: FleetRecorder) -> List[Section]:
    out: List[Section] = []
    slo = fleet.slo_status()
    if slo:
        out.append(Section(
            "SLO status",
            (("component", "text"), ("rule", "text"), ("status", "status"),
             ("good fraction", "num"), ("objective", "num"),
             ("alerts", "num")),
            [(row["component"], row["rule"],
              "MET" if row["met"] else "VIOLATED",
              f"{row['good_fraction']:.4f}", f"{row['objective']:.4f}",
              f"{row['alerts']}") for row in slo]))
    tenants = fleet.tenant_attribution()
    if any(row["faults"] for row in tenants) or fleet.tenants():
        out.append(Section(
            "Per-tenant attribution",
            (("tenant", "text"), ("components", "num"), ("faults", "num"),
             ("remote fetches", "num"), ("stall", "num"),
             ("share", "num")),
            [(row["tenant"], f"{row['components']}", f"{row['faults']:,}",
              f"{row['remote_fetches']:,}", _fmt_ns(row["stall_ns"]),
              f"{row['stall_share'] * 100:.1f}%") for row in tenants]))
    timeline = fleet.health_timeline()
    if timeline:
        rows = []
        for ts, component, state, ctx in timeline[-_MAX_ROWS:]:
            ctx = ctx if isinstance(ctx, dict) else {}
            rows.append((_fmt_ns(ts), component, state,
                         str(ctx.get("reason") or ""),
                         "; ".join(ctx.get("alerts", []))))
        out.append(Section(
            "Health timeline",
            (("time", "num"), ("component", "text"), ("state", "status"),
             ("reason", "text"), ("alerts at transition", "text")), rows))
    return out


def _fault_sections(log: FaultLog) -> List[Section]:
    summary = log.summary()
    health = summary["health"]
    hop_totals = log.hop_totals()
    total = log.total_stall_ns() or 1.0
    degraded = log.degraded_hop_counts()
    counts = [
        ("faults", f"{log.n:,}"),
        ("remote fetches", f"{summary['remote_fetches']:,}"),
        ("fmem hits", f"{summary['fmem_hits']:,}"),
        *((f"{state} faults", f"{health[state]:,}")
          for state in ("healthy", "degraded", "recovering")),
        ("fabric-down faults", f"{summary['fabric_down_faults']:,}"),
        ("replica-read faults", f"{summary['replica_faults']:,}"),
        ("dominant hop", str(log.dominant_hop())),
        *((f"stall {name}", _fmt_ns(log.quantile(q)))
          for name, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99),
                          ("p999", 0.999))),
    ]
    out = [
        Section("Fault attribution", (("metric", "text"), ("value", "num")),
                counts),
        Section("Per-hop stall budget",
                (("hop", "text"), ("total stall", "num"), ("share", "num"),
                 ("dominated in degraded windows", "num")),
                [(hop, _fmt_ns(hop_totals[hop]),
                  f"{hop_totals[hop] / total * 100:.1f}%",
                  f"{degraded[hop]:,}") for hop in HOPS]),
        Section("Slowest fault chains",
                (("seq", "num"), ("page", "num"), ("node", "text"),
                 ("health", "status"), ("total ns", "num"),
                 *((f"{hop} ns", "num") for hop in HOPS)),
                [(f"{ex[1]}", f"{ex[3]}", ex[4] or "-", _HEALTH[ex[6]],
                  f"{ex[0]:,.1f}", *(f"{ns:,.1f}" for ns in ex[8:12]))
                 for ex in log.exemplars[:TOP_ROWS]]),
        Section("Hot pages", (("page", "num"), ("faults", "num")),
                [(f"{page}", f"{count:,}")
                 for page, count in log.hot_pages(top=TOP_ROWS)]),
        Section("Per-node hot map",
                (("node", "text"), ("fetches", "num"), ("stall", "num")),
                [(node, f"{fetches:,}", _fmt_ns(stall))
                 for node, fetches, stall in log.node_table()]),
    ]
    anomalies = tail_anomalies(log)[:TOP_ROWS]
    if anomalies:
        out.append(Section(
            "Tail anomalies",
            (("window", "num"), ("seq range", "text"),
             ("max stall", "num"), ("MAD score", "num"),
             ("dominant hop", "text"), ("faults", "num"),
             ("degraded", "num")),
            [(f"{a['window']}", f"{a['start_seq']:,}..{a['end_seq']:,}",
              _fmt_ns(a["max_ns"]), f"{a['score']:.1f}",
              a["dominant_hop"], f"{a['count']:,}",
              f"{a['degraded_faults']:,}") for a in anomalies]))
    return out


def _profile_sections(m: ComponentSnapshot) -> List[Section]:
    report = profile(m.events)
    total = report.total_ns or 1.0
    out = [
        Section(f"Self time by span — {m.component}",
                (("span", "text"), ("count", "num"), ("total µs", "num"),
                 ("self µs", "num"), ("self %", "num")),
                [(s.key, f"{s.count:,}", _us(s.total_ns), _us(s.self_ns),
                  f"{s.self_ns / total:.1%}")
                 for s in report.top_spans(TOP_ROWS)],
                note=(f"self-time coverage: {report.coverage:.4f} "
                      f"({_us(report.self_total_ns)} of "
                      f"{_us(report.total_ns)} µs attributed)")),
        Section(f"Self time by category — {m.component}",
                (("category", "text"), ("count", "num"), ("self µs", "num")),
                [(s.key, f"{s.count:,}", _us(s.self_ns))
                 for s in report.top_categories(TOP_ROWS)]),
        Section(f"Critical path — {m.component}",
                (("span", "text"), ("cat", "text"), ("start µs", "num"),
                 ("dur µs", "num"), ("self µs", "num")),
                [("  " * depth + name, cat, _us(start), _us(dur),
                  _us(self_ns)) for depth, name, cat, start, dur, self_ns
                 in critical_path(report.roots)]),
    ]
    windows = stall_windows(report.roots, STALL_WINDOW_NS, STALL_CATEGORIES)
    heaviest = sorted(sorted(windows, key=lambda w: -sum(w[1].values()))
                      [:TOP_ROWS])
    if heaviest:
        out.append(Section(
            f"Heaviest {STALL_WINDOW_NS / 1e3:g} µs stall windows — "
            f"{m.component}",
            (("window end µs", "num"), ("top stall categories", "text")),
            [(_us(end_ns), ", ".join(f"{cat} {_us(ns)} µs"
                                     for cat, ns in ranked))
             for end_ns, ranked in top_stalls(heaviest, 3)]))
    return out


def report_sections(fleet: FleetRecorder) -> List[Section]:
    """Every fleet-wide section of the report, rows computed once."""
    log = fleet.fault_log()
    out = [_overview(fleet, log), *_fleet_sections(fleet)]
    if log is not None and log.n:
        out += _fault_sections(log)
    for m in fleet.members:
        if any(e.get("ph") == "X" for e in m.events):
            out += _profile_sections(m)
    return out


def _component_section(m: ComponentSnapshot) -> Section:
    title = f"component {m.component}"
    if m.tenant:
        title += f" (tenant {m.tenant})"
    return Section(title, (("metric", "text"), ("value", "num")),
                   [(name, _fmt_num(value))
                    for name, value in _key_metrics(m.metrics)])


# -- terminal renderer --------------------------------------------------------------


def _text_table(section: Section) -> List[str]:
    widths = [len(label) for label, _ in section.columns]
    for row in section.rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]

    def line(cells) -> str:
        return ("  " + "  ".join(
            cell.rjust(w) if kind == "num" else cell.ljust(w)
            for (_, kind), w, cell in zip(section.columns, widths, cells))
        ).rstrip()

    title = f"--- {section.title} "
    out = [title + "-" * max(0, 64 - len(title)),
           line([label for label, _ in section.columns])]
    out += [line(row) for row in section.rows]
    if section.note:
        out.append(f"  {section.note}")
    return out


def dashboard_text(fleet: FleetRecorder) -> str:
    """The terminal report of one fleet artifact."""
    lines = [f"fleet {fleet.name!r}: {len(fleet.members)} components "
             f"({', '.join(fleet.components())})"]
    for section in (*report_sections(fleet),
                    *map(_component_section, fleet.members)):
        lines += _text_table(section)
    return "\n".join(lines) + "\n"


# -- HTML renderer ------------------------------------------------------------------

_CSS = """
:root {
  --surface: #fcfcfb; --card: #ffffff; --border: #e4e3df;
  --text: #0b0b0b; --text-2: #52514e;
  --series-1: #2a78d6;
  --good: #008300; --warn: #eda100; --crit: #e34948;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --card: #232322; --border: #3a3936;
    --text: #ffffff; --text-2: #c3c2b7;
    --series-1: #3987e5;
    --good: #4cba57; --warn: #eda100; --crit: #e8706b;
  }
}
* { box-sizing: border-box; }
body { margin: 0; padding: 24px; background: var(--surface);
       color: var(--text);
       font: 14px/1.5 system-ui, -apple-system, sans-serif; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: var(--text-2); margin: 0 0 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { background: var(--card); border: 1px solid var(--border);
        border-radius: 8px; padding: 10px 16px; min-width: 130px; }
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { color: var(--text-2); font-size: 12px; }
table { border-collapse: collapse; width: 100%;
        background: var(--card); border: 1px solid var(--border);
        border-radius: 8px; }
th, td { padding: 5px 10px; text-align: left;
         border-bottom: 1px solid var(--border); }
th { color: var(--text-2); font-weight: 500; font-size: 12px; }
td.num, th.num { text-align: right;
                 font-variant-numeric: tabular-nums; }
tr:last-child td { border-bottom: none; }
.chip { display: inline-flex; align-items: center; gap: 6px; }
.chip::before { content: ""; width: 8px; height: 8px;
                border-radius: 50%; background: currentColor; }
.chip.good { color: var(--good); }
.chip.warn { color: var(--warn); }
.chip.crit { color: var(--crit); }
.chip span { color: var(--text); }
.sparks { display: flex; flex-wrap: wrap; gap: 16px; margin: 8px 0; }
.spark { background: var(--card); border: 1px solid var(--border);
         border-radius: 8px; padding: 8px 12px; }
.spark .name { color: var(--text-2); font-size: 12px; }
.spark .last { font-weight: 600; }
svg.line polyline { stroke: var(--series-1); stroke-width: 2;
                    fill: none; stroke-linejoin: round;
                    stroke-linecap: round; }
details { margin: 8px 0 20px; }
summary { cursor: pointer; color: var(--text-2); }
.component { margin-bottom: 28px; }
footer { margin-top: 32px; color: var(--text-2); font-size: 12px; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value))


def _sparkline(points: List[Tuple[float, float]], width: int = 220,
               height: int = 48) -> str:
    """One series as an inline SVG polyline (normalized to the box)."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xr = (x1 - x0) or 1.0
    yr = (y1 - y0) or 1.0
    pad = 3
    coords = " ".join(
        f"{pad + (x - x0) / xr * (width - 2 * pad):.1f},"
        f"{height - pad - (y - y0) / yr * (height - 2 * pad):.1f}"
        for x, y in points)
    return (f'<svg class="line" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}" role="img">'
            f'<polyline points="{coords}"/></svg>')


def _cell(kind: str, value: str) -> str:
    if kind == "status":
        return (f'<span class="chip {_CHIPS.get(value, "warn")}">'
                f"<span>{_esc(value)}</span></span>")
    return _esc(value)


def _table(section: Section) -> str:
    """A section's rows as an HTML table; numeric columns right-align."""
    def cls(kind: str) -> str:
        return ' class="num"' if kind == "num" else ""
    head = "".join(f"<th{cls(kind)}>{_esc(label)}</th>"
                   for label, kind in section.columns)
    body = "".join(
        "<tr>" + "".join(f"<td{cls(kind)}>{_cell(kind, cell)}</td>"
                         for (_, kind), cell in zip(section.columns, row))
        + "</tr>" for row in section.rows)
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{body}</tbody></table>")


def _component_html(m: ComponentSnapshot) -> str:
    section = _component_section(m)
    head = _esc(m.component)
    if m.tenant:
        head += f' <span class="sub">(tenant {_esc(m.tenant)})</span>'
    parts = [f'<div class="component"><h2>{head}</h2>']
    sparks = [f'<div class="spark"><div class="name">{_esc(name)}</div>'
              f"{_sparkline(m.points[name])}"
              f'<div class="last">{_esc(_fmt_num(m.points[name][-1][1]))}'
              f"</div></div>" for name in _spark_series(m.points)]
    if sparks:
        parts.append('<div class="sparks">' + "".join(sparks) + "</div>")
    if section.rows:
        parts.append(_table(section))
    if m.metrics:
        everything = Section("", section.columns,
                             [(name, _fmt_num(m.metrics[name]))
                              for name in sorted(m.metrics)])
        parts.append(f"<details><summary>all {len(m.metrics)} metrics"
                     f"</summary>{_table(everything)}</details>")
    parts.append("</div>")
    return "".join(parts)


def dashboard_html(fleet: FleetRecorder,
                   title: Optional[str] = None) -> str:
    """Render one fleet artifact as a self-contained HTML report."""
    title = title or f"Fleet dashboard — {fleet.name}"
    overview, *sections = report_sections(fleet)
    parts: List[str] = [
        "<!doctype html>", '<html lang="en">', "<head>",
        '<meta charset="utf-8">',
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style>", "</head>",
        '<body data-palette="#2a78d6">',
        f"<h1>{_esc(title)}</h1>",
        f'<p class="sub">{_esc(", ".join(fleet.components()))}</p>',
        '<div class="tiles">' + "".join(
            f'<div class="tile"><div class="v">{_esc(value)}</div>'
            f'<div class="k">{_esc(key)}</div></div>'
            for key, value in overview.rows) + "</div>",
    ]
    for section in sections:
        parts.append(f"<h2>{_esc(section.title)}</h2>{_table(section)}")
        if section.note:
            parts.append(f'<p class="sub">{_esc(section.note)}</p>')
    parts += [_component_html(m) for m in fleet.members]
    parts.append("<footer>generated by repro dashboard — "
                 "self-contained report, no external assets</footer>")
    parts.append("</body></html>")
    return "\n".join(parts)


def write_dashboard(fleet: FleetRecorder, path: str,
                    title: Optional[str] = None) -> str:
    """Write the HTML dashboard; returns the path."""
    with open(path, "w") as fh:
        fh.write(dashboard_html(fleet, title=title))
    return path
