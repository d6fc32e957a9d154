"""Exporters: Chrome trace JSON and Prometheus text.

Two formats, two audiences:

* **Chrome trace-event JSON** — open in ``about://tracing`` or
  https://ui.perfetto.dev to see the nested span timeline.  Timestamps
  convert from simulated ns to the format's microseconds.
* **Prometheus text format** — one dump of every registry metric,
  including histogram ``_bucket``/``_sum``/``_count`` series, for
  scrape-shaped pipelines.

``validate_chrome_trace`` is the schema gate: :func:`write_chrome_trace`
runs it before every write, and CI runs it standalone with
``python -m repro.obs.export trace.json``.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional

from .registry import HistogramMetric, MetricsRegistry

#: Chrome trace event phases we emit / accept.  ``s``/``t``/``f`` are
#: flow events (linked arrows across tracks) — causal fault chains use
#: them to connect a fault's hops across the component tracks.
_PHASES = {"X", "B", "E", "i", "I", "C", "M"}
_FLOW_PHASES = {"s", "t", "f"}

_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


#: Virtual-timeline track ids: spans/instants vs sampled gauge series.
_SPAN_TID = 1
_COUNTER_TID = 2

#: FNV-1a 32-bit parameters (pid hashing).
_FNV_OFFSET = 0x811c9dc5
_FNV_PRIME = 0x01000193


def component_pid(label: str) -> int:
    """Deterministic Chrome pid for a component identity label.

    FNV-1a over the UTF-8 label, folded to a positive 31-bit int (pid
    0 is reserved, so an exact-zero hash maps to 1).  A pure function
    of the label: the same component gets the same pid in every
    export, every run, every process — merged fleet traces never
    renumber tracks between runs.
    """
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & 0xffffffff
    return (h & 0x7fffffff) or 1


def chrome_trace(events: List[Dict[str, Any]],
                 process_name: str = "kona-sim",
                 pid: Optional[int] = None) -> Dict[str, Any]:
    """Build a Chrome trace-event JSON object from tracer events.

    Tracer timestamps are simulated ns; the trace-event format wants
    microseconds, so ``ts``/``dur`` are scaled by 1/1000.  Metadata
    (``M``) events name the process and both virtual tracks so
    Perfetto labels them instead of showing bare pid/tid numbers;
    counter (``C``) events land on their own track, keeping the gauge
    graphs from interleaving with the span flame graph.

    The process id defaults to :func:`component_pid` of the process
    name, so every export of the same component lands on the same
    track; events that pre-assigned their own ``pid`` (fleet fault
    chains spanning components) keep it.
    """
    if pid is None:
        pid = component_pid(process_name)
    out: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": _SPAN_TID,
         "ts": 0, "args": {"name": process_name}},
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": _SPAN_TID,
         "ts": 0, "args": {"name": "sim timeline (spans)"}},
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": _COUNTER_TID,
         "ts": 0, "args": {"name": "gauge samples"}},
    ]
    for event in events:
        converted = dict(event)
        if "pid" not in event:
            converted["pid"] = pid
        # Events that already chose a track (causal fault chains) keep
        # it; tracer spans and counters land on the default tracks.
        if "tid" not in event:
            converted["tid"] = (_COUNTER_TID if event.get("ph") == "C"
                                else _SPAN_TID)
        converted["ts"] = event["ts"] / 1e3
        if "dur" in event:
            converted["dur"] = event["dur"] / 1e3
        out.append(converted)
    return {"traceEvents": out, "displayTimeUnit": "ns"}


def write_chrome_trace(payload: Dict[str, Any], path: str) -> List[str]:
    """Validate a Chrome trace payload, then write it as JSON.

    Returns the schema errors; a payload with any is not written, so
    no invalid trace ever reaches disk.
    """
    errors = validate_chrome_trace(payload)
    if not errors:
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    return errors


def validate_chrome_trace(payload: Any) -> List[str]:
    """Schema-check a Chrome trace object; returns error messages.

    An empty list means the trace is loadable by ``about://tracing``:
    a ``traceEvents`` array whose entries carry ``name``/``ph``/``ts``/
    ``pid``/``tid``, with a known phase, numeric non-negative
    timestamps, and durations on complete (``X``) events.
    """
    errors: List[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["top level must be an object with a 'traceEvents' array"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be an array"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in event:
                errors.append(f"{where}: missing {field!r}")
        ph = event.get("ph")
        if ph is not None and ph not in _PHASES and ph not in _FLOW_PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
        if ph in _FLOW_PHASES and "id" not in event:
            errors.append(f"{where}: flow event needs an id")
        ts = event.get("ts")
        if ts is not None and (not isinstance(ts, (int, float))
                               or ts < 0):
            errors.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: complete event needs dur >= 0")
        if ph == "C" and not isinstance(event.get("args"), dict):
            errors.append(f"{where}: counter event needs args")
        if "args" in event and not isinstance(event["args"], dict):
            errors.append(f"{where}: args must be an object")
    if len(errors) >= 50:
        errors = errors[:50] + ["... (truncated)"]
    return errors


# -- Prometheus text format ---------------------------------------------------------


def _prom_name(name: str) -> str:
    return _METRIC_NAME_RE.sub("_", name)


def _prom_labels(labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{_prom_name(k)}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def _prom_number(value: float) -> str:
    if value != value:                      # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every registry metric in Prometheus text format.

    Counters get the conventional ``_total`` suffix; string-valued
    gauges become ``<name>_info{value="..."} 1`` info metrics;
    histograms expand into cumulative ``_bucket`` series plus ``_sum``
    and ``_count``.
    """
    lines: List[str] = []
    for family in registry.families():
        name = _prom_name(family.name)
        if family.kind == "counter":
            name += "_total"
        if family.help:
            lines.append(f"# HELP {name} {family.help}")
        lines.append(f"# TYPE {name} {family.kind}")
        for labels, child in family.children():
            if isinstance(child, HistogramMetric):
                cumulative = 0
                for bound, cumulative in child.buckets():
                    bucket_labels = (*labels, ("le", _prom_number(bound)))
                    lines.append(f"{name}_bucket{_prom_labels(bucket_labels)} "
                                 f"{cumulative}")
                inf_labels = (*labels, ("le", "+Inf"))
                lines.append(f"{name}_bucket{_prom_labels(inf_labels)} "
                             f"{child.count}")
                lines.append(f"{name}_sum{_prom_labels(labels)} "
                             f"{_prom_number(child.sum)}")
                lines.append(f"{name}_count{_prom_labels(labels)} "
                             f"{child.count}")
                continue
            value = child.value
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                lines.append(f"{name}{_prom_labels(labels)} "
                             f"{_prom_number(value)}")
            else:
                info_labels = (*labels, ("value", str(value)))
                lines.append(f"{name}_info{_prom_labels(info_labels)} 1")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    """Validate Chrome trace files: ``python -m repro.obs.export f.json``."""
    import argparse
    parser = argparse.ArgumentParser(
        description="Validate Chrome trace-event JSON files.")
    parser.add_argument("paths", nargs="+", help="trace files to check")
    args = parser.parse_args(argv)
    status = 0
    for path in args.paths:
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable: {exc}")
            status = 1
            continue
        errors = validate_chrome_trace(payload)
        if errors:
            status = 1
            print(f"{path}: INVALID")
            for err in errors:
                print(f"  {err}")
        else:
            events = len(payload["traceEvents"])
            print(f"{path}: ok ({events} events)")
    return status


if __name__ == "__main__":      # pragma: no cover
    raise SystemExit(main())
