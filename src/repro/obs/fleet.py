"""Fleet observability: federated telemetry with component identity.

One runtime's :class:`~repro.obs.recorder.FlightRecorder` tells one
component's story.  A disaggregated-memory cluster has many stories —
N compute-node runtimes, M memory blades, the fabric between them —
and debugging the cluster needs them *joined*: the same metric names
across components, one timeline, one trace, per-tenant attribution.

This module is that join:

* :func:`ComponentSnapshot.from_recorder` freezes one producer's
  telemetry — final metric values, histogram states, sampled series,
  tracer events, health transitions, the causal fault log, SLO
  verdicts — under a **component identity** label (``runtime:shard3``,
  ``memnode:5``, ``fabric``, ``controller``) plus an optional
  **tenant** label.  Snapshots are plain data: picklable (multiprocess
  shard workers ship them through a ``Pool``) and JSON round-trippable
  (:meth:`ComponentSnapshot.to_json`).
* :class:`FleetRecorder` aggregates snapshots into the cluster view
  using the *exact* merge algebras the single-runtime layer already
  guarantees: integer counter sums, aligned-bucket
  :meth:`~repro.obs.registry.HistogramMetric.merge`, tie-stable
  :meth:`~repro.obs.tsdb.TimeSeriesStore.merge` on the shared
  sim-clock, and partition-invariant
  :meth:`~repro.obs.causal.FaultLog.merge` — so fleet aggregation over
  page-modulo shards or streamed chunks equals the monolithic
  aggregate bit for bit.
* :meth:`FleetRecorder.chrome_trace` renders the unified timeline:
  every component gets its own deterministic Chrome pid
  (:func:`~repro.obs.export.component_pid` of its label — stable
  across runs and processes) and the slowest faults' causal chains
  become flow arrows *across* component tracks — directory hop on the
  capturing runtime's track, fabric hop on the fabric track,
  FMem/replication service on the owning memnode's track, linked by
  the access seq as the correlation id.
* :meth:`FleetRecorder.save` / :meth:`FleetRecorder.load` round-trip
  the whole fleet as one JSON artifact — the one run artifact: ``repro
  chaos --fleet-out`` writes it, ``repro dashboard`` renders it and
  ``repro perfdiff`` compares two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..common.errors import ConfigError
from .causal import FaultLog
from .export import chrome_trace, component_pid
from .registry import HistogramMetric, MetricsRegistry
from .tsdb import TimeSeriesStore

#: Fault-chain hop -> (exemplar column, component resolver key).
#: ``dir`` bills to the capturing runtime, ``fab`` to the fabric,
#: ``mem``/``repl`` to the serving memnode.
_HOP_COLUMNS = (("dir", 8), ("fab", 9), ("mem", 10), ("repl", 11))

#: Track ids inside one component's process: spans, gauges, faults.
_SPAN_TID = 1
_COUNTER_TID = 2
_FAULT_TID = 3


def _flat_key(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


@dataclass
class ComponentSnapshot:
    """One telemetry producer's frozen story, identity attached.

    Plain picklable/JSON-able data — every field is builtins-only
    except ``None`` defaults.  ``metrics`` holds the final flattened
    counter/gauge values (the sampler's key shape), ``kinds`` maps
    family base names to their registry kind so the fleet can rebuild
    a labeled registry, ``histograms`` holds exact
    :meth:`~repro.obs.registry.HistogramMetric.state` dicts, and
    ``points`` the tsdb series on the producer's sim-clock.
    """

    component: str
    tenant: Optional[str] = None
    metrics: Dict[str, Any] = field(default_factory=dict)
    kinds: Dict[str, str] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    points: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    events: List[Dict[str, Any]] = field(default_factory=list)
    health: List[List[Any]] = field(default_factory=list)
    fault_log: Optional[Dict[str, Any]] = None
    slo: List[Dict[str, Any]] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def pid(self) -> int:
        """This component's deterministic Chrome trace pid."""
        return component_pid(self.component)

    @classmethod
    def from_recorder(cls, recorder, component: Optional[str] = None,
                      tenant: Optional[str] = None,
                      health: Any = None,
                      fault_log: Any = None,
                      slo: Any = None,
                      meta: Optional[Dict[str, Any]] = None
                      ) -> "ComponentSnapshot":
        """Freeze a :class:`~repro.obs.recorder.FlightRecorder`.

        ``component``/``tenant`` default to the recorder's own
        identity labels.  ``health`` is a
        :class:`~repro.kona.health.HealthMonitor` (its annotated
        transitions are copied), ``fault_log`` a
        :class:`~repro.obs.causal.FaultLog` or ``CausalCapture``
        (drained lazily via ``.log``), ``slo`` an
        :class:`~repro.obs.slo.SLOEngine` (its :meth:`report`) or an
        already-shaped verdict list.
        """
        snap = cls(
            component=component if component is not None
            else recorder.component,
            tenant=tenant if tenant is not None else recorder.tenant,
            metrics=dict(recorder.registry.flat_samples()),
            kinds={fam.name: fam.kind
                   for fam in recorder.registry.families()},
            events=[dict(e) for e in recorder.tracer.events],
            meta=dict(meta) if meta else {},
        )
        for fam in recorder.registry.families():
            if fam.kind != "histogram":
                continue
            for labels, child in fam.children():
                snap.histograms[_flat_key(fam.name, labels)] = child.state()
        if recorder.tsdb is not None:
            snap.points = {name: [list(p) for p in pts] for name, pts
                           in recorder.tsdb.as_dict().items()}
        if health is not None:
            annotated = getattr(health, "annotated_transitions", None)
            raw = annotated if annotated is not None else health.transitions
            snap.health = [list(t) for t in raw]
        if fault_log is not None:
            log = getattr(fault_log, "log", fault_log)
            snap.fault_log = log.to_json()
        if slo is not None:
            snap.slo = (slo.report() if hasattr(slo, "report")
                        else [dict(v) for v in slo])
        return snap

    # -- persistence --------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """JSON-serializable form (exact round-trip via from_json)."""
        return {
            "component": self.component, "tenant": self.tenant,
            "metrics": self.metrics, "kinds": self.kinds,
            "histograms": self.histograms,
            "points": {name: [list(p) for p in pts]
                       for name, pts in self.points.items()},
            "events": self.events, "health": self.health,
            "fault_log": self.fault_log, "slo": self.slo,
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, state: Dict[str, Any]) -> "ComponentSnapshot":
        """Rebuild a snapshot from :meth:`to_json` output."""
        return cls(
            component=state["component"], tenant=state.get("tenant"),
            metrics=dict(state.get("metrics", {})),
            kinds=dict(state.get("kinds", {})),
            histograms=dict(state.get("histograms", {})),
            points={name: [tuple(p) for p in pts] for name, pts
                    in state.get("points", {}).items()},
            events=list(state.get("events", [])),
            health=[list(t) for t in state.get("health", [])],
            fault_log=state.get("fault_log"),
            slo=list(state.get("slo", [])),
            meta=dict(state.get("meta", {})),
        )


class FleetRecorder:
    """Aggregates component snapshots into one cluster view.

    Every derived view is computed from the member snapshots on
    demand, with the single-runtime layer's exact merge algebras —
    nothing here re-derives statistics approximately.
    """

    def __init__(self, name: str = "fleet") -> None:
        self.name = name
        self.members: List[ComponentSnapshot] = []

    # -- membership ---------------------------------------------------------------

    def add(self, snapshot: ComponentSnapshot) -> "FleetRecorder":
        """Add one member snapshot (component labels must be unique)."""
        if not isinstance(snapshot, ComponentSnapshot):
            raise ConfigError(f"cannot add {type(snapshot).__name__} "
                              f"to a FleetRecorder")
        if any(m.component == snapshot.component for m in self.members):
            raise ConfigError(
                f"duplicate component label {snapshot.component!r}")
        self.members.append(snapshot)
        return self

    def components(self) -> List[str]:
        """All member component labels, in join order."""
        return [m.component for m in self.members]

    def tenants(self) -> List[str]:
        """Distinct tenant labels (sorted; unlabeled members excluded)."""
        return sorted({m.tenant for m in self.members
                       if m.tenant is not None})

    def member(self, component: str) -> ComponentSnapshot:
        """The member with that exact component label."""
        for m in self.members:
            if m.component == component:
                return m
        raise ConfigError(f"no component {component!r} in fleet "
                          f"{sorted(self.components())}")

    # -- merged registry views ----------------------------------------------------

    def registry(self) -> MetricsRegistry:
        """A merged registry keyed by ``component``/``tenant`` labels.

        Every member sample becomes a labeled child of a family named
        by its flattened key — counters stay counters, everything else
        lands as a gauge; histograms rebuild from their exact states.
        """
        reg = MetricsRegistry()
        labels = ("component", "tenant")
        for m in self.members:
            tenant = m.tenant if m.tenant is not None else ""
            for key, value in m.metrics.items():
                base = key.split("{", 1)[0]
                if m.kinds.get(base) == "counter":
                    fam = reg.counter(key, labels=labels)
                    fam.labels(component=m.component,
                               tenant=tenant).inc(int(value))
                else:
                    fam = reg.gauge(key, labels=labels)
                    fam.labels(component=m.component,
                               tenant=tenant).set(value)
            for key, state in m.histograms.items():
                fam = reg.histogram(key, labels=labels)
                child = fam.labels(component=m.component, tenant=tenant)
                child.merge(HistogramMetric.from_state(state))
        return reg

    def totals(self, tenant: Optional[str] = None) -> Dict[str, int]:
        """Exact integer totals of count-shaped metrics fleet-wide.

        Sums every integer-valued (non-bool) member metric by
        flattened name — the partition-invariant roll-up: over a
        page-modulo sharded run these totals equal the monolithic
        runtime's values exactly for every partitioned counter.
        ``tenant`` restricts the sum to one tenant's components.
        """
        out: Dict[str, int] = {}
        for m in self.members:
            if tenant is not None and m.tenant != tenant:
                continue
            for key, value in m.metrics.items():
                if isinstance(value, bool) or not isinstance(value, int):
                    continue
                out[key] = out.get(key, 0) + value
        return out

    def histogram_totals(self) -> Dict[str, HistogramMetric]:
        """Exact merged histograms by flattened name, fleet-wide."""
        out: Dict[str, HistogramMetric] = {}
        for m in self.members:
            for key, state in m.histograms.items():
                merged = out.setdefault(key, HistogramMetric())
                merged.merge(HistogramMetric.from_state(state))
        return out

    def tsdb(self, per_component: bool = True) -> TimeSeriesStore:
        """The merged time-series store on the shared sim-clock.

        With ``per_component`` (the dashboard view) each member's
        series merge under a ``<component>/`` prefix so producers stay
        distinct; without it, same-named series interleave exactly —
        the bit-exact union a monolithic store of all points would
        hold (members must share the sim-clock timebase).
        """
        store = TimeSeriesStore()
        for m in self.members:
            member_store = TimeSeriesStore()
            for series, pts in m.points.items():
                for ts, value in pts:
                    member_store.append(ts, series, value)
            store.merge(member_store,
                        prefix=f"{m.component}/" if per_component else None)
        return store

    def fault_log(self) -> Optional[FaultLog]:
        """The exact fleet-wide merged fault log (None when no member
        captured one)."""
        merged: Optional[FaultLog] = None
        for m in self.members:
            if m.fault_log is None:
                continue
            log = FaultLog.from_json(m.fault_log)
            if merged is None:
                merged = log
            else:
                merged.merge(log)
        return merged

    # -- cross-cutting views ------------------------------------------------------

    def health_timeline(self) -> List[Tuple[float, str, str, Any]]:
        """(ts, component, state, context) fleet-wide, time-ordered.

        Ties order by component label so the timeline is deterministic
        regardless of member join order.
        """
        out: List[Tuple[float, str, str, Any]] = []
        for m in self.members:
            for t in m.health:
                ts, state = t[0], t[1]
                ctx = t[2] if len(t) > 2 else None
                out.append((ts, m.component, state, ctx))
        out.sort(key=lambda row: (row[0], row[1]))
        return out

    def slo_status(self) -> List[Dict[str, Any]]:
        """Every member's SLO verdicts, component label attached."""
        out: List[Dict[str, Any]] = []
        for m in self.members:
            for verdict in m.slo:
                out.append({"component": m.component,
                            "tenant": m.tenant, **verdict})
        return out

    def tenant_attribution(self) -> List[Dict[str, Any]]:
        """Per-tenant stall and fault accounting, exact.

        One row per tenant (components without a tenant label fold
        into ``"-"``): member count, captured faults, exact total
        stall ns (spectrum sums), remote fetches, and each tenant's
        share of the fleet-wide stall.
        """
        rows: Dict[str, Dict[str, Any]] = {}
        for m in self.members:
            tenant = m.tenant if m.tenant is not None else "-"
            row = rows.setdefault(tenant, {
                "tenant": tenant, "components": 0, "faults": 0,
                "remote_fetches": 0, "stall_ns": 0.0})
            row["components"] += 1
            if m.fault_log is not None:
                log = FaultLog.from_json(m.fault_log)
                row["faults"] += log.n
                row["remote_fetches"] += log.kinds[1]
                row["stall_ns"] += log.total_stall_ns()
        total = sum(row["stall_ns"] for row in rows.values())
        for row in rows.values():
            row["stall_share"] = (row["stall_ns"] / total) if total else 0.0
        return sorted(rows.values(), key=lambda r: (-r["stall_ns"],
                                                    r["tenant"]))

    # -- unified Chrome trace -----------------------------------------------------

    def correlation_events(self, top: int = 16) -> List[Dict[str, Any]]:
        """Cross-component fault-chain events with flow arrows.

        For each runtime member's slowest fault exemplars: one ``X``
        slice per non-zero hop, placed on the *owning* component's
        process — directory on the capturing runtime, fabric read on
        the ``fabric`` component, FMem/replication service on
        ``memnode:<node>`` — linked ``s``/``t``/``f`` by the access
        seq as the flow id, so one remote fetch's journey renders as
        an arrow chain runtime → fabric → memnode.  Component pids are
        :func:`~repro.obs.export.component_pid` — deterministic even
        for components with no snapshot of their own.  Fault records
        carry no simulated instant (capture is off the clock by
        design), so chains lay out on a synthetic ordinal timeline at
        ``seq`` µs.
        """
        events: List[Dict[str, Any]] = []
        labels = set(self.components())
        for m in self.members:
            if m.fault_log is None:
                continue
            log = FaultLog.from_json(m.fault_log)
            # Shard-qualified fleets label their components
            # ``fabric:shard3`` / ``memnode:shard3.mem0``; resolve hop
            # targets to an existing member label when one matches so
            # the arrows land on real tracks, else fall back to the
            # bare identity (deterministic pid either way).
            qualifier = (m.component.split(":", 1)[1]
                         if ":" in m.component else "")
            fabric_label = "fabric"
            if f"fabric:{qualifier}" in labels:
                fabric_label = f"fabric:{qualifier}"
            for ex in log.exemplars[:top]:
                total, seq, line, page, node, kind = ex[:6]
                t = float(seq) * 1e3
                args = {"seq": seq, "line": line, "page": page,
                        "node": node, "component": m.component,
                        "total_ns": round(total, 2)}
                if m.tenant is not None:
                    args["tenant"] = m.tenant
                mem_label = f"memnode:{node}"
                if (mem_label not in labels
                        and f"memnode:{qualifier}.{node}" in labels):
                    mem_label = f"memnode:{qualifier}.{node}"
                mem_pid = component_pid(mem_label)
                hop_pids = {"dir": m.pid,
                            "fab": component_pid(fabric_label),
                            "mem": mem_pid, "repl": mem_pid}
                first = True
                for hop, idx in _HOP_COLUMNS:
                    dur = ex[idx]
                    if dur <= 0.0:
                        continue
                    pid = hop_pids[hop]
                    events.append({"name": f"fault#{seq} {hop}",
                                   "ph": "X", "ts": t, "dur": dur,
                                   "cat": "fault", "pid": pid,
                                   "tid": _FAULT_TID,
                                   "args": dict(args, hop=hop)})
                    events.append({"name": f"fault#{seq}",
                                   "ph": "s" if first else "t",
                                   "ts": t, "cat": "fault", "pid": pid,
                                   "tid": _FAULT_TID, "id": seq})
                    first = False
                    t += dur
                if not first:
                    last = events[-1]
                    events.append({"name": f"fault#{seq}", "ph": "f",
                                   "ts": t, "cat": "fault",
                                   "pid": last["pid"],
                                   "tid": _FAULT_TID, "id": seq,
                                   "bp": "e"})
        return events

    def chrome_trace(self, top_faults: int = 16) -> Dict[str, Any]:
        """The unified fleet timeline as one Chrome trace payload.

        Each component is its own process (deterministic pid, named
        track metadata); member span/counter events keep their
        recorded timestamps; the cross-component fault chains ride on
        a dedicated per-process track.  Two exports of the same fleet
        are byte-identical.
        """
        events: List[Dict[str, Any]] = []
        chain_events = self.correlation_events(top=top_faults)
        chain_pids = {e["pid"] for e in chain_events}
        named: Dict[int, str] = {}
        for m in self.members:
            named[m.pid] = m.component
            events.append({"name": "process_name", "ph": "M",
                           "pid": m.pid, "tid": _SPAN_TID, "ts": 0,
                           "args": {"name": m.component}})
            events.append({"name": "thread_name", "ph": "M",
                           "pid": m.pid, "tid": _SPAN_TID, "ts": 0,
                           "args": {"name": "sim timeline (spans)"}})
            events.append({"name": "thread_name", "ph": "M",
                           "pid": m.pid, "tid": _COUNTER_TID, "ts": 0,
                           "args": {"name": "gauge samples"}})
            for event in m.events:
                converted = dict(event)
                converted.setdefault("pid", m.pid)
                converted.setdefault(
                    "tid", _COUNTER_TID if event.get("ph") == "C"
                    else _SPAN_TID)
                events.append(converted)
        # Name the processes fault chains touch but no member owns
        # (fabric, memnodes referenced only by exemplars) and the
        # fault-chain track on every participating process.
        candidates: Dict[int, str] = {component_pid("fabric"): "fabric"}
        for m in self.members:
            if m.fault_log is None:
                continue
            log = FaultLog.from_json(m.fault_log)
            for ex in log.exemplars:
                cand = f"memnode:{ex[4]}"
                candidates.setdefault(component_pid(cand), cand)
        for pid in sorted(chain_pids):
            if pid not in named:
                label = candidates.get(pid, f"pid:{pid}")
                named[pid] = label
                events.append({"name": "process_name", "ph": "M",
                               "pid": pid, "tid": _FAULT_TID, "ts": 0,
                               "args": {"name": label}})
            events.append({"name": "thread_name", "ph": "M",
                           "pid": pid, "tid": _FAULT_TID, "ts": 0,
                           "args": {"name": "fault chains"}})
        events.extend(chain_events)
        return chrome_trace(events, process_name=self.name,
                            pid=component_pid(self.name))

    # -- artifact -----------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """The whole fleet as one JSON-serializable artifact object."""
        return {"format": "repro-fleet", "version": 1, "name": self.name,
                "members": [m.to_json() for m in self.members]}

    @classmethod
    def from_json(cls, state: Dict[str, Any]) -> "FleetRecorder":
        """Rebuild a fleet from :meth:`to_json` output."""
        fmt = state.get("format") if isinstance(state, dict) else None
        if fmt != "repro-fleet":
            raise ConfigError(f"not a repro-fleet artifact (format={fmt!r})")
        fleet = cls(name=state.get("name", "fleet"))
        for member in state.get("members", []):
            fleet.add(ComponentSnapshot.from_json(member))
        return fleet

    def save(self, path: str) -> str:
        """Write the fleet artifact as JSON; returns the path."""
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "FleetRecorder":
        """Read a fleet artifact written by :meth:`save`."""
        with open(path) as fh:
            return cls.from_json(json.load(fh))
