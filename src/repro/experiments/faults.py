"""Causal fault attribution: campaigns and reports.

This driver turns the causal capture plane
(:mod:`repro.obs.causal`) into an explanation: it re-runs the
memnode-failover durability campaign with capture attached and
reduces its fault log to which hop (directory, fabric, memnode,
replication) dominates the stall budget, which pages and nodes are
hot, where the tail anomalies sit, and the slowest individual fault
chains with their per-hop breakdown.  During the outage window the
tail must move from the memnode hop to the fabric/replication hops —
the lease fence and failover wait are *visible in the data*, not
inferred.  Capture's overhead and invisibility are measured by the
runtime bench (:func:`repro.experiments.bench.measure_variants`).
"""

from __future__ import annotations

from typing import Any, Dict

from ..obs.causal import FaultLog, tail_anomalies
from .failover import FailoverResult, run_failover


def run_fault_campaign(seed: int = 0, ops: int = 20_000,
                       **kwargs: Any) -> FailoverResult:
    """The failover durability campaign with causal capture attached.

    Same schedule as :func:`~repro.experiments.failover.run_failover`
    (victim killed mid-run, pressure burst in the outage, silent
    corruption on a survivor); the result additionally carries the
    full fault log for attribution.
    """
    kwargs.setdefault("capture", True)
    return run_failover(seed=seed, ops=ops, **kwargs)


def _exemplar_row(ex: tuple) -> Dict[str, Any]:
    """One exemplar tuple rendered as a readable hop-breakdown row."""
    return {
        "seq": ex[1],
        "page": ex[3],
        "node": ex[4],
        "kind": "remote" if ex[5] else "fmem",
        "health": ("HEALTHY", "DEGRADED", "RECOVERING")[ex[6]],
        "flags": ex[7],
        "total_ns": round(ex[0], 2),
        "hops_ns": {"dir": round(ex[8], 2), "fab": round(ex[9], 2),
                    "mem": round(ex[10], 2), "repl": round(ex[11], 2)},
    }


def attribution_report(log: FaultLog, top: int = 10) -> Dict[str, Any]:
    """Reduce a fault log to the attribution verdict.

    Partition-invariant throughout (built on :meth:`FaultLog.
    aggregate` members only, never the reservoir), so a sharded
    campaign reports identically to a monolithic one.
    """
    summary = log.summary()
    anomalies = tail_anomalies(log)
    return {
        "faults": log.n,
        "summary": summary,
        "hop_totals_ns": {h: round(v, 2)
                          for h, v in log.hop_totals().items()},
        "dominant_hop": log.dominant_hop(),
        "degraded_hop_counts": log.degraded_hop_counts(),
        "quantiles_ns": {q: round(log.quantile(v), 2)
                         for q, v in (("p50", 0.5), ("p90", 0.9),
                                      ("p99", 0.99), ("p999", 0.999))},
        "hot_pages": [{"page": page, "faults": count}
                      for page, count in log.hot_pages(top=top)],
        "nodes": [{"node": node, "fetches": fetches,
                   "stall_ns": round(stall, 2)}
                  for node, fetches, stall in log.node_table()],
        "tail_anomalies": anomalies[:top],
        "top_faults": [_exemplar_row(ex) for ex in log.exemplars[:top]],
    }
