"""Host-time attribution: charge profiled self time to simulator layers.

The layers are named after the simulator's modules (see README.md).
A function defined under ``src/repro`` belongs to the layer of its
module, with three function-level exceptions: the batched engine's
front-end functions in ``kona/engine.py`` are ``frontend``, its
page drains and ``KonaRuntime.maybe_evict`` are ``eviction``.

Builtins, numpy's Python wrappers (``fromnumeric``, ``_methods``...)
and any other code outside the package carry no layer of their own:
their self time is charged to the nearest ``repro`` caller, using the
per-caller timings ``pstats`` records for every call edge.  numpy's
``memmap`` is the one outside module with a layer (``trace_io``),
because memory-mapped trace columns are trace I/O.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, Optional, Tuple

LAYERS = ("frontend", "miss_lane", "directory", "fmem", "eviction",
          "remote", "telemetry", "trace_io", "runtime")

#: Self time whose nearest ``repro`` caller could not be found.
UNMAPPED = "unmapped"

#: A traced round fails when more than this share of profiled self
#: time is unmapped: the table would be hiding a layer.
MAX_UNMAPPED_SHARE = 0.10

PACKAGE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "repro")

#: Module path (relative to the ``repro`` package, ``/``-separated)
#: prefix -> layer; the first matching prefix wins, so files come
#: before their directory.  The last block names every top-level
#: package that never runs inside a replay, so that a new package has
#: to be placed here before the self-test passes.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("coherence/vectorized.py", "frontend"),
    ("coherence/agent.py", "frontend"),
    ("coherence/", "directory"),
    ("kona/engine.py", "miss_lane"),
    ("fpga/bitmap.py", "eviction"),
    ("kona/eviction.py", "eviction"),
    ("kona/tracker.py", "eviction"),
    ("net/ring.py", "eviction"),
    ("fpga/", "fmem"),
    ("cache/", "fmem"),
    ("net/", "remote"),
    ("cluster/", "remote"),
    ("kona/failures.py", "remote"),
    ("common/retry.py", "remote"),
    ("common/latency.py", "remote"),
    ("obs/", "telemetry"),
    ("common/stats.py", "telemetry"),
    ("kona/telemetry.py", "telemetry"),
    ("kona/health.py", "telemetry"),
    ("workloads/", "trace_io"),
    ("experiments/shard.py", "trace_io"),
    ("kona/", "runtime"),
    ("mem/", "runtime"),
    ("common/", "runtime"),
    ("vm/", "runtime"),
    ("experiments/", "runtime"),
    ("analysis/", "runtime"),
    ("apps/", "runtime"),
    ("baselines/", "runtime"),
    ("chaos/", "runtime"),
    ("tools/", "runtime"),
    ("cli.py", "runtime"),
    ("__init__.py", "runtime"),
    ("__main__.py", "runtime"),
)

#: ``kona/engine.py`` functions that classify and bulk-resolve hits.
ENGINE_FRONTEND = frozenset({"run_trace_batched", "_run_span",
                             "_run_segment", "_run_patch",
                             "_patch_mutations"})

#: numpy's memmap module (``numpy/_core`` from numpy 2, ``numpy/core``
#: before).
_MEMMAP_SUFFIXES = (os.path.join("_core", "memmap.py"),
                    os.path.join("core", "memmap.py"))

Func = Tuple[str, int, str]


def module_layer(relpath: str) -> Optional[str]:
    """Layer of a module path relative to the ``repro`` package."""
    relpath = relpath.replace(os.sep, "/")
    for prefix, layer in MODULE_LAYERS:
        if relpath.startswith(prefix):
            return layer
    return None


def function_layer(func: Func) -> Optional[str]:
    """Layer of a profiled ``(filename, line, name)``, or None when the
    function is outside the package and must be charged to a caller."""
    filename, _, name = func
    if filename.endswith(_MEMMAP_SUFFIXES) and "numpy" in filename:
        return "trace_io"
    if not filename.startswith(PACKAGE_DIR + os.sep):
        return None
    rel = os.path.relpath(filename, PACKAGE_DIR).replace(os.sep, "/")
    name = name.rsplit(".", 1)[-1]
    if rel == "kona/engine.py":
        if name in ENGINE_FRONTEND:
            return "frontend"
        if name.startswith("drain_page"):
            return "eviction"
        # Any other engine function, including ones added later, is
        # miss-lane work, so deleting an engine path keeps the map whole.
        return "miss_lane"
    if rel == "kona/runtime.py" and name == "maybe_evict":
        return "eviction"
    return module_layer(rel)


def attribute(raw_stats: Dict[Func, tuple]) -> Dict[str, Dict[str, float]]:
    """Per-layer self seconds and calls from ``pstats.Stats.stats``.

    Returns ``{layer: {"seconds": s, "calls": n}}`` for every layer in
    :data:`LAYERS` plus :data:`UNMAPPED`.  An outside function's self
    time and calls are split over its call edges by the edge's own
    self time; an edge from another outside function is split further
    by that function's cumulative time per caller, up to the nearest
    ``repro`` frame.
    """
    memo: Dict[Tuple[Func, frozenset], Dict[str, float]] = {}

    def outer_callers(func: Func, seen: frozenset) -> Dict[Func, tuple]:
        """``func``'s call edges, minus recursion back into the chain."""
        callers = raw_stats[func][4] if func in raw_stats else {}
        return {caller: edge for caller, edge in callers.items()
                if caller != func and caller not in seen}

    def resolve(func: Func, seen: frozenset) -> Dict[str, float]:
        """How time spent in ``func`` splits over layers: its own layer,
        or its callers' layers weighted by cumulative time per edge."""
        layer = function_layer(func)
        if layer:
            return {layer: 1.0}
        key = (func, seen)
        if key not in memo:
            callers = outer_callers(func, seen)
            memo[key] = split(callers, [edge[3] for edge in callers.values()],
                              seen | {func})
        return memo[key]

    def split(callers: Dict[Func, tuple], weights, seen: frozenset
              ) -> Dict[str, float]:
        total = sum(weights)
        if total <= 0:
            return {UNMAPPED: 1.0}
        shares: Dict[str, float] = defaultdict(float)
        for caller, weight in zip(callers, weights):
            for layer, share in resolve(caller, seen).items():
                shares[layer] += share * weight / total
        return shares

    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    for func, (_, nc, tt, _, _) in raw_stats.items():
        layer = function_layer(func)
        if layer:
            seconds[layer] += tt
            calls[layer] += nc
            continue
        # An outside function's self time follows each edge's own self
        # time; its calls follow each edge's call count.
        callers = outer_callers(func, frozenset())
        seen = frozenset({func})
        for layer, share in split(callers, [edge[2] for edge in
                                            callers.values()], seen).items():
            seconds[layer] += tt * share
        for layer, share in split(callers, [edge[0] for edge in
                                            callers.values()], seen).items():
            calls[layer] += nc * share
    return {layer: {"seconds": seconds[layer], "calls": calls[layer]}
            for layer in LAYERS + (UNMAPPED,)}


def layer_metrics(raw_stats: Dict[Func, tuple], accesses: int
                  ) -> Tuple[Dict[str, float], float]:
    """The ``<layer>.host_ns_per_access/.share/.calls`` metrics and the
    unmapped share of profiled self time."""
    table = attribute(raw_stats)
    total = sum(row["seconds"] for row in table.values()) or 1.0
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        row = table[layer]
        metrics[f"{layer}.host_ns_per_access"] = \
            row["seconds"] * 1e9 / accesses
        metrics[f"{layer}.share"] = row["seconds"] / total
        metrics[f"{layer}.calls"] = round(row["calls"])
    return metrics, table[UNMAPPED]["seconds"] / total
