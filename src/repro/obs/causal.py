"""Causal fault tracing: per-access latency attribution.

Every CPU-cache miss that reaches the memory agent is a *fault* whose
critical-path stall decomposes into hops — the coherence directory
message, the RDMA fabric read, the FMem service time, and (during an
outage) the replication/failover wait.  The flight recorder only sees
these in aggregate; this module captures them **per access** without
perturbing the simulation:

* :class:`CausalCapture` is the hot-path sink.  The engine calls
  :meth:`CausalCapture.record` once per miss with the hop breakdown
  already in hand, or :meth:`CausalCapture.record_fetches` once per
  block of misses its replay loop staged; the records land in
  preallocated numpy column arrays.  When the staging block
  fills, a vectorized drain folds it into the :class:`FaultLog`
  aggregate — ``np.unique`` spectra, window rollups, ``argpartition``
  top-K — so always-on capture stays within the bench overhead gate.
* :class:`FaultLog` is the mergeable aggregate.  Its core state is
  integer counts plus *stall spectra* (exact ``value -> count`` maps
  per hop), so :meth:`FaultLog.merge` over any partition of the record
  stream — page-modulo shards, streamed chunks — reproduces the
  monolithic aggregate **bit-exactly**, even though the hop constants
  are fractional floats (sums are derived from the spectra in sorted
  order, never accumulated in stream order).  The seeded reservoir and
  the top-K exemplar store keep full causal chains for the slowest
  faults; top-K selection uses the total order ``(-total_ns, seq)`` so
  it too is partition-invariant.
* :func:`tail_anomalies` flags latency-outlier windows with a
  median-absolute-deviation (MAD) score and names each window's
  dominant hop — the attribution the SLO engine attaches to health
  transitions.

Invariant: capture only *reads* simulation state and writes its own
buffers with its own RNG.  Counters, accounts, clocks and the
simulation RNG streams are never touched, so a capture-enabled run is
bit-identical to a capture-off run in every runtime-visible way.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..common.errors import ConfigError
from .registry import HistogramMetric

#: Hop names, in record-column order.  ``dir`` is the coherence
#: directory message, ``fab`` the RDMA fabric read, ``mem`` the FMem
#: service time, ``repl`` the replication failover wait.
HOPS: Tuple[str, ...] = ("dir", "fab", "mem", "repl")

#: Miss kinds.
KIND_FMEM = 0       # served from the FMem cache
KIND_REMOTE = 1     # remote fetch over the fabric

#: Record flag bits (chaos state at fault time).
FLAG_FABRIC_DOWN = 1
FLAG_REPLICA_READ = 2

#: Node code for FMem hits (no remote node involved).
_LOCAL = -1

#: One exemplar: a full causal chain for one fault.
#: (total_ns, seq, line, page, node, kind, health, flags,
#:  dir_ns, fab_ns, mem_ns, repl_ns)
Exemplar = Tuple[float, int, int, int, str, int, int, int,
                 float, float, float, float]

#: Sort key for exemplars: slowest first, then earliest.  A total
#: order, so top-K over a union equals top-K over partition top-Ks.
def _exemplar_key(ex: Exemplar):
    return (-ex[0], ex[1])


def _exemplar_from_list(ex: List[Any]) -> Exemplar:
    """One JSON-decoded exemplar list back to its typed tuple."""
    return (float(ex[0]), int(ex[1]), int(ex[2]), int(ex[3]),
            str(ex[4]), int(ex[5]), int(ex[6]), int(ex[7]),
            float(ex[8]), float(ex[9]), float(ex[10]), float(ex[11]))


def _spectrum_sum(spectrum: Dict[float, int]) -> float:
    """Exact-order sum of a stall spectrum: ``sum(v * c)`` ascending.

    Evaluated in sorted-value order, so the result is a deterministic
    function of the spectrum alone — merged and monolithic logs agree
    bit for bit.
    """
    return sum(v * c for v, c in sorted(spectrum.items()))


def _merge_spectrum(into: Dict[float, int],
                    other: Dict[float, int]) -> None:
    for v, c in other.items():
        into[v] = into.get(v, 0) + c


class FaultLog:
    """Mergeable aggregate of captured fault records.

    All core state merges exactly: counts are integers, spectra are
    integer counts per distinct float value, window maxima merge with
    ``max``, and exemplars re-select under a total order.  Only the
    seeded reservoir is sampling-dependent (deterministic for a fixed
    capture, but not partition-invariant) and is therefore excluded
    from :meth:`aggregate`.
    """

    __slots__ = ("window_size", "top_k", "reservoir_size", "seed",
                 "n", "kinds", "health_counts", "fabric_down_faults",
                 "replica_faults", "spectra", "pages", "nodes",
                 "windows", "exemplars", "reservoir", "reservoir_seen")

    def __init__(self, window_size: int = 1 << 14, top_k: int = 32,
                 reservoir_size: int = 256, seed: int = 0) -> None:
        if window_size <= 0:
            raise ConfigError(f"window_size {window_size} must be positive")
        self.window_size = window_size
        self.top_k = top_k
        self.reservoir_size = reservoir_size
        self.seed = seed
        self.n = 0
        self.kinds = [0, 0]                      # [fmem, remote]
        self.health_counts = [0, 0, 0]           # healthy/degraded/recovering
        self.fabric_down_faults = 0
        self.replica_faults = 0
        #: hop -> {stall value -> record count}; ``total`` spans all hops.
        self.spectra: Dict[str, Dict[float, int]] = {
            "dir": {}, "fab": {}, "mem": {}, "repl": {}, "total": {}}
        self.pages: Dict[int, int] = {}          # page index -> fault count
        #: node name -> total-stall spectrum of its remote fetches.
        self.nodes: Dict[str, Dict[float, int]] = {}
        #: window -> [count, max_total, dom_dir, dom_fab, dom_mem,
        #:            dom_repl, degraded_count]
        self.windows: Dict[int, List] = {}
        self.exemplars: List[Exemplar] = []
        self.reservoir: List[Exemplar] = []
        self.reservoir_seen = 0

    # -- merging -----------------------------------------------------------------

    def merge(self, other: "FaultLog") -> "FaultLog":
        """Fold another shard's/chunk's log into this one; returns self.

        Logs must share a window size (windows are keyed by
        ``seq // window_size``; mixing bases would mis-bin).  Every
        aggregate field merges exactly — see the class docstring.
        """
        if not isinstance(other, FaultLog):
            raise ConfigError(f"cannot merge FaultLog with "
                              f"{type(other).__name__}")
        if other.window_size != self.window_size:
            raise ConfigError(
                f"window_size mismatch: {self.window_size} != "
                f"{other.window_size}")
        self.n += other.n
        for i in range(2):
            self.kinds[i] += other.kinds[i]
        for i in range(3):
            self.health_counts[i] += other.health_counts[i]
        self.fabric_down_faults += other.fabric_down_faults
        self.replica_faults += other.replica_faults
        for hop, spec in other.spectra.items():
            _merge_spectrum(self.spectra[hop], spec)
        for page, c in other.pages.items():
            self.pages[page] = self.pages.get(page, 0) + c
        for node, spec in other.nodes.items():
            _merge_spectrum(self.nodes.setdefault(node, {}), spec)
        for win, stats in other.windows.items():
            mine = self.windows.get(win)
            if mine is None:
                self.windows[win] = list(stats)
            else:
                mine[0] += stats[0]
                if stats[1] > mine[1]:
                    mine[1] = stats[1]
                for i in range(2, 6):
                    mine[i] += stats[i]
                mine[6] += stats[6]
        self.exemplars = sorted(self.exemplars + list(other.exemplars),
                                key=_exemplar_key)[:self.top_k]
        self._merge_reservoir(other)
        return self

    def _merge_reservoir(self, other: "FaultLog") -> None:
        combined = self.reservoir + other.reservoir
        self.reservoir_seen += other.reservoir_seen
        if len(combined) > self.reservoir_size:
            rng = np.random.default_rng(self.seed)
            keep = rng.choice(len(combined), size=self.reservoir_size,
                              replace=False)
            combined = [combined[i] for i in sorted(keep.tolist())]
        self.reservoir = combined

    # -- persistence --------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """Full mergeable state as a JSON-serializable dict.

        Spectra serialize as sorted ``[[value, count], ...]`` lists,
        window keys as pairs, exemplar tuples as lists — everything
        :meth:`from_json` needs to rebuild a log whose :meth:`merge`
        and :meth:`aggregate` behave identically.  Floats round-trip
        exactly (JSON carries shortest-repr doubles).
        """
        return {
            "window_size": self.window_size,
            "top_k": self.top_k,
            "reservoir_size": self.reservoir_size,
            "seed": self.seed,
            "n": self.n,
            "kinds": list(self.kinds),
            "health_counts": list(self.health_counts),
            "fabric_down_faults": self.fabric_down_faults,
            "replica_faults": self.replica_faults,
            "spectra": {hop: sorted(spec.items())
                        for hop, spec in self.spectra.items()},
            "pages": sorted(self.pages.items()),
            "nodes": {node: sorted(spec.items())
                      for node, spec in sorted(self.nodes.items())},
            "windows": sorted((w, list(s))
                              for w, s in self.windows.items()),
            "exemplars": [list(ex) for ex in self.exemplars],
            "reservoir": [list(ex) for ex in self.reservoir],
            "reservoir_seen": self.reservoir_seen,
        }

    @classmethod
    def from_json(cls, state: Dict[str, Any]) -> "FaultLog":
        """Rebuild a log from :meth:`to_json` output."""
        log = cls(window_size=int(state.get("window_size", 1 << 14)),
                  top_k=int(state.get("top_k", 32)),
                  reservoir_size=int(state.get("reservoir_size", 256)),
                  seed=int(state.get("seed", 0)))
        log.n = int(state.get("n", 0))
        log.kinds = [int(c) for c in state.get("kinds", [0, 0])]
        log.health_counts = [int(c) for c
                             in state.get("health_counts", [0, 0, 0])]
        log.fabric_down_faults = int(state.get("fabric_down_faults", 0))
        log.replica_faults = int(state.get("replica_faults", 0))
        for hop, pairs in state.get("spectra", {}).items():
            log.spectra[hop] = {float(v): int(c) for v, c in pairs}
        log.pages = {int(p): int(c) for p, c in state.get("pages", [])}
        log.nodes = {node: {float(v): int(c) for v, c in pairs}
                     for node, pairs in state.get("nodes", {}).items()}
        log.windows = {int(w): list(s)
                       for w, s in state.get("windows", [])}
        log.exemplars = [_exemplar_from_list(ex)
                         for ex in state.get("exemplars", [])]
        log.reservoir = [_exemplar_from_list(ex)
                         for ex in state.get("reservoir", [])]
        log.reservoir_seen = int(state.get("reservoir_seen", 0))
        return log

    # -- derived views ------------------------------------------------------------

    def aggregate(self) -> Dict[str, Any]:
        """The exact, partition-invariant aggregate (for differential
        tests): everything except the sampling-dependent reservoir."""
        return {
            "n": self.n,
            "kinds": list(self.kinds),
            "health": list(self.health_counts),
            "fabric_down_faults": self.fabric_down_faults,
            "replica_faults": self.replica_faults,
            "spectra": {hop: sorted(spec.items())
                        for hop, spec in self.spectra.items()},
            "pages": sorted(self.pages.items()),
            "nodes": {node: sorted(spec.items())
                      for node, spec in sorted(self.nodes.items())},
            "windows": sorted((w, list(s))
                              for w, s in self.windows.items()),
            "exemplars": list(self.exemplars),
        }

    def hop_totals(self) -> Dict[str, float]:
        """Exact total stall ns attributed to each hop."""
        return {hop: _spectrum_sum(self.spectra[hop]) for hop in HOPS}

    def total_stall_ns(self) -> float:
        """Exact total stall across all captured faults."""
        return _spectrum_sum(self.spectra["total"])

    def dominant_hop(self) -> Optional[str]:
        """The hop with the largest total stall (None when empty)."""
        if self.n == 0:
            return None
        totals = self.hop_totals()
        return max(HOPS, key=lambda hop: (totals[hop], -HOPS.index(hop)))

    def histogram(self) -> HistogramMetric:
        """The total-stall distribution, rebuilt from the spectrum.

        Derived (not accumulated), so a merged log's histogram equals
        the monolithic one bit for bit — including ``sum``, which is
        computed in sorted-value order.
        """
        hist = HistogramMetric()
        for v, c in sorted(self.spectra["total"].items()):
            b = hist._bucket_of(v)
            hist._buckets[b] = hist._buckets.get(b, 0) + c
            hist.count += c
            hist.sum += v * c
            if v < hist.min:
                hist.min = v
            if v > hist.max:
                hist.max = v
        return hist

    def quantile(self, q: float) -> float:
        """Exact ``q``-quantile of total stall (from the spectrum)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile {q} outside [0, 1]")
        if self.n == 0:
            return float("nan")
        target = q * self.n
        seen = 0
        for v, c in sorted(self.spectra["total"].items()):
            seen += c
            if seen >= target:
                return v
        return max(self.spectra["total"])

    def hot_pages(self, top: int = 10) -> List[Tuple[int, int]]:
        """(page, fault count) hottest-first, count then page order."""
        return sorted(self.pages.items(),
                      key=lambda kv: (-kv[1], kv[0]))[:top]

    def node_table(self) -> List[Tuple[str, int, float]]:
        """(node, fetches, exact total stall ns) per remote node."""
        return [(node, sum(spec.values()), _spectrum_sum(spec))
                for node, spec in sorted(self.nodes.items())]

    def degraded_hop_counts(self) -> Dict[str, int]:
        """Dominant-hop record counts inside degraded/recovering
        windows — the outage-tail attribution."""
        out = {hop: 0 for hop in HOPS}
        for stats in self.windows.values():
            if stats[6] == 0:
                continue
            for i, hop in enumerate(HOPS):
                out[hop] += stats[2 + i]
        return out

    def summary(self) -> Dict[str, Any]:
        """Report-shaped roll-up (JSON-serializable)."""
        return {
            "faults": self.n,
            "fmem_hits": self.kinds[KIND_FMEM],
            "remote_fetches": self.kinds[KIND_REMOTE],
            "health": {"healthy": self.health_counts[0],
                       "degraded": self.health_counts[1],
                       "recovering": self.health_counts[2]},
            "fabric_down_faults": self.fabric_down_faults,
            "replica_faults": self.replica_faults,
            "hop_totals_ns": {h: round(v, 3)
                              for h, v in self.hop_totals().items()},
            "dominant_hop": self.dominant_hop(),
            "total_stall_ns": round(self.total_stall_ns(), 3),
            "p50_ns": self.quantile(0.50) if self.n else 0.0,
            "p99_ns": self.quantile(0.99) if self.n else 0.0,
            "max_ns": self.exemplars[0][0] if self.exemplars else 0.0,
            "windows": len(self.windows),
        }


class CausalCapture:
    """Columnar per-miss record sink for one runtime.

    The engine stores each miss into preallocated numpy column arrays,
    one scalar store per column (:meth:`record`) or one slice per
    column for a staged block (:meth:`record_fetches`); when
    ``capacity`` records are staged, :meth:`_drain` folds the block
    into the :class:`FaultLog` with vectorized numpy reductions.
    ``seq`` — the global access ordinal of the miss being served — is
    maintained by the engine (``base`` counts accesses completed
    before the current run/chunk, so streamed and monolithic replays
    number records identically).
    """

    def __init__(self, page_size: int = 4096, capacity: int = 1 << 15,
                 window_size: int = 1 << 14, top_k: int = 32,
                 reservoir_size: int = 256, seed: int = 0) -> None:
        if capacity <= 0:
            raise ConfigError(f"capacity {capacity} must be positive")
        self.page_size = page_size
        self.log_ = FaultLog(window_size=window_size, top_k=top_k,
                             reservoir_size=reservoir_size, seed=seed)
        self.seq = 0          # access ordinal of the fault being served
        self.base = 0         # accesses completed before the current run
        self._capacity = capacity
        self._i = 0
        self._c_seq = np.zeros(capacity, dtype=np.int64)
        self._c_line = np.zeros(capacity, dtype=np.int64)
        self._c_node = np.zeros(capacity, dtype=np.int16)
        self._c_kind = np.zeros(capacity, dtype=np.uint8)
        self._c_health = np.zeros(capacity, dtype=np.uint8)
        self._c_flags = np.zeros(capacity, dtype=np.uint8)
        self._c_dir = np.zeros(capacity, dtype=np.float64)
        self._c_fab = np.zeros(capacity, dtype=np.float64)
        self._c_mem = np.zeros(capacity, dtype=np.float64)
        self._c_repl = np.zeros(capacity, dtype=np.float64)
        self._node_codes: Dict[str, int] = {}
        self._node_names: List[str] = []
        self._health = 0
        self._repl_ns = 0.0
        self._used_replica = False
        self._fabric_down: Any = ()    # live set ref once attached
        # Capture-private RNG (reservoir sampling): never the sim's.
        self._rng = np.random.default_rng(seed)

    # -- wiring -------------------------------------------------------------------

    def bind_fabric(self, down) -> None:
        """Bind the fabric's live down-link set (chaos flag source)."""
        self._fabric_down = down

    def on_health(self, state_name: str) -> Dict[str, Any]:
        """Health-monitor context provider: tracks the current state.

        Registered via ``HealthMonitor.add_context_provider``; returns
        an empty dict (it contributes no transition context, it only
        observes the state for the records that follow).
        """
        self._health = {"HEALTHY": 0, "DEGRADED": 1,
                        "RECOVERING": 2}.get(state_name, 0)
        return {}

    @property
    def log(self) -> FaultLog:
        """The fault log with all staged records drained."""
        if self._i:
            self._drain()
        return self.log_

    def flush(self) -> None:
        """Drain any staged records into the log."""
        if self._i:
            self._drain()

    # -- hot path -----------------------------------------------------------------

    def record(self, seq: int, line: int, node: Optional[str], kind: int,
               dir_ns: float, fab_ns: float, mem_ns: float) -> None:
        """Store one fault record (engine hot path: keep it lean).

        ``node`` is the serving memnode's name (None for FMem hits);
        the replication hop and chaos flags are folded in from the
        pending locate outcome stashed by the runtime's failover path.
        """
        i = self._i
        self._c_seq[i] = seq
        self._c_line[i] = line
        if node is None:
            self._c_node[i] = _LOCAL
        else:
            code = self._node_codes.get(node)
            if code is None:
                code = len(self._node_names)
                self._node_codes[node] = code
                self._node_names.append(node)
            self._c_node[i] = code
        self._c_kind[i] = kind
        self._c_health[i] = self._health
        flags = FLAG_FABRIC_DOWN if self._fabric_down else 0
        repl = self._repl_ns
        if repl or self._used_replica:
            self._repl_ns = 0.0
            if self._used_replica:
                flags |= FLAG_REPLICA_READ
                self._used_replica = False
        self._c_flags[i] = flags
        self._c_dir[i] = dir_ns
        self._c_fab[i] = fab_ns
        self._c_mem[i] = mem_ns
        self._c_repl[i] = repl
        self._i = i + 1
        if self._i == self._capacity:
            self._drain()

    def record_fetches(self, seq: Sequence[int], line: Sequence[int],
                       node: Sequence[Optional[str]], fmem_ns: float,
                       dir_ns: float, fab_ns: float) -> None:
        """Store a block of demand-fill records, as :meth:`record` would
        one by one: the same rows, drained at the same record counts.

        A row whose ``node`` is None is an FMem hit with hops ``(0, 0,
        fmem_ns)``; any other is a remote fetch from that node with
        ``(dir_ns, fab_ns, 0)``.  The block's health and chaos flags are
        the current ones, so the caller must know that neither changed
        while its rows were served.
        """
        if self._repl_ns or self._used_replica:
            # A pending failover outcome belongs to the next record.
            first = node[0]
            if first is None:
                self.record(seq[0], line[0], None, 0, 0.0, 0.0, fmem_ns)
            else:
                self.record(seq[0], line[0], first, 1, dir_ns, fab_ns, 0.0)
            seq, line, node = seq[1:], line[1:], node[1:]
        n = len(node)
        if not n:
            return
        codes = self._node_codes
        for name in dict.fromkeys(node):
            if name is not None and name not in codes:
                codes[name] = len(self._node_names)
                self._node_names.append(name)
        code_of = {None: _LOCAL, **codes}.__getitem__
        node_c = np.fromiter(map(code_of, node), dtype=np.int16, count=n)
        remote = node_c >= 0
        seq_c = np.array(seq, dtype=np.int64)
        line_c = np.array(line, dtype=np.int64)
        dir_c = np.where(remote, dir_ns, 0.0)
        fab_c = np.where(remote, fab_ns, 0.0)
        mem_c = np.where(remote, 0.0, fmem_ns)
        flags = FLAG_FABRIC_DOWN if self._fabric_down else 0
        pos = 0
        while pos < n:
            i = self._i
            k = min(n - pos, self._capacity - i)
            dst, src = slice(i, i + k), slice(pos, pos + k)
            self._c_seq[dst] = seq_c[src]
            self._c_line[dst] = line_c[src]
            self._c_node[dst] = node_c[src]
            self._c_kind[dst] = remote[src]
            self._c_health[dst] = self._health
            self._c_flags[dst] = flags
            self._c_dir[dst] = dir_c[src]
            self._c_fab[dst] = fab_c[src]
            self._c_mem[dst] = mem_c[src]
            self._c_repl[dst] = 0.0
            self._i = i + k
            pos += k
            if self._i == self._capacity:
                self._drain()

    # -- vectorized drain ---------------------------------------------------------

    def _drain(self) -> None:
        n = self._i
        self._i = 0
        seq = self._c_seq[:n]
        line = self._c_line[:n]
        node = self._c_node[:n]
        kind = self._c_kind[:n]
        health = self._c_health[:n]
        flags = self._c_flags[:n]
        d = self._c_dir[:n]
        f = self._c_fab[:n]
        m = self._c_mem[:n]
        r = self._c_repl[:n]
        # Elementwise, so each record's total is the same float no
        # matter which shard or chunk computed it.
        total = d + f + m + r
        log = self.log_
        log.n += n
        kc = np.bincount(kind, minlength=2)
        log.kinds[0] += int(kc[0])
        log.kinds[1] += int(kc[1])
        hc = np.bincount(health, minlength=3)
        for j in range(3):
            log.health_counts[j] += int(hc[j])
        log.fabric_down_faults += int(
            np.count_nonzero(flags & FLAG_FABRIC_DOWN))
        log.replica_faults += int(
            np.count_nonzero(flags & FLAG_REPLICA_READ))
        for col, hop in ((d, "dir"), (f, "fab"), (m, "mem"),
                         (r, "repl"), (total, "total")):
            vals, counts = np.unique(col, return_counts=True)
            spec = log.spectra[hop]
            for v, c in zip(vals.tolist(), counts.tolist()):
                spec[v] = spec.get(v, 0) + c
        pages = line // self.page_size
        pv, pc = np.unique(pages, return_counts=True)
        for p, c in zip(pv.tolist(), pc.tolist()):
            log.pages[p] = log.pages.get(p, 0) + c
        remote = node >= 0
        if remote.any():
            r_nodes = node[remote]
            r_total = total[remote]
            for code in np.unique(r_nodes).tolist():
                name = self._node_names[code]
                spec = log.nodes.setdefault(name, {})
                vals, counts = np.unique(r_total[r_nodes == code],
                                         return_counts=True)
                for v, c in zip(vals.tolist(), counts.tolist()):
                    spec[v] = spec.get(v, 0) + c
        # Window rollups: per-window count, max total, dominant-hop
        # counts (argmax ties resolve to the first hop — deterministic)
        # and the count of faults taken while not fully healthy.
        win = seq // self.log_.window_size
        dom = np.argmax(np.stack((d, f, m, r)), axis=0)
        degraded = health > 0
        for wv in np.unique(win).tolist():
            sel = win == wv
            stats = log.windows.get(wv)
            if stats is None:
                stats = [0, -math.inf, 0, 0, 0, 0, 0]
                log.windows[wv] = stats
            stats[0] += int(np.count_nonzero(sel))
            block_max = float(total[sel].max())
            if block_max > stats[1]:
                stats[1] = block_max
            dc = np.bincount(dom[sel], minlength=4)
            for j in range(4):
                stats[2 + j] += int(dc[j])
            stats[6] += int(np.count_nonzero(degraded[sel]))
        self._fold_exemplars(total, seq, line, pages, node, kind,
                             health, flags, d, f, m, r, n)
        self._fold_reservoir(total, seq, line, pages, node, kind,
                             health, flags, d, f, m, r, n)

    def _tuples(self, idx, total, seq, line, pages, node, kind, health,
                flags, d, f, m, r) -> List[Exemplar]:
        out: List[Exemplar] = []
        for j in idx:
            code = int(node[j])
            out.append((
                float(total[j]), int(seq[j]), int(line[j]),
                int(pages[j]),
                self._node_names[code] if code >= 0 else "fmem",
                int(kind[j]), int(health[j]), int(flags[j]),
                float(d[j]), float(f[j]), float(m[j]), float(r[j])))
        return out

    def _fold_exemplars(self, total, seq, line, pages, node, kind,
                        health, flags, d, f, m, r, n: int) -> None:
        log = self.log_
        k = log.top_k
        if n > k:
            # Ties at the cut must resolve under the same (-total, seq)
            # total order the merge uses, or chunked captures would keep
            # a different tied subset than a monolithic one.
            idx = np.lexsort((seq, -total))[:k].tolist()
        else:
            idx = range(n)
        cand = self._tuples(idx, total, seq, line, pages, node, kind,
                            health, flags, d, f, m, r)
        log.exemplars = sorted(log.exemplars + cand,
                               key=_exemplar_key)[:k]

    def _fold_reservoir(self, total, seq, line, pages, node, kind,
                        health, flags, d, f, m, r, n: int) -> None:
        # Vectorized Algorithm-R-style acceptance: record t (0-based
        # global) is admitted with probability R/(t+1); admitted
        # records displace a uniformly random slot.  Seeded and
        # deterministic for a fixed capture configuration.
        log = self.log_
        size = log.reservoir_size
        t = log.reservoir_seen + np.arange(n)
        log.reservoir_seen += n
        accept = self._rng.random(n) * (t + 1) < size
        accept[t < size] = True
        idx = np.nonzero(accept)[0].tolist()
        if not idx:
            return
        cand = self._tuples(idx, total, seq, line, pages, node, kind,
                            health, flags, d, f, m, r)
        for ex in cand:
            if len(log.reservoir) < size:
                log.reservoir.append(ex)
            else:
                log.reservoir[int(self._rng.integers(size))] = ex


def tail_anomalies(log: FaultLog, threshold: float = 3.5,
                   min_windows: int = 4) -> List[Dict[str, Any]]:
    """MAD-based latency-outlier windows, worst first.

    Each window's statistic is its max total stall; the modified
    z-score ``0.6745 * (x - median) / MAD`` flags windows whose tail
    latency is anomalous against the whole run.  With zero MAD (all
    windows identical) any strictly larger window is anomalous.
    Returns dicts with the window's id, seq range, score, fault count,
    dominant hop and degraded-fault count.
    """
    wins = sorted(log.windows.items())
    if len(wins) < min_windows:
        return []
    maxes = [stats[1] for _, stats in wins]
    srt = sorted(maxes)
    mid = len(srt) // 2
    med = (srt[mid] if len(srt) % 2
           else 0.5 * (srt[mid - 1] + srt[mid]))
    devs = sorted(abs(x - med) for x in maxes)
    mad = (devs[mid] if len(devs) % 2
           else 0.5 * (devs[mid - 1] + devs[mid]))
    out: List[Dict[str, Any]] = []
    for (wv, stats), x in zip(wins, maxes):
        if mad > 0:
            score = 0.6745 * (x - med) / mad
        else:
            score = math.inf if x > med else 0.0
        if score <= threshold:
            continue
        dom_counts = stats[2:6]
        dom = max(range(4), key=lambda i: (dom_counts[i], -i))
        out.append({
            "window": wv,
            "start_seq": wv * log.window_size,
            "end_seq": (wv + 1) * log.window_size,
            "max_ns": x,
            "score": score,
            "count": stats[0],
            "dominant_hop": HOPS[dom],
            "degraded_faults": stats[6],
        })
    out.sort(key=lambda a: (-a["score"], a["window"]))
    return out
