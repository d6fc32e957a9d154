"""The batched ``run_trace`` engine: bulk hits, replayed events.

``KonaRuntime.run_trace`` used to execute one Python call chain per
access (``runtime.access`` -> ``CoherentCache.access`` -> directory ->
``MemoryAgent``).  On paper-scale traces almost every access is a pure
CPU-cache hit that touches nothing below the cache, so this engine
splits the stream:

* a vectorized front-end (:class:`VectorizedCoherentCache`, an ndarray
  mirror of the CPU coherent cache) classifies each span of accesses
  and resolves runs of *pure hits* — resident lines, writable when
  written — in single numpy operations;
* everything else (misses, S->M upgrades) is a *compressed event
  stream* replayed one at a time, in program order, through the exact
  same directory/MemoryAgent/FMem/eviction back-end the scalar path
  uses — so directory traffic, FMem fills, dirty-bitmap marks,
  eviction-handler work and the accumulated stall are bit-identical.

Pure hits never change another line's residency or writability, so a
classification stays valid up to the first non-pure access.  After
each replayed event the front-end's hit masks are *patched* instead of
recomputed: later accesses to the evicted victim and to any line the
directory invalidated mid-fill (FMem page evictions snoop every line
of the victim page) fall back to a live probe.  The
256-access ``maybe_evict``/sampler-tick cadence is preserved by ending
spans at cadence points, skipping only those where maintenance
provably cannot act (see :func:`_run_span`), and the trace is consumed
in bounded chunks (no whole-trace ``tolist`` materialization).

The scalar loop remains in :meth:`KonaRuntime.run_trace` as the
differential-test oracle (``engine="scalar"``), and it runs every
stream on a runtime where the fused miss lane's proofs do not hold
(:meth:`_FusedLane.eligible`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

import numpy as np

from ..coherence.directory import DirectoryEntry
from ..coherence.states import LineState
from ..coherence.vectorized import (EXCLUSIVE, INVALID, MODIFIED, OWNED,
                                    SHARED, _EMPTY, _WRITABLE,
                                    VectorizedCoherentCache, next_impure)
from ..common import units
from ..common.errors import AddressError
from ..fpga.fmem import WAYS as FMEM_WAYS

if TYPE_CHECKING:
    from .runtime import KonaRuntime

#: Trace slice size; a multiple of the 256-access maintenance cadence.
#: It bounds the per-slice temporaries and is the window the hot-span
#: gate classifies in one pass (see :func:`_run_span`).
_CHUNK = 1 << 14

#: The ``i & 0xFF == 0`` maintenance period of the scalar loop.
_CADENCE = 256

_LINE_SHIFT = units.CACHE_LINE.bit_length() - 1


class _FusedLane:
    """Engine-private bulk miss-resolution pipeline.

    The replayed miss path used to walk the full scalar call chain —
    ``front.miss_fill`` -> ``Directory.put/get`` -> ``CoherenceEvent``
    -> ``MemoryAgent._on_event`` -> ``FMemCache.touch`` — per miss.
    Every step is observationally tiny (a dict transition, a counter,
    a latency constant) but each costs a Python frame, so miss-heavy
    traces ran at dict-cache speed and the batched engine regressed on
    them.

    This lane fuses the chain.  It is *only* legal on the topology the
    runtime itself builds — exactly one caching agent (the CPU cache)
    and exactly one directory observer (the memory agent), with
    tracing off and no content shadow — which makes every directory
    transition provable in closed form.  The directory stores one
    packed int per line and none for INVALID lines, so a line is in
    the directory exactly when it is resident in the CPU cache, and
    every line the lane touches holds one of four single-agent codes
    (M, E, S or O, owned by or shared with the CPU cache only),
    computed once per lane:

    * a front-cache **miss** always finds the line absent (cache
      evictions put the line back first), so GetS stores the E code
      (protocols with an E state) or the S code, and GetM the M code;
    * a front-cache **victim** deletes its line (no other agent can
      hold a copy);
    * a resident **write upgrade** replaces an S/O code with M, with
      no invalidations;
    * a **page drain** deletes the lines of the page it invalidates.

    Stores reuse the four int objects, so nothing is allocated per
    line.  Anything that falls outside those proofs (a line present
    on a miss, or a code outside the four, e.g. after a mid-fill
    snoop race) falls back to the generic ``put_modified``,
    ``put_clean``, ``front.upgrade`` or ``front.miss_fill`` path for
    that one access, so behaviour — including raised errors — stays
    identical to the scalar oracle.

    **Ordering contract.**  Program order is preserved per access: the
    victim's Put precedes the fill's Get, FMem allocation happens only
    after the remote location resolves (a failed fetch must not leave
    a dataless page resident), page-eviction drains run at the exact
    point ``FMemCache.touch`` would have reported the victim, and the
    stall accumulator receives each miss's cost in program order (float
    addition is non-associative; the scalar and batched engines share
    one summation chain, so ``elapsed_ns`` is bit-identical).  Account
    buckets with fractional increments (``remote_fetch``,
    ``fill_background``, ``memory_stall``) are likewise charged
    per miss; the ``fmem_hit`` bucket only ever accrues the
    integer-valued ``fmem_ns`` constant, so it is the one float the
    lane batches (`count * fmem_ns` is exact for integers below 2**53).

    **Batched bookkeeping.**  Integer counters are accumulated in the
    lane and flushed before every maintenance tick (gauges read them),
    around generic-path detours and in the engine's ``finally`` (so a
    mid-trace ``NodeFailure`` leaves counter state identical to the
    scalar run).  Each event keeps one delta, however many counters it
    moves: an FMem hit is the agent's ``fmem_hits``, FMem's ``hits``
    and the deferred ``fmem_hit`` charge; an FMem eviction is FMem's
    ``evictions``; a fused upgrade is the front end's ``upgrades`` and
    the agent's ``upgrades_seen``; a fused dirty victim is the
    directory's ``put_m`` and the agent's ``writebacks_tracked``.  The
    agent's ``remote_fetches`` and FMem's ``fills`` keep a delta each,
    because a locate that raises counts the first and not the second.
    FMem's own state moves at once, through ``FMemCache.place`` (the
    replay loop inlines it).  Dirty-victim bitmap marks are buffered
    and flushed through ``DirtyBitmap.mark_lines`` under the same
    rules, and also before any page drain's ``clear_page`` (which
    consumes them) and any prefetch.  Capture rows staged by :meth:`replay` are written
    at every ``flush``, before anything else can record.  Evicted
    pages are queued as ``(page_addr, mask)``
    and handed to the eviction handler in one ``evict_pages`` call per
    flush (see :meth:`drain_page`): at every ``flush`` and before every
    prefetch, whose fill may evict a page through the agent's own
    sink, which must not overtake the queue.
    """

    __slots__ = (
        "rt", "front", "agent", "directory", "entries", "marks", "cap",
        "fmem", "page_size", "tag_page_shift", "bitmap",
        "account", "locate", "window_nodes", "vf_base", "slab_bytes",
        "fabric_down", "extra_delays", "failures", "read_base", "staged",
        "remote_read_ns", "prefetch", "eager", "aid", "coh_ns",
        "fmem_ns", "fmem_ns_exact", "fill_bg_ns", "has_remainder",
        "snoop_ns", "last_page",
        "code_m", "code_read", "front_read", "solo", "dirty_solo",
        "upgradable",
        "d_cache_hits", "d_cache_misses", "d_front_hits",
        "d_front_misses", "d_front_evictions", "d_upgrades",
        "d_get_s", "d_get_m", "d_put_m", "d_put_clean", "d_fmem_hits",
        "d_remote", "d_fm_fills", "d_fm_evictions",
        "d_snoops", "d_lines_snooped", "d_ext_inval", "d_pages_evicted",
        "ev_pages", "ev_masks", "defer", "raised_seq",
    )

    def __init__(self, rt: "KonaRuntime",
                 front: VectorizedCoherentCache) -> None:
        agent = rt.agent
        latency = agent.latency
        self.rt = rt
        self.front = front
        self.agent = agent
        # Causal capture sink (None when off).  The lane records at its
        # inlined fill sites; generic detours route through the real
        # MemoryAgent, which records for itself — mutually exclusive by
        # construction, so no fault is recorded twice.
        self.cap = rt._capture
        self.directory = agent.directory
        self.entries = self.directory._entries
        self.fmem = agent.fmem
        self.page_size = agent.fmem.page_size
        # page size is a power of two (FMemCache enforces it), so
        # line-tag -> page-tag is a shift.
        self.tag_page_shift = self.page_size.bit_length() - 1 - _LINE_SHIFT
        self.bitmap = agent.bitmap
        # The fill-path buckets (fmem_hit / remote_fetch /
        # fill_background) live on the *agent's* account, not the
        # runtime's — memory_stall is the caller's bucket.
        self.account = agent.account
        self.locate = agent._locate
        self.remote_read_ns = agent._remote_read_ns
        # Fetch-path memos, valid only while the rack is healthy (live
        # references: chaos mutates these sets/dicts in place at ticks,
        # between replay segments).  While ``fabric._down`` is empty and
        # replication is off, ``locate(line)`` is pure and only the
        # target *node* is consumed — and slab primaries cannot move
        # (``rebind`` is replication-only) — so the node is a function
        # of the line's slab window, the translation map's slot.  Only
        # resolves that succeeded are memoized: an unbacked window
        # raises from ``locate`` at every access, like the oracle.
        # Likewise with no injected link delays the line-read cost is
        # one latency-model constant.
        self.window_nodes: dict = {}
        self.vf_base = agent.translation.vfmem_base
        self.slab_bytes = agent.translation.slab_bytes
        self.fabric_down = rt.fabric._down
        self.extra_delays = rt.fabric._extra_delay_ns
        self.failures = rt.failures
        self.read_base = latency.rdma_transfer_ns(
            units.CACHE_LINE, linked=True, signaled=False)
        self.prefetch = (agent._maybe_prefetch
                         if agent._prefetcher is not None else None)
        self.eager = agent.config.eager_upgrade_tracking
        self.aid = front.agent_id
        self.coh_ns = latency.coherence_msg_ns
        self.snoop_ns = latency.snoop_ns
        self.fmem_ns = latency.fmem_ns
        self.fmem_ns_exact = float(latency.fmem_ns).is_integer()
        remainder = max(agent.config.fetch_block - units.CACHE_LINE, 0)
        self.has_remainder = remainder > 0
        self.fill_bg_ns = latency.rdma_per_byte_ns * remainder
        has_excl = front.protocol.has_exclusive
        # The four single-agent directory codes (see the class
        # docstring); the sets classify a stored code in one probe.
        aid = self.aid
        code_m, code_e, code_s, code_o = (
            DirectoryEntry(state, None if state is LineState.SHARED
                           else aid, {aid}).encode()
            for state in (LineState.MODIFIED, LineState.EXCLUSIVE,
                          LineState.SHARED, LineState.OWNED))
        self.code_m = code_m
        self.code_read = code_e if has_excl else code_s
        self.front_read = EXCLUSIVE if has_excl else SHARED
        self.solo = frozenset((code_m, code_e, code_s, code_o))
        self.dirty_solo = frozenset((code_m, code_e, code_o))
        self.upgradable = frozenset((code_s, code_o))
        # MRU memo: the FMem page the previous fill touched.  While a
        # page is the MRU of its set, ``FMemCache.place`` leaves FMem
        # as it is, so consecutive fills from the same page can skip
        # the probe and the place entirely.  Reset whenever FMem changes
        # under the lane's feet (generic detours, prefetch inserts) or
        # the memoed page itself is drained.
        self.last_page = -1
        self.marks: list = []
        # Capture rows ``(seq, line, node)`` a replayed segment staged
        # (see :meth:`replay`), written as one block by :meth:`flush`.
        self.staged: list = []
        # The eviction queue and whether it may hold pages past their
        # drain (EvictionHandler.can_defer, set once per slice).
        self.ev_pages: list = []
        self.ev_masks: list = []
        self.defer = False
        # Global ordinal of the access that raised, set only on the
        # exception path of the replay and run/patch loops.
        self.raised_seq: Optional[int] = None
        self.d_cache_hits = 0
        self.d_cache_misses = 0
        self.d_front_hits = 0
        self.d_front_misses = 0
        self.d_front_evictions = 0
        self.d_upgrades = 0
        self.d_get_s = 0
        self.d_get_m = 0
        self.d_put_m = 0
        self.d_put_clean = 0
        self.d_fmem_hits = 0
        self.d_remote = 0
        self.d_fm_fills = 0
        self.d_fm_evictions = 0
        self.d_snoops = 0
        self.d_lines_snooped = 0
        self.d_ext_inval = 0
        self.d_pages_evicted = 0

    @staticmethod
    def eligible(rt: "KonaRuntime") -> bool:
        """True when the fused single-agent proofs hold for ``rt``.

        ``run_trace_stream`` asks once per stream and runs the whole
        stream on the scalar oracle when this is False: a content
        shadow versions every write, tracing fires span and histogram
        hooks per access, extra observers or caching agents mean
        directory transitions are no longer closed-form, and an extra
        eviction sink would see pages the lane hands straight to the
        runtime's handler.
        """
        directory = rt.agent.directory
        return (rt.content is None
                and not rt.obs.tracer.enabled
                and directory._observers == [rt.agent._on_event]
                and set(directory._agents) == {rt.cpu_cache.agent_id}
                and rt.agent._eviction_sinks == [rt._eviction_sink])

    # -- access resolution ----------------------------------------------------

    def miss(self, tag: int, is_write: bool, age: int
             ) -> Tuple[Optional[int], int, int, float]:
        """One CPU-cache miss, fully fused.

        Returns ``(victim_tag_or_None, new_state_code, flat_slot,
        critical_cost_ns)`` — the first three match
        ``VectorizedCoherentCache.miss_fill`` so the run/patch caller
        can patch its hit masks.
        """
        front = self.front
        line = tag << _LINE_SHIFT
        entries = self.entries
        if line in entries:
            # Outside the single-agent proof (e.g. a mid-fill snoop
            # race left residue): take the generic path for this miss.
            return self._miss_generic(line, is_write, age)
        ways = front.ways
        sidx = tag & front._set_mask
        base = sidx * ways
        tags_b = front._tags_b
        state_b = front._state_b
        age_b = front._age_b
        way_mv = front._way_mv
        self.d_front_misses += 1
        victim_tag: Optional[int] = None
        if front._counts[sidx] >= ways:
            flat = base + int(front._age[base:base + ways].argmin())
            victim_tag = tags_b[flat]
            victim_dirty = state_b[flat] >= OWNED
            tags_b[flat] = _EMPTY
            state_b[flat] = INVALID
            age_b[flat] = 0
            way_mv[victim_tag - front._tag0] = 0
            self.d_front_evictions += 1
            victim_addr = victim_tag << _LINE_SHIFT
            vcode = entries.get(victim_addr)
            if victim_dirty:
                if vcode in self.dirty_solo:
                    del entries[victim_addr]
                    self.d_put_m += 1
                    self.marks.append(victim_addr)
                else:
                    # Unexpected entry: the real PutM validates (and
                    # raises) exactly like the scalar path would.
                    self.directory.put_modified(victim_addr, self.aid)
            elif vcode in self.solo:
                del entries[victim_addr]
                self.d_put_clean += 1
            else:
                self.directory.put_clean(victim_addr, self.aid)
        else:
            flat = state_b.find(INVALID, base, base + ways)
            front._counts[sidx] += 1
        # Directory Get: the line is absent (INVALID), so the grant is
        # closed form.  The transition lands before the fill is served,
        # like the scalar path (a snoop during the fill sees the new
        # state).
        if is_write:
            self.d_get_m += 1
            entries[line] = self.code_m
            code = MODIFIED
        else:
            self.d_get_s += 1
            entries[line] = self.code_read
            code = self.front_read
        cost = self._serve_fill(line)
        self.agent._last_access_ns = cost
        # Insert only after the fill completed, mirroring miss_fill:
        # a snoop landing mid-fill finds the line absent.
        tags_b[flat] = tag
        state_b[flat] = code
        age_b[flat] = age
        way_mv[tag - front._tag0] = flat - base + 1
        return victim_tag, code, flat, cost

    def _miss_generic(self, line: int, is_write: bool, age: int
                      ) -> Tuple[Optional[int], int, int, float]:
        self.flush()
        self.last_page = -1   # the generic fill moves FMem under us
        victim_tag, code, flat = self.front.miss_fill(line, is_write, age)
        return victim_tag, code, flat, self.agent._last_access_ns

    def upgrade(self, tag: int, age: int) -> None:
        """Write hit on a resident non-writable line (S/O -> M), fused."""
        line = tag << _LINE_SHIFT
        if self.entries.get(line) not in self.upgradable:
            # e.g. the entry went INVALID in a mid-fill snoop race: the
            # generic upgrade routes through GetM, which may re-fill and
            # so drain a page — flush pending marks/deltas first.
            self.flush()
            self.last_page = -1   # a re-fill moves FMem under us
            self.front.upgrade(line, age)
            return
        self.d_get_m += 1
        self.entries[line] = self.code_m
        # UPGRADE event, fused: eager dirty tracking + latency constant.
        if self.eager:
            self.marks.append(line)
        self.agent._last_access_ns = self.coh_ns
        front = self.front
        flat = front.slot_of(tag)
        front._state_b[flat] = MODIFIED
        front._age_b[flat] = age
        self.d_upgrades += 1

    def _serve_fill(self, line: int) -> float:
        """Fused ``MemoryAgent._serve_fill``: FMem hit or remote fetch."""
        page_tag = line // self.page_size
        hit = page_tag == self.last_page or self.fmem.lookup(line)
        if not hit:
            # FMem miss: resolve the remote location *before*
            # allocating a frame, so a failed fetch cannot leave a
            # dataless page resident (same ordering as the scalar agent).
            self.d_remote += 1
            if self.fabric_down or self.failures.replication is not None:
                self.window_nodes.clear()
                node = self.locate(line).node
            else:
                window = (line - self.vf_base) // self.slab_bytes
                node = self.window_nodes.get(window)
                if node is None:
                    node = self.window_nodes[window] = self.locate(line).node
            self.d_fm_fills += 1
        if page_tag != self.last_page:
            victim = self.fmem.place(page_tag)[1]
            self.last_page = page_tag   # now its set's MRU
            if victim is not None:
                self.d_fm_evictions += 1
                self.drain_page(victim)
        if hit:
            self.d_fmem_hits += 1
            cost = self.fmem_ns
            if not self.fmem_ns_exact:
                self.account.charge("fmem_hit", cost)
            if self.cap is not None:
                self.cap.record(self.cap.seq, line, None, 0,
                                0.0, 0.0, cost)
        else:
            read_ns = (self.remote_read_ns(node, units.CACHE_LINE)
                       if self.extra_delays else self.read_base)
            cost = self.coh_ns + read_ns
            if self.has_remainder:
                self.account.charge("fill_background", self.fill_bg_ns)
            self.account.charge("remote_fetch", cost)
            if self.cap is not None:
                self.cap.record(self.cap.seq, line, node, 1,
                                self.coh_ns, read_ns, 0.0)
        if self.prefetch is not None:
            self._flush_for_prefetch()
            self.prefetch(line)
            self.last_page = -1   # prefetch fills may reorder the LRU
        return cost

    def replay(self, seg_tags: np.ndarray, seg_w: np.ndarray, age0: int,
               stall: float, seq0: int = 0) -> float:
        """Fused scalar replay of one miss-heavy segment.

        The loop inlines :meth:`miss` and :meth:`_serve_fill` with every
        binding hoisted to a local — on miss-dominated traces the lane's
        per-miss attribute loads and call frames were the largest
        remaining cost.  Event order, float summation order and raised
        errors are identical to the method path; integer deltas
        accumulate in locals and fold into the lane (in a ``finally``,
        so a mid-loop ``NodeFailure`` leaves totals scalar-exact), and
        the capture rows the loop staged are written there too.
        """
        front = self.front
        way_mv = front._way_mv
        tag0 = front._tag0
        tags_b = front._tags_b
        state_b = front._state_b
        age_v = front._age
        age_b = front._age_b
        counts = front._counts
        ways = front.ways
        set_mask = front._set_mask
        entries = self.entries
        aid = self.aid
        code_m = self.code_m
        code_read = self.code_read
        front_read = self.front_read
        solo = self.solo
        dirty_solo = self.dirty_solo
        agent = self.agent
        acct = self.account._buckets
        stall_b = self.rt.account._buckets
        fmem = self.fmem
        fm_sets = fmem.sets
        fm_set_mask = fmem.set_mask
        ent_get = entries.get
        tag_page_shift = self.tag_page_shift
        last_page = self.last_page
        marks = self.marks
        coh_ns = self.coh_ns
        fmem_ns = self.fmem_ns
        fmem_exact = self.fmem_ns_exact
        prefetch = self.prefetch
        locate = self.locate
        remote_read_ns = self.remote_read_ns
        has_remainder = self.has_remainder
        fill_bg = self.fill_bg_ns
        line_bytes = units.CACHE_LINE
        # Health is re-examined per segment: chaos flips it at ticks,
        # which land exactly on segment boundaries.  A stale memo can
        # only survive a failure episode, so drop it when one starts.
        fast_locate = (not self.fabric_down
                       and self.failures.replication is None)
        window_nodes = self.window_nodes
        if not fast_locate:
            window_nodes.clear()
        wn_get = window_nodes.get
        vf_base = self.vf_base
        slab_bytes = self.slab_bytes
        fast_net = not self.extra_delays
        read_base = self.read_base
        cap = self.cap
        # Stage capture rows where nothing in the segment can change
        # the capture's health or flag state: a healthy fetch path, no
        # injected delay (constant hops), no prefetcher, and evictions
        # that wait in the queue (the handler cannot fault).  Staged
        # rows are written before every detour that records through
        # the agent (both call ``flush``) and when the segment ends.
        stage = (cap is not None and fast_locate and fast_net
                 and prefetch is None and self.defer)
        stage_row = self.staged.append
        # Global access ordinal of the access aged ``age``: faults are
        # keyed by sequence number so streamed/sharded captures line up.
        seq_off = seq0 - age0
        hits = 0
        misses = 0
        upgrades = 0
        l_front_misses = 0
        l_front_evictions = 0
        l_get_s = l_get_m = l_put_m = l_put_clean = 0
        l_fmem_hits = l_remote = l_fm_fills = l_fm_evictions = 0
        age = age0 - 1
        # The snoop journal is only consumed by the hot-span patcher;
        # this mode reclassifies every segment and drops the journal at
        # its end, so recording drain mutations here is pure waste.
        rec_muts = front.record_mutations
        front.record_mutations = False
        try:
            for tag, isw in zip(seg_tags.tolist(), seg_w.tolist()):
                age += 1
                sidx = tag & set_mask
                base = sidx * ways
                way = way_mv[tag - tag0]
                if way:
                    flat = base + way - 1
                    if not isw or _WRITABLE_PY[state_b[flat]]:
                        if isw:
                            state_b[flat] = MODIFIED
                        age_b[flat] = age
                        hits += 1
                        continue
                    if cap is not None:
                        cap.seq = seq_off + age
                    self.upgrade(tag, age)
                    upgrades += 1
                    continue
                line = tag << _LINE_SHIFT
                if line in entries:
                    if cap is not None:
                        cap.seq = seq_off + age
                    cost = self._miss_generic(line, isw, age)[3]
                    stall += cost
                    stall_b["memory_stall"] += cost
                    misses += 1
                    continue
                l_front_misses += 1
                if counts[sidx] >= ways:
                    flat = base + int(age_v[base:base + ways].argmin())
                    victim_tag = tags_b[flat]
                    victim_dirty = state_b[flat] >= OWNED
                    tags_b[flat] = _EMPTY
                    state_b[flat] = INVALID
                    age_b[flat] = 0
                    way_mv[victim_tag - tag0] = 0
                    l_front_evictions += 1
                    victim_addr = victim_tag << _LINE_SHIFT
                    vcode = ent_get(victim_addr)
                    if victim_dirty:
                        if vcode in dirty_solo:
                            del entries[victim_addr]
                            l_put_m += 1
                            marks.append(victim_addr)
                        else:
                            self.directory.put_modified(victim_addr, aid)
                    elif vcode in solo:
                        del entries[victim_addr]
                        l_put_clean += 1
                    else:
                        self.directory.put_clean(victim_addr, aid)
                else:
                    # Free-way pick: memchr over the state bytes.
                    flat = state_b.find(INVALID, base, base + ways)
                    counts[sidx] += 1
                if isw:
                    l_get_m += 1
                    entries[line] = code_m
                    code = MODIFIED
                else:
                    l_get_s += 1
                    entries[line] = code_read
                    code = front_read
                # Serve the fill (inlined _serve_fill).
                page_tag = tag >> tag_page_shift
                # The memoed page is its set's MRU (we made it so on the
                # last fill and nothing moved FMem since): resident, and
                # placing it again changes nothing.
                if page_tag != last_page:
                    fm_pages = fm_sets[page_tag & fm_set_mask]
                    hit = page_tag in fm_pages
                    if not hit:
                        l_remote += 1
                        if fast_locate:
                            window = (line - vf_base) // slab_bytes
                            node = wn_get(window)
                            if node is None:
                                node = window_nodes[window] = locate(line).node
                        else:
                            node = locate(line).node
                        l_fm_fills += 1
                    # Inlined FMemCache.place: promote or fill the page.
                    victim = None
                    if hit:
                        del fm_pages[page_tag]
                    elif len(fm_pages) >= FMEM_WAYS:
                        victim = next(iter(fm_pages))
                        del fm_pages[victim]
                    else:
                        fmem.occupancy += 1
                    fm_pages[page_tag] = None
                    last_page = page_tag
                    if victim is not None:
                        l_fm_evictions += 1
                        self.drain_page(victim)
                else:
                    hit = True
                if hit:
                    l_fmem_hits += 1
                    cost = fmem_ns
                    if not fmem_exact:
                        acct["fmem_hit"] += cost
                    if cap is not None:
                        if stage:
                            stage_row((seq_off + age, line, None))
                        else:
                            cap.record(seq_off + age, line, None, 0,
                                       0.0, 0.0, cost)
                else:
                    read_ns = (read_base if fast_net
                               else remote_read_ns(node, line_bytes))
                    cost = coh_ns + read_ns
                    if has_remainder:
                        acct["fill_background"] += fill_bg
                    acct["remote_fetch"] += cost
                    if cap is not None:
                        if stage:
                            stage_row((seq_off + age, line, node))
                        else:
                            cap.record(seq_off + age, line, node, 1,
                                       coh_ns, read_ns, 0.0)
                if prefetch is not None:
                    self._flush_for_prefetch()
                    prefetch(line)
                    last_page = -1   # prefetch fills may reorder the LRU
                agent._last_access_ns = cost
                tags_b[flat] = tag
                state_b[flat] = code
                age_b[flat] = age
                way_mv[tag - tag0] = flat - base + 1
                stall += cost
                stall_b["memory_stall"] += cost
                misses += 1
        except BaseException:
            self.raised_seq = seq_off + age
            raise
        finally:
            if self.staged:
                self._write_staged()
            front.record_mutations = rec_muts
            self.last_page = last_page
            self.d_cache_hits += hits + upgrades
            self.d_cache_misses += misses
            self.d_front_hits += hits
            self.d_front_misses += l_front_misses
            self.d_front_evictions += l_front_evictions
            self.d_get_s += l_get_s
            self.d_get_m += l_get_m
            self.d_put_m += l_put_m
            self.d_put_clean += l_put_clean
            self.d_fmem_hits += l_fmem_hits
            self.d_remote += l_remote
            self.d_fm_fills += l_fm_fills
            self.d_fm_evictions += l_fm_evictions
        # Nothing to patch in this mode; drop any snoop journal entries
        # so they don't leak into the next (reclassified) segment.
        front._mutations.clear()
        return stall

    def drain_page(self, victim_page: int) -> None:
        """Fused ``MemoryAgent._evict_page`` for an FMem victim page.

        The scalar drain (``Directory.snoop_page``) probes all 64 line
        entries one dict lookup at a time; here the page's lines are
        one contiguous window of the front-end's way index, whose
        non-zero entries are exactly its resident lines.  Correctness
        leans on the single-agent invariant the lane already proves: a
        line is resident in the front cache *iff* the directory holds
        it — the one exception, the line currently mid-fill, lives on
        the page being filled, which is never the victim page.  SHARED
        copies are clean and survive the snoop (same as the scalar
        path); E/M/O copies are invalidated and their lines deleted
        from the directory, dirty ones marking the bitmap before
        ``clear_page`` consumes the page's mask.

        All of that happens here, at the exact fill that evicts the
        page: later accesses in the segment read the invalidated
        lines.  The eviction handler's work does not: the page and its
        mask join the lane's queue, which :meth:`flush` delivers in one
        ``evict_pages`` call.  That is exact while
        ``EvictionHandler.can_defer`` holds (the handler can neither
        fail nor change state a later access observes, and nothing
        else writes its float chains in between); otherwise the
        one-page queue is delivered at once, in the oracle's order.
        """
        front = self.front
        page_addr = victim_page * self.page_size
        n_lines = self.page_size >> _LINE_SHIFT
        tag0 = page_addr >> _LINE_SHIFT
        self.d_snoops += n_lines
        way_mv = front._way_mv
        tags_b = front._tags_b
        state_b = front._state_b
        age_b = front._age_b
        counts = front._counts
        ways = front.ways
        set_mask = front._set_mask
        muts = front._mutations if front.record_mutations else None
        entries = self.entries
        if victim_page == self.last_page:
            self.last_page = -1   # the memoed page is leaving FMem
        # The page's window of the way index; its non-zero entries are
        # the resident lines, visited in ascending tag order (the order
        # the scalar snoop walks).
        i0 = tag0 - front._tag0
        window = front._way[i0:i0 + n_lines]
        offs = window.nonzero()[0]
        snooped = False
        n_inval = 0
        marks = self.marks
        for off, way in zip(offs.tolist(), window[offs].tolist()):
            t = tag0 + off
            flat = (t & set_mask) * ways + way - 1
            state = state_b[flat]
            if state == SHARED:   # clean copies survive the snoop
                continue
            way_mv[i0 + off] = 0
            tags_b[flat] = _EMPTY
            state_b[flat] = INVALID
            age_b[flat] = 0
            counts[flat // ways] -= 1
            if muts is not None:
                muts.append(t)
            line = t << _LINE_SHIFT
            del entries[line]
            if state >= OWNED:
                marks.append(line)
                self.d_lines_snooped += 1
                snooped = True
            n_inval += 1
        if n_inval:
            self.d_ext_inval += n_inval
        if snooped:
            # The scalar SNOOPED event leaves the snoop latency as the
            # agent's last critical-path cost; mirror it so a drain
            # outside the miss path (watermark reclaim) stays exact.
            self.agent._last_access_ns = self.snoop_ns
        # Pending bitmap marks — earlier dirty victims plus this
        # drain's snooped lines — must land before clear_page consumes
        # the page's mask.
        if self.marks:
            self._flush_marks()
        self.ev_pages.append(page_addr)
        self.ev_masks.append(self.bitmap.clear_page(victim_page))
        self.d_pages_evicted += 1
        if not self.defer:
            self._flush_evictions()

    def drain_pages(self, page_addrs: List[int]) -> None:
        """:meth:`drain_page` for every page of a watermark reclaim.

        ``MemoryAgent.proactive_evict`` hands over all the pages
        ``FMemCache.evict_lru`` dropped, in drop order.  While the queue
        may wait, the reclaim is one array pass over the pages' rows of
        the way index (VFMem is page-aligned, so page ``p`` is row ``p -
        _tag0 // lines_per_page``): ``nonzero`` visits the resident
        lines in drop order, then ascending line, the order the
        per-page drains would visit them.  The pages' lines are
        disjoint, so no drain reads another's writes, and a snooped
        mark only sets its own page's mask: one marks flush before the
        masks are popped in drop order leaves every mask as the
        per-page flushes do.  The whole reclaim then joins the queue.
        Otherwise each page is drained and delivered in turn, the
        oracle's order.
        """
        page_size = self.page_size
        if not self.defer:
            for page_addr in page_addrs:
                self.drain_page(page_addr // page_size)
            return
        if not page_addrs:
            return
        front = self.front
        per_page = page_size >> _LINE_SHIFT
        pages = np.array(page_addrs, dtype=np.int64) // page_size
        page_list = pages.tolist()
        self.d_snoops += per_page * len(page_list)
        if self.last_page in page_list:
            self.last_page = -1   # the memoed page is leaving FMem
        whole = front._lines // per_page * per_page
        way = front._way[:whole].reshape(-1, per_page)[
            pages - front._tag0 // per_page]
        rows, offs = way.nonzero()
        tags = pages[rows] * per_page + offs
        ways = front.ways
        flat = (tags & front._set_mask) * ways + way[rows, offs] - 1
        state = front._state[flat]
        inval = state != SHARED   # clean copies survive the snoop
        if not inval.all():
            tags, flat, state = tags[inval], flat[inval], state[inval]
        if tags.size:
            front._way[tags - front._tag0] = 0
            front._tags[flat] = _EMPTY
            front._state[flat] = INVALID
            front._age[flat] = 0
            counts = front._counts
            for sidx in (flat // ways).tolist():
                counts[sidx] -= 1
            tag_list = tags.tolist()
            if front.record_mutations:
                front._mutations.extend(tag_list)
            entries = self.entries
            for t in tag_list:
                del entries[t << _LINE_SHIFT]
            self.d_ext_inval += len(tag_list)
            dirty = state >= OWNED
            if dirty.any():
                snooped = (tags[dirty] << _LINE_SHIFT).tolist()
                self.marks.extend(snooped)
                self.d_lines_snooped += len(snooped)
                self.agent._last_access_ns = self.snoop_ns
        if self.marks:
            self._flush_marks()
        self.ev_pages.extend(page_addrs)
        self.ev_masks.extend(map(self.bitmap.clear_page, page_list))
        self.d_pages_evicted += len(page_list)

    # -- delta flushing -------------------------------------------------------

    def _flush_marks(self) -> None:
        self.bitmap.mark_lines(self.marks)
        self.marks.clear()

    def _write_staged(self) -> None:
        """Write the staged capture rows as one block, in order."""
        seqs, lines, nodes = zip(*self.staged)
        self.staged.clear()
        self.cap.record_fetches(seqs, lines, nodes, self.fmem_ns,
                                self.coh_ns, self.read_base)

    def _flush_evictions(self) -> None:
        """Hand the queued evictions to the runtime's handler."""
        pages, masks = self.ev_pages, self.ev_masks
        self.ev_pages, self.ev_masks = [], []
        self.rt._evict_pages(pages, masks)

    def _flush_for_prefetch(self) -> None:
        # A prefetch fill may evict a page through the agent, whose
        # drain consumes bitmap marks and whose sink must follow the
        # queued pages.
        if self.marks:
            self._flush_marks()
        if self.ev_pages:
            self._flush_evictions()

    def flush(self) -> None:
        """Flush every batched delta; idempotent, totals-exact.

        Called before maintenance ticks, around generic-path detours,
        between chunks and from the engine's ``finally`` so exceptional
        exits leave the same counter state as the scalar oracle.  The
        eviction queue and the staged capture rows go out here too.
        """
        if self.staged:
            self._write_staged()
        if self.marks:
            self._flush_marks()
        if self.ev_pages:
            self._flush_evictions()
        rtc = self.rt.counters
        if self.d_cache_hits:
            rtc.add("cache_hits", self.d_cache_hits)
            self.d_cache_hits = 0
        if self.d_cache_misses:
            rtc.add("cache_misses", self.d_cache_misses)
            self.d_cache_misses = 0
        fc = self.front.counters
        dc = self.directory.counters
        ac = self.agent.counters
        fmc = self.fmem.counters
        if self.d_front_hits:
            fc.add("hits", self.d_front_hits)
            self.d_front_hits = 0
        if self.d_front_misses:
            fc.add("misses", self.d_front_misses)
            self.d_front_misses = 0
        if self.d_front_evictions:
            fc.add("evictions", self.d_front_evictions)
            self.d_front_evictions = 0
        if self.d_upgrades:
            fc.add("upgrades", self.d_upgrades)
            ac.add("upgrades_seen", self.d_upgrades)
            self.d_upgrades = 0
        if self.d_get_s:
            dc.add("get_s", self.d_get_s)
            self.d_get_s = 0
        if self.d_get_m:
            dc.add("get_m", self.d_get_m)
            self.d_get_m = 0
        if self.d_put_m:
            # Each fused PutM is a tracked writeback of the dirty victim.
            dc.add("put_m", self.d_put_m)
            ac.add("writebacks_tracked", self.d_put_m)
            self.d_put_m = 0
        if self.d_put_clean:
            dc.add("put_clean", self.d_put_clean)
            self.d_put_clean = 0
        if self.d_fmem_hits:
            ac.add("fmem_hits", self.d_fmem_hits)
            fmc.add("hits", self.d_fmem_hits)
            if self.fmem_ns_exact:
                # Exact: the bucket and fmem_ns are integer-valued, so
                # the batched product equals n sequential additions bit
                # for bit.
                self.account.charge("fmem_hit",
                                    self.d_fmem_hits * self.fmem_ns)
            self.d_fmem_hits = 0
        if self.d_remote:
            ac.add("remote_fetches", self.d_remote)
            self.d_remote = 0
        if self.d_fm_fills:
            fmc.add("fills", self.d_fm_fills)
            self.d_fm_fills = 0
        if self.d_fm_evictions:
            fmc.add("evictions", self.d_fm_evictions)
            self.d_fm_evictions = 0
        if self.d_lines_snooped:
            ac.add("lines_snooped", self.d_lines_snooped)
            self.d_lines_snooped = 0
        if self.d_pages_evicted:
            ac.add("pages_evicted", self.d_pages_evicted)
            self.d_pages_evicted = 0
        if self.d_snoops:
            dc.add("snoops", self.d_snoops)
            self.d_snoops = 0
        if self.d_ext_inval:
            fc.add("external_invalidations", self.d_ext_inval)
            self.d_ext_inval = 0


def run_trace_batched(rt: "KonaRuntime",
                      chunks: Iterable[Tuple[np.ndarray, np.ndarray]],
                      base: int = 0) -> float:
    """Execute a stream of ``(addrs, writes)`` chunks; returns the
    accumulated stall ns.

    The caller has checked :meth:`_FusedLane.eligible`; every other
    runtime runs the scalar oracle.  The CPU-cache state is imported
    and the fused lane built once per stream, when the first chunk
    arrives: every chunk runs against the same front-end, carrying the
    access ordinal, the capture numbering and the one stall chain (see
    the ordering contract on :class:`_FusedLane`) across chunks, which
    the caller has validated as cadence multiples (bar the last).
    Between chunks the lane's deltas are published, so the caller's
    iterator sees exact counters and may run maintenance or fabric
    calls; the dict cache stays stale until the stream ends.

    State-, counter- and latency-identical to the scalar loop,
    including mid-stream exceptions: an out-of-range address raises
    :class:`AddressError` after the preceding accesses have fully
    executed, and back-end failures (e.g. ``NodeFailure``) propagate
    with the cache state at the failing access exported back.

    ``base`` rebases every address by a constant offset, applied per
    chunk — streamed columnar traces store region-relative addresses
    and never materialize a rebased copy of the whole trace.
    """
    front: Optional[VectorizedCoherentCache] = None
    vf_start, vf_end = rt.vfmem.start, rt.vfmem.end
    tick = rt.obs.tick if rt.obs.sampler is not None else None
    maybe_evict = rt.maybe_evict
    # Causal capture numbers faults by global access ordinal: ``base``
    # counts accesses completed before this stream, and each
    # span/segment threads its stream-relative offset down.
    cap = rt._capture
    seq_base = cap.base if cap is not None else 0
    stall = 0.0
    pos = 0   # stream ordinal of the next access (= its cadence phase)
    try:
        for chunk_addrs, chunk_writes in chunks:
            if front is None:
                lane = _FusedLane(rt, VectorizedCoherentCache.from_scalar(
                    rt.cpu_cache, rt.vfmem))
                front = lane.front
                front.attach(rt.agent.directory)
                front.record_mutations = True
                rt._cache_stale = True
            for lo in range(0, int(chunk_addrs.size), _CHUNK):
                addrs = chunk_addrs[lo:lo + _CHUNK]
                writes = chunk_writes[lo:lo + _CHUNK]
                n = int(addrs.size)
                a = np.asarray(addrs).astype(np.int64, copy=False)
                if base:
                    a = a + base
                w = np.ascontiguousarray(writes, dtype=bool)
                # Chaos acts only between chunks, so whether evictions
                # may wait in the lane's queue holds for the slice.
                lane.defer = rt.eviction.can_defer()
                ok = (a >= vf_start) & (a < vf_end)
                limit = n if ok.all() else int(ok.argmin())
                tags = a >> _LINE_SHIFT
                stall = _run_span(rt, front, tags[:limit], w[:limit], pos,
                                  stall, maybe_evict, tick, lane,
                                  seq_base + pos)
                if limit < n:
                    # Same behaviour as the scalar loop: every access
                    # before the bad one has executed; the bad one raises.
                    pos += limit
                    raise AddressError(
                        f"{int(a[limit]):#x} is not Kona-managed memory")
                pos += n
            # The iterator runs next: publish the batched deltas (it may
            # read counters) and drop the MRU page memo (it may reclaim
            # FMem pages, e.g. ``maybe_evict``).
            lane.flush()
            lane.last_page = -1
    finally:
        if front is not None:
            lane.flush()
            _export(rt, front)
        if cap is not None:
            # The oracle advances the base once per access it starts,
            # after the address check: an access that raised past the
            # check counts, an address outside VFMem does not.
            cap.base = (seq_base + pos if front is None
                        or lane.raised_seq is None
                        else lane.raised_seq + 1)
    return stall


def _export(rt: "KonaRuntime", front: VectorizedCoherentCache) -> None:
    """Hand the CPU-cache state back to the runtime's dict cache."""
    rt._cache_stale = False
    front.record_mutations = False
    front.export_to(rt.cpu_cache)
    rt.cpu_cache.attach(rt.agent.directory)


def _run_span(rt: "KonaRuntime", front: VectorizedCoherentCache,
              tags: np.ndarray, w: np.ndarray, g_base: int, stall: float,
              maybe_evict, tick, lane: _FusedLane, seq0: int) -> float:
    """Run one chunk, segmented at the maintenance cadence.

    The scalar loop runs ``maybe_evict``/``obs.tick`` *after* access
    ``i`` whenever ``i % 256 == 0``, so each segment extends through
    the next cadence index and maintenance fires at its end.  Returns
    the stall accumulator.

    A hot pass skips the cadence points where maintenance cannot act.
    With no sampler and no replication backlog, ``maybe_evict`` acts
    only while FMem occupancy is above ``rt.reclaim_limit``.  Only a
    fill raises occupancy, and a fill happens only in an event (a
    replayed miss or upgrade).  So a pass that starts with no sampler,
    no backlog and occupancy at or below the limit runs to the end of
    the span, unless an event lifts occupancy past the limit: it then
    stops at the cadence point that closes that event's segment (see
    :func:`_run_patch`), and maintenance runs there.  A backlog cannot
    start during a replay, so one check where the pass starts covers
    it.  Every other pass ends at the next cadence point.
    """
    m = int(tags.size)
    local = 0
    hot = False
    if m > _CADENCE:
        # Hot-span fast path: classify the whole chunk once and keep
        # the masks alive across cadence boundaries — boundary events
        # and maintenance mutations are patched into the remaining
        # span instead of reclassifying every 256-access segment.
        # Only worth it when boundary events are rare (the patches
        # scan the remaining span), hence the 31/32 purity gate.
        pure, flat = front.classify(tags, w)
        hot = 32 * int(pure.sum()) >= 31 * m
        if hot:
            ages = np.arange(front._clock + 1, front._clock + 1 + m,
                             dtype=np.int64)
    while local < m:
        # One past the cadence point at or after access ``local``.
        end = min(-(-(g_base + local) // _CADENCE) * _CADENCE - g_base + 1, m)
        if hot:
            free = (tick is None
                    and lane.fmem.occupancy <= rt.reclaim_limit
                    and not (rt.replication is not None
                             and rt.replication.backlog_slots))
            stall, end = _run_patch(rt, front, tags, w, pure, flat, ages,
                                    local, m if free else end, stall,
                                    lane, seq0, g_base if free else None)
        else:
            stall = _run_segment(rt, front, tags[local:end], w[local:end],
                                 front._clock + 1, stall, lane,
                                 seq0 + local)
        front._clock += end - local
        if (g_base + end - 1) % _CADENCE == 0:
            # Maintenance reads gauges (counters, bitmap, FMem stats);
            # every batched delta must be visible first.  Watermark
            # reclaim drains pages through the lane's vectorized snoop
            # instead of the per-line scalar one.
            lane.flush()
            if maybe_evict(drain_pages=lane.drain_pages):
                lane.flush()   # reclaim deltas, before the sampler tick
            if hot and end < m and front._mutations:
                # Proactive eviction may have snooped lines out of the
                # CPU cache; fold the journal into the live span masks.
                _patch_mutations(front, tags[end:], pure[end:])
            else:
                # Cold mode reclassifies the next segment; drop the log.
                front._mutations.clear()
            if tick is not None:
                tick()
        local = end
    return stall


def _run_segment(rt: "KonaRuntime", front: VectorizedCoherentCache,
                 seg_tags: np.ndarray, seg_w: np.ndarray, age0: int,
                 stall: float, lane: _FusedLane, seq0: int) -> float:
    """Bulk-resolve pure-hit runs; replay each boundary event."""
    length = int(seg_tags.size)
    pure, flat = front.classify(seg_tags, seg_w)
    if 2 * int(pure.sum()) < length:
        # Miss-heavy segment (at least half of it misses): the
        # run/patch machinery would pay its numpy overhead on nearly
        # every access for no bulk win, so replay the segment
        # access-by-access against the front-end's way index — same
        # events, same order, same counters.
        return lane.replay(seg_tags, seg_w, age0, stall, seq0)
    ages = np.arange(age0, age0 + length, dtype=np.int64)
    return _run_patch(rt, front, seg_tags, seg_w, pure, flat, ages, 0,
                      length, stall, lane, seq0)[0]


def _run_patch(rt: "KonaRuntime", front: VectorizedCoherentCache,
               tags: np.ndarray, w: np.ndarray, pure: np.ndarray,
               flat: np.ndarray, ages: np.ndarray,
               start: int, end: int, stall: float,
               lane: _FusedLane, seq0: int,
               g_base: Optional[int] = None) -> Tuple[float, int]:
    """Run/patch ``[start, end)`` of a classified window.

    Bulk-resolves pure-hit runs; each boundary event is dispatched off
    a *live* cache probe rather than the (stale) classification masks.
    Only pure->False facts are patched into the masks — victims and
    snoop mutations, to the end of the arrays, not of ``end``, so a
    hot span reuses one classification across its cadence segments.
    An access whose line *became* resident again after classification
    stays marked non-pure and is simply caught by the probe, which
    keeps per-event cost independent of the span length (the old
    True-direction patches were two full-tail array ops per event).

    Given the window's stream ordinal ``g_base``, the first event that
    lifts FMem occupancy above ``rt.reclaim_limit`` moves ``end`` to
    the cadence point closing its segment (see :func:`_run_span`).
    Returns the stall accumulator and where the pass stopped.
    """
    counters = rt.counters
    account = rt.account
    slot_of = front.slot_of
    state_b = front._state_b
    age_b = front._age_b
    cap = rt._capture
    inline_hits = 0
    p = start
    try:
        while p < end:
            q = next_impure(pure, p, end)
            if q > p:
                front.bulk_hits(flat[p:q], w[p:q], ages[p:q])
                counters.add("cache_hits", q - p)
                p = q
                if p >= end:
                    break
            tag = int(tags[p])
            age = int(ages[p])
            isw = bool(w[p])
            fslot = slot_of(tag)
            if fslot >= 0 and (not isw or _WRITABLE_PY[state_b[fslot]]):
                # A pure hit after all (an earlier event re-filled or
                # upgraded the line): apply it like a bulk_hits singleton.
                if isw:
                    state_b[fslot] = MODIFIED
                age_b[fslot] = age
                inline_hits += 1
                p += 1
                continue
            if cap is not None:
                cap.seq = seq0 + p   # the event's fills record under it
            if fslot >= 0:
                # Resident but not writable on a write: upgrade (S/O -> M).
                lane.upgrade(tag, age)
                lane.d_cache_hits += 1
            else:
                victim_tag, code, fill_flat, cost = lane.miss(tag, isw, age)
                stall += cost
                account.charge("memory_stall", cost)
                lane.d_cache_misses += 1
                # The victim left: any later access still marked as a pure
                # hit on it must fall back to the event path.
                if victim_tag is not None:
                    sel = tags[p + 1:] == victim_tag
                    if sel.any():
                        pure[p + 1:][sel] = False
            if front._mutations:
                _patch_mutations(front, tags[p + 1:], pure[p + 1:])
            if (g_base is not None
                    and lane.fmem.occupancy > rt.reclaim_limit):
                # Maintenance acts where this event's segment closes.
                end = min(-(-(g_base + p) // _CADENCE) * _CADENCE
                          - g_base + 1, end)
                g_base = None
            p += 1
    except BaseException:
        lane.raised_seq = seq0 + p
        raise
    finally:
        # Published even when an access raises, so the hit counts
        # match the oracle, which counts each hit as it happens.
        if inline_hits:
            front.counters.add("hits", inline_hits)
            counters.add("cache_hits", inline_hits)
    return stall, end


#: ``_WRITABLE`` as a Python tuple (state codes I/S/E/O/M) — scalar
#: indexing in the replay loop without numpy scalar boxing.
_WRITABLE_PY = tuple(bool(x) for x in _WRITABLE)


def _patch_mutations(front: VectorizedCoherentCache, rem_tags: np.ndarray,
                     pure_rem: np.ndarray) -> None:
    """Fold directory-initiated mutations into the remaining masks.

    Every later access to a mutated line falls back to the event path,
    whatever the mutation: the live probe serves a line that is still
    resident (e.g. a downgraded one, read) as an inline hit.  Most
    batches hold one tag, and one compare costs a fraction of
    ``np.isin``'s fixed overhead.
    """
    tags = front.take_mutations()
    pure_rem[rem_tags == tags[0] if len(tags) == 1
             else np.isin(rem_tags, tags)] = False
