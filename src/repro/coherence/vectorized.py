"""An ndarray mirror of :class:`~repro.coherence.agent.CoherentCache`.

The batched run_trace engine (:mod:`repro.kona.engine`) needs to
classify hundreds of accesses against the CPU coherent cache in one
numpy pass.  The ordered-dict cache cannot do that, so this module
keeps the same state — tags, MESI states, LRU order — in flat arrays:

* ``tags[set, way]``  — line tag (``line_addr // 64``), ``-1`` when empty;
* ``state[set, way]`` — small-int MESI code (same order as
  :class:`~repro.coherence.states.LineState`);
* ``age[set, way]``   — a strictly increasing access timestamp.  The
  ordered dict's "pop victim = first inserted key, hit = move to back"
  discipline is exactly "victim = argmin(age), hit = age := now", so
  the two representations are interconvertible and bit-identical.

The dict cache stays the runtime's resident representation (scalar
``access``/chaos/read/write paths keep dict speed); the engine imports
its state with :meth:`VectorizedCoherentCache.from_scalar` once per
stream, registers this cache's coherence callbacks for the duration of
the stream (every chunk of a ``run_trace_stream``, or the one chunk of
a ``run_trace``), and exports the final state back with
:meth:`export_to` when the stream ends or raises.

Directory-initiated invalidations and downgrades land *during* a
batch (FMem page evictions snoop every line of the victim page).  The
cache therefore records every state mutation in a log the engine
drains after each directory interaction, so the engine can patch its
speculative hit classification instead of reclassifying.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..common import units
from ..common.errors import CoherenceError
from ..common.stats import Counter
from ..coherence.agent import CoherentCache, DirectoryResolver
from ..coherence.directory import Directory
from ..mem.address import is_power_of_two
from .states import CODE_OF as _CODE_OF
from .states import STATE_OF as _STATE_OF
from .states import LineState, Protocol

#: Empty-slot sentinel in the tag array (real tags are non-negative).
_EMPTY = -1

#: Small-int codes for the state array (``states.CODE_OF``).
INVALID, SHARED, EXCLUSIVE, OWNED, MODIFIED = range(5)

#: Lookup tables indexed by state code.
_WRITABLE = np.array([False, False, True, False, True])
_DIRTY = np.array([False, False, False, True, True])

#: Mutation-log kinds (see :meth:`VectorizedCoherentCache.take_mutations`).
INVALIDATED = 0
DOWNGRADED = 1


class VectorizedCoherentCache:
    """Array-backed coherent cache, state-equivalent to the dict cache."""

    def __init__(self, agent_id: int, resolver: DirectoryResolver,
                 capacity: int = 8 * units.MB, ways: int = 16,
                 protocol: Protocol = Protocol.MESI,
                 counters: Optional[Counter] = None) -> None:
        if capacity <= 0 or ways <= 0 or capacity % (units.CACHE_LINE * ways):
            raise CoherenceError(
                f"bad geometry capacity={capacity} ways={ways}")
        self.num_sets = capacity // (units.CACHE_LINE * ways)
        if not is_power_of_two(self.num_sets):
            raise CoherenceError(f"sets {self.num_sets} not a power of two")
        self.agent_id = agent_id
        self.ways = ways
        self.protocol = protocol
        self._resolver = resolver
        self._set_mask = self.num_sets - 1
        self._tags = np.full((self.num_sets, ways), _EMPTY, dtype=np.int64)
        self._state = np.zeros((self.num_sets, ways), dtype=np.uint8)
        self._age = np.zeros((self.num_sets, ways), dtype=np.int64)
        # Flat views share memory with the 2-D arrays; scalar reads and
        # writes through them skip the tuple-index path.
        self._tags_f = self._tags.reshape(-1)
        self._state_f = self._state.reshape(-1)
        self._age_f = self._age.reshape(-1)
        # tag -> flat slot index; the replay path (misses, upgrades,
        # snoop callbacks) resolves residency in one dict lookup
        # instead of a numpy row scan.
        self._tag_map: Dict[int, int] = {}
        # Per-set resident counts (empty-way fast path).
        self._counts = [0] * self.num_sets
        self._clock = 0
        self.counters = counters if counters is not None else Counter()
        self.record_mutations = False
        self._mutations: List[Tuple[int, int]] = []   # (kind, tag)
        # classify() scratch (grown on demand): the (m, ways) gather and
        # compare dominate its cost, and reallocating multi-megabyte
        # temporaries per chunk is most of that.
        self._cls_rows = np.empty((0, ways), dtype=np.int64)
        self._cls_hits = np.empty((0, ways), dtype=bool)

    # -- dict-cache interop ------------------------------------------------------

    @classmethod
    def from_scalar(cls, cache: CoherentCache) -> "VectorizedCoherentCache":
        """Snapshot a dict cache into arrays (shares its counter bag)."""
        vec = cls(agent_id=cache.agent_id, resolver=cache._resolver,
                  capacity=cache.num_sets * cache.ways * units.CACHE_LINE,
                  ways=cache.ways, protocol=cache.protocol,
                  counters=cache.counters)
        # Collect the resident lines first and land them with three
        # bulk assignments — per-line scalar stores into the 2-D arrays
        # dominate snapshot time on a warm cache.  Append order is the
        # age order (one global clock), so ages are just 1..clock (only
        # relative age *within* a set matters, and each set's lines
        # stay contiguous and in dict — i.e. LRU — order).  The inner
        # work runs at C speed: dict-view extends, a mapped state→code
        # translation, and one vectorized address→tag shift.
        counts = vec._counts
        ways = cache.ways
        code_of = _CODE_OF.__getitem__
        flats: List[int] = []
        addrs: List[int] = []
        codes: List[int] = []
        for sidx, lines in enumerate(cache._sets):
            if not lines:
                continue
            n = len(lines)
            counts[sidx] = n
            base = sidx * ways
            flats.extend(range(base, base + n))
            addrs.extend(lines.keys())
            codes.extend(map(code_of, lines.values()))
        clock = len(flats)
        if clock:
            f = np.array(flats, dtype=np.intp)
            tags = np.array(addrs, dtype=np.int64) // units.CACHE_LINE
            vec._tags_f[f] = tags
            vec._state_f[f] = codes
            vec._age_f[f] = np.arange(1, clock + 1)
            vec._tag_map.update(zip(tags.tolist(), flats))
        vec._clock = clock
        return vec

    def export_to(self, cache: CoherentCache) -> None:
        """Rebuild the dict cache's per-set ordered dicts from arrays.

        Dict insertion order is LRU order, i.e. ascending age.  Ages
        are globally unique, so one global sort by age and an in-order
        insert reproduces every set's LRU order at O(resident lines)
        cost — the tag map gives the resident slots without scanning
        the (mostly empty, capacity-sized) arrays.
        """
        if (cache.num_sets, cache.ways) != (self.num_sets, self.ways):
            raise CoherenceError("geometry mismatch on export")
        sets: List[Dict[int, LineState]] = [{} for _ in range(self.num_sets)]
        cache._sets = sets
        if self._tag_map:
            idx = np.fromiter(self._tag_map.values(), dtype=np.int64,
                              count=len(self._tag_map))
            idx = idx[np.argsort(self._age_f[idx])]
            for sidx, tag, code in zip((idx // self.ways).tolist(),
                                       self._tags_f[idx].tolist(),
                                       self._state_f[idx].tolist()):
                sets[sidx][tag * units.CACHE_LINE] = _STATE_OF[code]

    # -- plumbing ----------------------------------------------------------------

    def attach(self, directory: Directory) -> None:
        """Register this cache's coherence callbacks with a directory."""
        directory.register_agent(self.agent_id, self._handle_invalidation,
                                 self._handle_downgrade)

    def take_mutations(self) -> List[Tuple[int, int]]:
        """Drain the (kind, tag) log of directory-initiated mutations."""
        muts = self._mutations
        self._mutations = []
        return muts

    def _handle_invalidation(self, line_addr: int) -> bool:
        tag = line_addr // units.CACHE_LINE
        self.counters.add("external_invalidations")
        flat = self._tag_map.pop(tag, -1)
        if flat < 0:
            return False
        dirty = int(self._state_f[flat]) >= OWNED
        self._tags_f[flat] = _EMPTY
        self._state_f[flat] = INVALID
        self._age_f[flat] = 0
        self._counts[flat // self.ways] -= 1
        if self.record_mutations:
            self._mutations.append((INVALIDATED, tag))
        return dirty

    def _handle_downgrade(self, line_addr: int) -> bool:
        tag = line_addr // units.CACHE_LINE
        flat = self._tag_map.get(tag, -1)
        if flat < 0:
            return False
        self.counters.add("downgrades")
        was_dirty = int(self._state_f[flat]) >= OWNED
        if was_dirty and self.protocol.has_owned:
            self._state_f[flat] = OWNED
        else:
            self._state_f[flat] = SHARED
        if self.record_mutations:
            self._mutations.append((DOWNGRADED, tag))
        return was_dirty

    # -- batched classification --------------------------------------------------

    def classify(self, tags: np.ndarray, writes: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Speculative hit classification for a span of accesses.

        Returns ``(pure_hit, resident, flat)`` against the *current*
        state: an access is a pure hit when its line is resident and,
        for writes, writable; ``flat`` is the line's flat slot index
        (meaningful only where ``resident``).  Pure hits cannot change
        any other line's residency or writability, so a pure-hit prefix
        of the span can be applied in bulk; the first non-pure access
        must be replayed through the directory, after which the caller
        patches the masks (the engine does this) rather than
        reclassifying.
        """
        m = tags.shape[0]
        if self._cls_rows.shape[0] < m:
            self._cls_rows = np.empty((m, self.ways), dtype=np.int64)
            self._cls_hits = np.empty((m, self.ways), dtype=bool)
        rows = self._cls_rows[:m]
        hit_ways = self._cls_hits[:m]
        sidx = (tags & self._set_mask).astype(np.intp, copy=False)
        np.take(self._tags, sidx, axis=0, out=rows)
        np.equal(rows, tags[:, None], out=hit_ways)
        resident = hit_ways.any(axis=1)
        way = hit_ways.argmax(axis=1)
        flat = sidx * self.ways + way
        states = self._state_f[flat]
        pure = resident & (~writes | _WRITABLE[states])
        return pure, resident, flat

    def bulk_hits(self, flat: np.ndarray, writes: np.ndarray,
                  ages: np.ndarray) -> None:
        """Apply a run of pure hits (LRU promotion + write upgrades).

        ``flat`` holds the slot indices classify/patching resolved; the
        caller guarantees every element is a pure hit under the current
        state.  ``ages`` must be strictly increasing and larger than
        every timestamp already in the cache, so duplicate lines
        resolve to their last access by plain last-write-wins fancy
        assignment — exactly the dict cache's move-to-back discipline
        (and exactly what ``maximum.at`` would compute, minus the
        unbuffered ufunc overhead).
        """
        self._age_f[flat] = ages
        # Pure write hits are on writable (E/M) lines; E -> M is the
        # silent upgrade, M -> M is idempotent.  An all-read run makes
        # this an empty fancy assignment, which is cheaper than probing
        # with writes.any() first on the (common) runs that do write.
        self._state_f[flat[writes]] = MODIFIED
        self.counters.add("hits", int(flat.size))

    # -- replayed (non-pure) accesses --------------------------------------------

    def upgrade(self, line_addr: int, age: int) -> None:
        """Write hit on a resident, non-writable line (S/O -> M).

        Mirrors the dict cache exactly: the line is popped for the
        duration of the directory call (a snoop landing mid-upgrade
        finds it absent) and re-inserted as MODIFIED at the new age.
        """
        tag = line_addr // units.CACHE_LINE
        flat = self._tag_map.pop(tag)
        self._tags_f[flat] = _EMPTY
        directory = self._resolver(line_addr)
        if directory is not None:
            directory.get_modified(line_addr, self.agent_id)
        self._tag_map[tag] = flat
        self._tags_f[flat] = tag
        self._state_f[flat] = MODIFIED
        self._age_f[flat] = age
        self.counters.add("upgrades")

    def miss_fill(self, line_addr: int, is_write: bool,
                  age: int) -> Tuple[Optional[int], int, int]:
        """One miss: evict a victim if the set is full, then fill.

        Returns ``(victim_tag_or_None, new_state_code, flat_slot)`` so
        the engine can patch its hit masks.  Matches the dict cache's
        ordering: the victim's Put reaches the directory before the
        fill's Get, and the line is inserted only after the Get returns
        (a snoop that lands mid-fill therefore finds the line absent).
        """
        tag = line_addr // units.CACHE_LINE
        sidx = tag & self._set_mask
        self.counters.add("misses")
        base = sidx * self.ways
        victim_tag: Optional[int] = None
        if self._counts[sidx] >= self.ways:
            way = int(self._age[sidx].argmin())
            flat = base + way
            victim_tag = int(self._tags_f[flat])
            victim_state = int(self._state_f[flat])
            self._tags_f[flat] = _EMPTY
            self._state_f[flat] = INVALID
            self._age_f[flat] = 0
            del self._tag_map[victim_tag]
            # Victim out + fill in nets zero; _counts stays put (the
            # transient deficit is unobservable — snoop callbacks only
            # decrement, and nothing reads counts mid-fill).
            self.counters.add("evictions")
            victim_addr = victim_tag * units.CACHE_LINE
            victim_dir = self._resolver(victim_addr)
            if victim_dir is not None:
                if victim_state >= OWNED:   # OWNED/MODIFIED are dirty
                    victim_dir.put_modified(victim_addr, self.agent_id)
                else:
                    victim_dir.put_clean(victim_addr, self.agent_id)
        else:
            flat = base + int((self._state[sidx] == INVALID).argmax())
            self._counts[sidx] += 1
        directory = self._resolver(line_addr)
        if is_write:
            if directory is not None:
                directory.get_modified(line_addr, self.agent_id)
            code = MODIFIED
        elif directory is not None:
            code = _CODE_OF[directory.get_shared(line_addr, self.agent_id)]
        elif self.protocol.has_exclusive:
            code = EXCLUSIVE
        else:
            code = SHARED
        self._tags_f[flat] = tag
        self._state_f[flat] = code
        self._age_f[flat] = age
        self._tag_map[tag] = flat
        return victim_tag, code, flat

    # -- scalar-compatible access path -------------------------------------------

    def access(self, addr: int, is_write: bool) -> bool:
        """One access, same contract as ``CoherentCache.access``.

        Used by the differential tests to drive both representations
        through identical traffic; the engine uses the batched methods.
        """
        line_addr = addr - addr % units.CACHE_LINE
        self._clock += 1
        flat = self._tag_map.get(line_addr // units.CACHE_LINE, -1)
        if flat >= 0:
            state = int(self._state_f[flat])
            if not is_write or _WRITABLE[state]:
                if is_write:
                    self._state_f[flat] = MODIFIED
                self._age_f[flat] = self._clock
                self.counters.add("hits")
                return True
            self.upgrade(line_addr, self._clock)
            return True
        self.miss_fill(line_addr, is_write, self._clock)
        return False

    # -- inspection ---------------------------------------------------------------

    def state_of(self, addr: int) -> LineState:
        """MESI state of the line containing ``addr`` (INVALID if absent)."""
        flat = self._tag_map.get(
            (addr - addr % units.CACHE_LINE) // units.CACHE_LINE, -1)
        if flat < 0:
            return LineState.INVALID
        return _STATE_OF[int(self._state_f[flat])]

    @property
    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(self._counts)
