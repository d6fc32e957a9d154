"""An ndarray mirror of :class:`~repro.coherence.agent.CoherentCache`.

The batched run_trace engine (:mod:`repro.kona.engine`) needs to
classify hundreds of accesses against the CPU coherent cache in one
numpy pass.  The ordered-dict cache cannot do that, so this module
keeps the same state — tags, MESI states, LRU order — in flat
``set * ways + way`` slot arrays:

* ``tags``  — line tag (``line_addr // 64``), ``-1`` when empty;
* ``state`` — small-int MESI code (same order as
  :class:`~repro.coherence.states.LineState`);
* ``age``   — a strictly increasing access timestamp.  The ordered
  dict's "pop victim = first inserted key, hit = move to back"
  discipline is exactly "victim = argmin(age), hit = age := now", so
  the two representations are interconvertible and bit-identical.

Each array is a Python buffer (``array('q')``, ``bytearray``,
``array('q')``) with a numpy view over the same memory: the bulk paths
(classification, pure-hit runs, import/export) use the views, and the
per-event replay paths index the buffers and get plain ints.

Residency is answered by one dense **way index** over the cache's home
range (the runtime's VFMem): one ``uint8`` per line, ``way + 1`` while
the line is resident and 0 otherwise, so a lookup is one byte read and
``flat = (tag & set_mask) * ways + way - 1``.  The table is
``np.zeros``-allocated, so it costs 1 B of address space per home line
and only the pages a trace touches are committed.  Every residency
change updates it where the tag array changes: a fill appears only
after its directory Get returns, a victim disappears before its Put,
an upgrading line reads absent while its GetM runs, and snoop
invalidations clear their entries.  Lines outside the home range are
never resident; importing or accessing one raises
:class:`~repro.common.errors.CoherenceError`.

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

from array import array
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..common import units
from ..common.errors import CoherenceError
from ..common.stats import Counter
from ..coherence.agent import CoherentCache, DirectoryResolver
from ..coherence.directory import Directory
from ..mem.address import AddressRange, is_power_of_two
from .states import CODE_OF as _CODE_OF
from .states import STATE_OF as _STATE_OF
from .states import LineState, Protocol

#: Empty-slot sentinel in the tag array (real tags are non-negative).
_EMPTY = -1

#: Small-int codes for the state array (``states.CODE_OF``).
INVALID, SHARED, EXCLUSIVE, OWNED, MODIFIED = range(5)

#: State codes indexed by ``LineState`` value (``from_scalar``'s import).
_VALUE = attrgetter("_value_")
_CODE_OF_VALUE = np.zeros(max(map(_VALUE, _STATE_OF)) + 1, dtype=np.uint8)
_CODE_OF_VALUE[list(map(_VALUE, _STATE_OF))] = range(len(_STATE_OF))

#: Writability indexed by state code.
_WRITABLE = np.array([False, False, True, False, True])

#: Block size of :func:`next_impure`'s scan: big enough that a nearly
#: pure span crosses it in a handful of argmin calls, small enough that
#: an event-dense span does not rescan a long tail.
_SCAN_BLOCK = 1024


class VectorizedCoherentCache:
    """Array-backed coherent cache, state-equivalent to the dict cache.

    ``home`` is the address range whose lines may become resident; it
    sizes the way index (see the module docstring).
    """

    def __init__(self, agent_id: int, resolver: DirectoryResolver,
                 home: AddressRange, capacity: int = 8 * units.MB,
                 ways: int = 16, protocol: Protocol = Protocol.MESI,
                 counters: Optional[Counter] = None) -> None:
        if capacity <= 0 or ways <= 0 or capacity % (units.CACHE_LINE * ways):
            raise CoherenceError(
                f"bad geometry capacity={capacity} ways={ways}")
        if ways > 255:
            raise CoherenceError(
                f"ways={ways} does not fit the one-byte way index")
        self.num_sets = capacity // (units.CACHE_LINE * ways)
        if not is_power_of_two(self.num_sets):
            raise CoherenceError(f"sets {self.num_sets} not a power of two")
        self.agent_id = agent_id
        self.ways = ways
        self.protocol = protocol
        self._resolver = resolver
        self._set_mask = self.num_sets - 1
        slots = self.num_sets * ways
        # Python buffers for the scalar paths (indexing yields plain
        # ints), numpy views over the same memory for the bulk paths.
        self._tags_b = array("q", [_EMPTY]) * slots
        self._state_b = bytearray(slots)
        self._age_b = array("q", [0]) * slots
        self._tags = np.frombuffer(self._tags_b, dtype=np.int64)
        self._state = np.frombuffer(self._state_b, dtype=np.uint8)
        self._age = np.frombuffer(self._age_b, dtype=np.int64)
        # The way index: entry ``tag - _tag0`` holds way + 1 for a
        # resident line, 0 otherwise.  np.zeros commits pages only as
        # they are written; scalar paths go through the memoryview.
        self._tag0 = home.start // units.CACHE_LINE
        self._lines = home.size // units.CACHE_LINE
        self._way = np.zeros(self._lines, dtype=np.uint8)
        self._way_mv = memoryview(self._way)
        # Per-set resident counts (empty-way fast path).
        self._counts = [0] * self.num_sets
        self._clock = 0
        self.counters = counters if counters is not None else Counter()
        self.record_mutations = False
        self._mutations: List[int] = []   # tags of snooped lines

    # -- dict-cache interop ------------------------------------------------------

    @classmethod
    def from_scalar(cls, cache: CoherentCache,
                    home: AddressRange) -> "VectorizedCoherentCache":
        """Snapshot a dict cache into arrays (shares its counter bag).

        Raises :class:`CoherenceError` if a resident line lies outside
        ``home``.
        """
        vec = cls(agent_id=cache.agent_id, resolver=cache._resolver,
                  home=home,
                  capacity=cache.num_sets * cache.ways * units.CACHE_LINE,
                  ways=cache.ways, protocol=cache.protocol,
                  counters=cache.counters)
        # Read the dict sets at C speed and land them with bulk
        # assignments: per-set counts by ``len``, then every address
        # and every state chained in set order.  Each set's lines fill
        # its first ways in dict (i.e. LRU) order, so chained position
        # ``i`` is the ``i``-th of those slots, and append order is the
        # age order (one global clock): ages are just 1..clock (only
        # relative age *within* a set matters).  States map to codes
        # through their enum values — ``LineState.__hash__`` is a
        # Python function, too slow to call once per line.
        sets = cache._sets
        vec._counts = counts = list(map(len, sets))
        clock = sum(counts)
        if clock:
            ways = cache.ways
            f = np.flatnonzero(np.arange(ways)
                               < np.array(counts)[:, None])
            tags = np.fromiter(chain.from_iterable(sets), dtype=np.int64,
                               count=clock) // units.CACHE_LINE
            idx = tags - vec._tag0
            if int(idx.min()) < 0 or int(idx.max()) >= vec._lines:
                raise CoherenceError(
                    f"resident line outside the home range {home}")
            values = np.fromiter(
                map(_VALUE, chain.from_iterable(map(dict.values, sets))),
                dtype=np.intp, count=clock)
            vec._tags[f] = tags
            vec._state[f] = _CODE_OF_VALUE[values]
            vec._age[f] = np.arange(1, clock + 1)
            vec._way[idx] = f % ways + 1
        vec._clock = clock
        return vec

    def export_to(self, cache: CoherentCache) -> None:
        """Rebuild the dict cache's per-set ordered dicts from arrays.

        Dict insertion order is LRU order, i.e. ascending age.  Ages
        are globally unique, so one global sort of the resident slots
        by age and an in-order insert reproduces every set's LRU order.
        """
        if (cache.num_sets, cache.ways) != (self.num_sets, self.ways):
            raise CoherenceError("geometry mismatch on export")
        sets: List[Dict[int, LineState]] = [{} for _ in range(self.num_sets)]
        cache._sets = sets
        idx = np.flatnonzero(self._tags != _EMPTY)
        idx = idx[np.argsort(self._age[idx])]
        for sidx, tag, code in zip((idx // self.ways).tolist(),
                                   self._tags[idx].tolist(),
                                   self._state[idx].tolist()):
            sets[sidx][tag * units.CACHE_LINE] = _STATE_OF[code]

    # -- plumbing ----------------------------------------------------------------

    def attach(self, directory: Directory) -> None:
        """Register this cache's coherence callbacks with a directory."""
        directory.register_agent(self.agent_id, self._handle_invalidation,
                                 self._handle_downgrade)

    def take_mutations(self) -> List[int]:
        """Drain the log of lines the directory invalidated or
        downgraded (tags, in snoop order)."""
        muts = self._mutations
        self._mutations = []
        return muts

    def slot_of(self, tag: int) -> int:
        """Flat slot index of a resident line tag, ``-1`` if absent.

        Tags outside the home range read absent without touching the
        table (a negative offset would wrap to its end).
        """
        i = tag - self._tag0
        way = self._way_mv[i] if 0 <= i < self._lines else 0
        if not way:
            return -1
        return (tag & self._set_mask) * self.ways + way - 1

    def _handle_invalidation(self, line_addr: int) -> bool:
        tag = line_addr // units.CACHE_LINE
        self.counters.add("external_invalidations")
        flat = self.slot_of(tag)
        if flat < 0:
            return False
        dirty = self._state_b[flat] >= OWNED
        self._way_mv[tag - self._tag0] = 0
        self._tags_b[flat] = _EMPTY
        self._state_b[flat] = INVALID
        self._age_b[flat] = 0
        self._counts[flat // self.ways] -= 1
        if self.record_mutations:
            self._mutations.append(tag)
        return dirty

    def _handle_downgrade(self, line_addr: int) -> bool:
        tag = line_addr // units.CACHE_LINE
        flat = self.slot_of(tag)
        if flat < 0:
            return False
        self.counters.add("downgrades")
        was_dirty = self._state_b[flat] >= OWNED
        if was_dirty and self.protocol.has_owned:
            self._state_b[flat] = OWNED
        else:
            self._state_b[flat] = SHARED
        if self.record_mutations:
            self._mutations.append(tag)
        return was_dirty

    # -- batched classification --------------------------------------------------

    def classify(self, tags: np.ndarray, writes: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Speculative hit classification for a span of accesses.

        Returns ``(pure_hit, flat)`` against the *current* state: an
        access is a pure hit when its line is resident and, for
        writes, writable; ``flat`` is the line's flat slot index,
        meaningful only where ``pure_hit`` holds.  Residency is one
        byte gather from the way index, so every tag must lie in the
        home range (the engine rejects other addresses first).  Pure
        hits cannot change any other line's residency or writability,
        so a pure-hit prefix of the span can be applied in bulk; the
        first non-pure access must be replayed through the directory,
        after which the caller patches the mask (the engine does this)
        rather than reclassifying.
        """
        way = self._way[tags - self._tag0]
        # int64 arithmetic (in uint8, way 0 - 1 would wrap to 255); a
        # non-resident access gets slot base - 1, masked out of pure.
        flat = (tags & self._set_mask) * self.ways + way - 1
        pure = (way != 0) & (~writes | _WRITABLE[self._state[flat]])
        return pure, flat

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
        self._age[flat] = ages
        # Pure write hits are on writable (E/M) lines; E -> M is the
        # silent upgrade, M -> M is idempotent.  An all-read run makes
        # this an empty fancy assignment, which is cheaper than probing
        # with writes.any() first on the (common) runs that do write.
        self._state[flat[writes]] = MODIFIED
        self.counters.add("hits", int(flat.size))

    # -- replayed (non-pure) accesses --------------------------------------------

    def upgrade(self, line_addr: int, age: int) -> None:
        """Write hit on a resident, non-writable line (S/O -> M).

        Mirrors the dict cache exactly: the line reads absent for the
        duration of the directory call (a snoop landing mid-upgrade
        finds it absent) and reappears as MODIFIED at the new age.
        """
        tag = line_addr // units.CACHE_LINE
        flat = self.slot_of(tag)
        i = tag - self._tag0
        self._way_mv[i] = 0
        self._tags_b[flat] = _EMPTY
        directory = self._resolver(line_addr)
        if directory is not None:
            directory.get_modified(line_addr, self.agent_id)
        self._way_mv[i] = flat % self.ways + 1
        self._tags_b[flat] = tag
        self._state_b[flat] = MODIFIED
        self._age_b[flat] = age
        self.counters.add("upgrades")

    def miss_fill(self, line_addr: int, is_write: bool,
                  age: int) -> Tuple[Optional[int], int, int]:
        """One miss: evict a victim if the set is full, then fill.

        Returns ``(victim_tag_or_None, new_state_code, flat_slot)`` so
        the engine can patch its hit masks.  Matches the dict cache's
        ordering: the victim's Put reaches the directory before the
        fill's Get, and the line is inserted only after the Get returns
        (a snoop that lands mid-fill therefore finds the line absent).
        ``line_addr`` must lie in the home range.
        """
        tag = line_addr // units.CACHE_LINE
        sidx = tag & self._set_mask
        self.counters.add("misses")
        base = sidx * self.ways
        victim_tag: Optional[int] = None
        if self._counts[sidx] >= self.ways:
            flat = base + int(self._age[base:base + self.ways].argmin())
            victim_tag = self._tags_b[flat]
            victim_state = self._state_b[flat]
            self._way_mv[victim_tag - self._tag0] = 0
            self._tags_b[flat] = _EMPTY
            self._state_b[flat] = INVALID
            self._age_b[flat] = 0
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
            flat = self._state_b.find(INVALID, base, base + self.ways)
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
        self._tags_b[flat] = tag
        self._state_b[flat] = code
        self._age_b[flat] = age
        self._way_mv[tag - self._tag0] = flat - base + 1
        return victim_tag, code, flat

    # -- scalar-compatible access path -------------------------------------------

    def access(self, addr: int, is_write: bool) -> bool:
        """One access, same contract as ``CoherentCache.access``.

        Used by the differential tests to drive both representations
        through identical traffic; the engine uses the batched methods.
        Raises :class:`CoherenceError` for an address outside the home
        range.
        """
        line_addr = addr - addr % units.CACHE_LINE
        tag = line_addr // units.CACHE_LINE
        if not 0 <= tag - self._tag0 < self._lines:
            raise CoherenceError(f"{addr:#x} outside the home range")
        self._clock += 1
        flat = self.slot_of(tag)
        if flat >= 0:
            if not is_write or _WRITABLE[self._state_b[flat]]:
                if is_write:
                    self._state_b[flat] = MODIFIED
                self._age_b[flat] = self._clock
                self.counters.add("hits")
                return True
            self.upgrade(line_addr, self._clock)
            return True
        self.miss_fill(line_addr, is_write, self._clock)
        return False

    # -- inspection ---------------------------------------------------------------

    def state_of(self, addr: int) -> LineState:
        """MESI state of the line containing ``addr`` (INVALID if absent)."""
        flat = self.slot_of(addr // units.CACHE_LINE)
        if flat < 0:
            return LineState.INVALID
        return _STATE_OF[self._state_b[flat]]

    @property
    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(self._counts)


def next_impure(pure: np.ndarray, p: int, end: int) -> int:
    """Index of the first non-pure access in ``pure[p:end]``, else ``end``.

    ``pure`` is a :meth:`VectorizedCoherentCache.classify` mask.  The
    blocked argmin keeps the scan proportional to the distance to the
    boundary, not to the span tail (bool argmin does not short-circuit).
    """
    while p < end:
        stop = p + _SCAN_BLOCK
        blk = pure[p:stop if stop < end else end]
        r = int(blk.argmin())
        if not blk[r]:
            return p + r
        p += blk.shape[0]
    return end
