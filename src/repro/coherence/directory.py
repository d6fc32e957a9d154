"""The home-agent directory for a coherence-tracked address range.

This models the VFMem directory the FPGA implements (paper section
4.3): it maintains per-line ownership state for every line in its home
range and emits :class:`~repro.coherence.states.CoherenceEvent`s to
registered observers.  The Kona runtime subscribes to those events to
implement fetch-on-fill and cache-line dirty tracking.

The directory supports the MSI, MESI and MOESI protocol families
(paper section 2.3).  All of them give Kona what it needs — the home
agent sees every fill and, eventually, every dirty writeback — but
they differ in *when* dirty data becomes home-visible:

* **MSI** — no E state: every first write is an explicit upgrade, so
  the home even learns about intent-to-write immediately;
* **MESI** — silent E->M upgrades: the home learns about dirty data
  when the line is written back (or snooped);
* **MOESI** — the OWNED state defers writebacks past read-sharing:
  dirty data can linger in caches even longer.

The directory supports multiple caching agents (e.g. two sockets) even
though the paper's deployment has one; invariants are asserted so
property-based tests can hammer the protocol.

**Storage.**  Like the FPGA's directory, which needs only a few bits
of state per line, each tracked line is one packed int in
``Directory._entries`` (see :data:`OWNER_SHIFT`): the state code in
the low 3 bits, ``owner + 1`` above it (0: no owner) and one sharer
bit per agent id above that.  INVALID lines are *absent*, so the
directory holds exactly the lines some cache holds, and every
transition is one dict store or delete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..common import units
from ..common.errors import CoherenceError
from ..common.stats import Counter
from ..mem.address import AddressRange
from .states import (CODE_OF, STATE_OF, CoherenceEvent, EventKind, LineState,
                     Protocol)


Observer = Callable[[CoherenceEvent], None]
BatchObserver = Callable[[List[CoherenceEvent]], None]
#: invalidate(line) -> was_dirty; downgrade(line) -> was_dirty.
AgentCallbacks = Tuple[Callable[[int], bool], Optional[Callable[[int], bool]]]

#: Packed line entry layout: ``state | (owner + 1) << OWNER_SHIFT |
#: sharer bits << SHARER_SHIFT``, with the state codes of
#: ``states.CODE_OF`` (S=1, E=2, O=3, M=4; INVALID lines are absent).
STATE_MASK = 0b111
OWNER_SHIFT = 3
OWNER_BITS = 16
SHARER_SHIFT = OWNER_SHIFT + OWNER_BITS
_OWNER_MASK = (1 << OWNER_BITS) - 1
#: The largest agent id the owner field can hold.
MAX_AGENT_ID = _OWNER_MASK - 1
_SHARED_CODE = CODE_OF[LineState.SHARED]
_OWNED_CODE = CODE_OF[LineState.OWNED]


@dataclass(slots=True)
class DirectoryEntry:
    """Decoded view of one line's packed entry.

    Only the generic (multi-agent) transitions decode entries; the view
    is transient and written back with :meth:`encode`.
    """

    state: LineState = LineState.INVALID
    owner: Optional[int] = None      # agent id when E/M/O
    sharers: Set[int] = field(default_factory=set)

    @classmethod
    def decode(cls, code: int) -> "DirectoryEntry":
        """The view of a packed entry (0 decodes to INVALID)."""
        owner = (code >> OWNER_SHIFT) & _OWNER_MASK
        sharers = set()
        mask = code >> SHARER_SHIFT
        while mask:
            low = mask & -mask
            sharers.add(low.bit_length() - 1)
            mask ^= low
        return cls(STATE_OF[code & STATE_MASK],
                   owner - 1 if owner else None, sharers)

    def encode(self) -> int:
        """The packed form (0 for INVALID)."""
        code = CODE_OF[self.state]
        if self.owner is not None:
            code |= (self.owner + 1) << OWNER_SHIFT
        for agent in self.sharers:
            code |= 1 << (SHARER_SHIFT + agent)
        return code

    def check_invariants(self) -> None:
        """Raise if the entry violates directory invariants."""
        if self.state in (LineState.EXCLUSIVE, LineState.MODIFIED):
            if self.owner is None:
                raise CoherenceError(f"{self.state} entry without owner")
            if self.sharers - {self.owner}:
                raise CoherenceError(
                    f"{self.state} entry with extra sharers {self.sharers}")
        elif self.state is LineState.OWNED:
            if self.owner is None:
                raise CoherenceError("OWNED entry without owner")
            if self.owner not in self.sharers:
                raise CoherenceError("OWNED owner missing from sharers")
        elif self.state is LineState.SHARED:
            if not self.sharers:
                raise CoherenceError("SHARED entry with no sharers")
            if self.owner is not None:
                raise CoherenceError("SHARED entry with an owner")
        else:  # INVALID
            if self.owner is not None or self.sharers:
                raise CoherenceError("INVALID entry with residual state")


def _check_agent(agent_id: int) -> None:
    if not 0 <= agent_id <= MAX_AGENT_ID:
        raise CoherenceError(
            f"agent id {agent_id} outside [0, {MAX_AGENT_ID}]: the packed "
            f"directory entry cannot hold it")


class Directory:
    """Home agent for ``home_range``; observes all fills and writebacks."""

    def __init__(self, home_range: AddressRange,
                 protocol: Protocol = Protocol.MESI) -> None:
        self.home_range = home_range
        self.protocol = protocol
        #: line address -> packed entry; INVALID lines are absent.
        self._entries: Dict[int, int] = {}
        self._observers: List[Observer] = []
        self._batch_observers: List[Optional[BatchObserver]] = []
        self.counters = Counter()
        self._agents: Dict[int, AgentCallbacks] = {}

    # -- wiring ----------------------------------------------------------------

    def subscribe(self, observer: Observer,
                  on_batch: Optional["BatchObserver"] = None) -> None:
        """Register an event observer (the Kona runtime's primitives).

        ``on_batch``, when given, receives whole event lists from the
        batched writeback drain (:meth:`put_modified_many`) instead of
        one call per event; observers without it see the same events
        individually, in order.
        """
        self._observers.append(observer)
        self._batch_observers.append(on_batch)

    def register_agent(self, agent_id: int,
                       invalidate: Callable[[int], bool],
                       downgrade: Optional[Callable[[int], bool]] = None
                       ) -> None:
        """Register a caching agent.

        ``invalidate(line_addr)`` drops the agent's copy and returns
        True if it was dirty.  ``downgrade(line_addr)`` (MOESI) demotes
        a dirty copy to OWNED and returns True if it was dirty; agents
        that never share dirty data may omit it.  Agent ids must fit
        the packed entry: ``0 <= agent_id <= MAX_AGENT_ID``.
        """
        _check_agent(agent_id)
        self._agents[agent_id] = (invalidate, downgrade)

    def _emit(self, event: CoherenceEvent) -> None:
        for observer in self._observers:
            observer(event)

    def _emit_batch(self, events: List[CoherenceEvent]) -> None:
        for observer, on_batch in zip(self._observers,
                                      self._batch_observers):
            if on_batch is not None:
                on_batch(events)
            else:
                for event in events:
                    observer(event)

    def _entry(self, line_addr: int) -> DirectoryEntry:
        self._check_home(line_addr)
        return DirectoryEntry.decode(self._entries.get(line_addr, 0))

    def _store(self, line_addr: int, entry: DirectoryEntry) -> None:
        """Check and write back a decoded entry (INVALID: delete it)."""
        entry.check_invariants()
        code = entry.encode()
        if code:
            self._entries[line_addr] = code
        else:
            self._entries.pop(line_addr, None)

    def _check_home(self, line_addr: int) -> None:
        if line_addr not in self.home_range:
            raise CoherenceError(
                f"line {line_addr:#x} is not homed at this directory")
        if line_addr % units.CACHE_LINE:
            raise CoherenceError(f"{line_addr:#x} is not line aligned")

    # -- protocol transactions ---------------------------------------------------

    def get_shared(self, line_addr: int, agent_id: int) -> LineState:
        """GetS: agent read-misses on a line homed here.

        Returns the state granted to the requester (EXCLUSIVE only when
        it is the sole holder and the protocol has an E state).
        """
        _check_agent(agent_id)
        entry = self._entry(line_addr)
        self.counters.add("get_s")
        if entry.state in (LineState.MODIFIED, LineState.EXCLUSIVE):
            self._share_dirty_owner(line_addr, entry)
        if entry.state is LineState.INVALID:
            if self.protocol.has_exclusive:
                entry.state = LineState.EXCLUSIVE
                entry.owner = agent_id
                entry.sharers = {agent_id}
                granted = LineState.EXCLUSIVE
            else:
                entry.state = LineState.SHARED
                entry.owner = None
                entry.sharers = {agent_id}
                granted = LineState.SHARED
        elif entry.state is LineState.OWNED:
            entry.sharers.add(agent_id)   # owner forwards the data
            granted = LineState.SHARED
        else:
            entry.state = LineState.SHARED
            entry.owner = None
            entry.sharers.add(agent_id)
            granted = LineState.SHARED
        self._store(line_addr, entry)
        self._emit(CoherenceEvent(EventKind.FILL, line_addr, is_write=False))
        return granted

    def _share_dirty_owner(self, line_addr: int,
                           entry: DirectoryEntry) -> None:
        """Another agent wants to read a line someone holds E/M.

        The owner keeps a copy and supplies the data.  Under MOESI a
        dirty owner stays dirty in OWNED (no home writeback yet); under
        MSI/MESI a dirty copy is written back to the home (a tracked
        writeback) and everyone degrades to SHARED.  Only ``entry`` (the
        caller's view) changes: the writeback is emitted while the old
        state is still stored.
        """
        owner = entry.owner
        if owner is None:
            raise CoherenceError("E/M entry without owner on GetS")
        _, downgrade = self._agents.get(owner, (None, None))
        if downgrade is not None:
            was_dirty = downgrade(line_addr)
        else:
            # No callback: trust the directory's own state (silent E->M
            # upgrades are then conservatively treated as clean).
            was_dirty = entry.state is LineState.MODIFIED
        if was_dirty and self.protocol.has_owned:
            entry.state = LineState.OWNED
            entry.sharers = {owner}
            self.counters.add("owned_transitions")
            return
        if was_dirty:
            self._emit(CoherenceEvent(EventKind.DIRTY_WRITEBACK, line_addr,
                                      is_write=True))
            self.counters.add("share_writebacks")
        entry.state = LineState.SHARED
        entry.sharers = {owner}
        entry.owner = None

    def get_modified(self, line_addr: int, agent_id: int) -> None:
        """GetM: agent write-misses (or upgrades) on a line homed here."""
        _check_agent(agent_id)
        entry = self._entry(line_addr)
        self.counters.add("get_m")
        was_resident = agent_id in entry.sharers or entry.owner == agent_id
        # Everyone else loses their copy.  A dirty copy (M/O owner)
        # moves cache-to-cache; ownership transfers without a home
        # writeback — the new owner will write it back eventually.
        holders = set(entry.sharers)
        if entry.owner is not None:
            holders.add(entry.owner)
        for other in sorted(holders - {agent_id}):
            self._invalidate_agent(other, line_addr)
        entry.state = LineState.MODIFIED
        entry.owner = agent_id
        entry.sharers = {agent_id}
        self._store(line_addr, entry)
        if was_resident:
            self._emit(CoherenceEvent(EventKind.UPGRADE, line_addr,
                                      is_write=True))
        else:
            self._emit(CoherenceEvent(EventKind.FILL, line_addr,
                                      is_write=True))

    def put_modified(self, line_addr: int, agent_id: int) -> None:
        """PutM/PutO: agent evicts a dirty line; data reaches the home.

        This is the event stream Kona's Dirty Data Tracker feeds on.
        """
        self.counters.add("put_m")
        self._apply_put_modified(line_addr, agent_id)
        self._emit(CoherenceEvent(EventKind.DIRTY_WRITEBACK, line_addr,
                                  is_write=True))

    def put_modified_many(self, line_addrs: Sequence[int],
                          agent_id: int) -> None:
        """Batched PutM drain: many dirty evictions, one notification.

        Per-line directory transitions are identical to
        :meth:`put_modified`; the resulting DIRTY_WRITEBACK events go
        out as one list to batch-aware observers (the memory agent's
        bulk bitmap marking) and one at a time, in order, to everyone
        else.  Used by cache flush paths that retire many dirty lines
        at once.
        """
        if not line_addrs:
            return
        for line_addr in line_addrs:
            self._apply_put_modified(line_addr, agent_id)
        self.counters.add("put_m", len(line_addrs))
        self._emit_batch([CoherenceEvent(EventKind.DIRTY_WRITEBACK, addr,
                                         is_write=True)
                          for addr in line_addrs])

    def _apply_put_modified(self, line_addr: int, agent_id: int) -> None:
        entry = self._entry(line_addr)
        # EXCLUSIVE is legal here: MESI/MOESI let the owner upgrade
        # E->M silently, so the directory first learns of the
        # modification when the dirty line comes back.
        if (entry.state not in (LineState.MODIFIED, LineState.EXCLUSIVE,
                                LineState.OWNED)
                or entry.owner != agent_id):
            raise CoherenceError(
                f"PutM from agent {agent_id} for line {line_addr:#x} "
                f"in state {entry.state} owned by {entry.owner}")
        if entry.state is LineState.OWNED:
            # Other sharers keep clean copies; the home is now current.
            entry.sharers.discard(agent_id)
            entry.owner = None
            entry.state = (LineState.SHARED if entry.sharers
                           else LineState.INVALID)
        else:
            entry.state = LineState.INVALID
            entry.owner = None
            entry.sharers = set()
        self._store(line_addr, entry)

    def put_clean(self, line_addr: int, agent_id: int) -> None:
        """PutE/PutS: agent drops a clean line (no data transfer)."""
        entry = self._entry(line_addr)
        self.counters.add("put_clean")
        entry.sharers.discard(agent_id)
        if entry.owner == agent_id:
            # A clean owner (E) dropped its copy; O copies are dirty
            # and must leave through put_modified instead.
            entry.owner = None
            entry.state = (LineState.SHARED if entry.sharers
                           else LineState.INVALID)
        elif entry.owner is None:
            entry.state = (LineState.SHARED if entry.sharers
                           else LineState.INVALID)
        # else: another agent still owns the line; its state stands.
        self._store(line_addr, entry)

    def snoop(self, line_addr: int) -> bool:
        """Pull the latest copy of a (possibly dirty) line from caches.

        Kona's eviction path snoops lines it is about to write out, in
        case the CPU has a newer copy (paper section 4.4).  Returns
        True if a dirty copy was recalled.
        """
        code = self._entries.get(line_addr)
        self.counters.add("snoops")
        if code is None or code & STATE_MASK == _SHARED_CODE:
            # Shared copies are clean by construction; nothing to pull.
            return False
        # E lines may have been silently upgraded to M, and O lines are
        # dirty by definition, so the snoop must go out and ask.  The
        # agent's invalidation callback reports whether its copy was
        # dirty.
        was_dirty = self._recall(line_addr, DirectoryEntry.decode(code))
        if was_dirty:
            self._emit(CoherenceEvent(EventKind.SNOOPED, line_addr,
                                      is_write=True))
        return bool(was_dirty)

    def _recall(self, line_addr: int, entry: DirectoryEntry) -> bool:
        """Invalidate an E/M/O line's owner copy; True if it was dirty.

        The new state is stored before the caller emits SNOOPED.
        """
        owner = entry.owner
        if owner is None:
            raise CoherenceError("E/M/O entry without owner during snoop")
        invalidate, _ = self._agents.get(owner, (None, None))
        was_dirty = (entry.state.dirty if invalidate is None
                     else invalidate(line_addr))
        entry.sharers.discard(owner)
        entry.owner = None
        entry.state = (LineState.SHARED if entry.sharers
                       else LineState.INVALID)
        self._store(line_addr, entry)
        return was_dirty

    def snoop_page(self, page_addr: int, page_size: int) -> int:
        """Bulk :meth:`snoop` of every line in one page.

        The eviction drain snoops whole pages (64 lines for a 4 KB
        page), and almost all of those lines are untracked or merely
        SHARED: the per-line transitions are identical to
        :meth:`snoop`, but the untracked-line fast path skips the
        counter update, event construction and invariant check that
        dominate the scalar loop.  Returns the number of dirty copies
        recalled.
        """
        entries = self._entries
        self.counters.add("snoops", page_size // units.CACHE_LINE)
        dirty = 0
        for line_addr in range(page_addr, page_addr + page_size,
                               units.CACHE_LINE):
            code = entries.get(line_addr)
            if code is None or code & STATE_MASK == _SHARED_CODE:
                continue
            if self._recall(line_addr, DirectoryEntry.decode(code)):
                dirty += 1
                self._emit(CoherenceEvent(EventKind.SNOOPED, line_addr,
                                          is_write=True))
        return dirty

    # -- internals -----------------------------------------------------------------

    def _invalidate_agent(self, agent_id: Optional[int],
                          line_addr: int) -> None:
        if agent_id is None:
            return
        callbacks = self._agents.get(agent_id)
        if callbacks is not None:
            callbacks[0](line_addr)
        self.counters.add("invalidations")

    # -- inspection ------------------------------------------------------------------

    def state_of(self, line_addr: int) -> LineState:
        """Current directory state for a line (INVALID if untracked)."""
        return STATE_OF[self._entries.get(line_addr, 0) & STATE_MASK]

    def modified_lines(self) -> List[int]:
        """Lines currently held dirty somewhere (sorted)."""
        return sorted(addr for addr, code in self._entries.items()
                      if code & STATE_MASK >= _OWNED_CODE)
