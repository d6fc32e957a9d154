"""MESI protocol states and message vocabulary.

The directory protocol modeled here is a standard MESI home-agent
protocol (Nagarajan et al., "A Primer on Memory Consistency and Cache
Coherence").  Kona needs nothing exotic from it — only that the home
agent (the FPGA's VFMem directory) sees *every* line request and *every*
dirty writeback, which any invalidation-based protocol guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto


class LineState(Enum):
    """Stable cache-line states in the caching agent.

    ``OWNED`` exists only under the MOESI protocol: a dirty line that
    other caches share; the owner supplies data on demand and defers
    the memory writeback.
    """

    INVALID = auto()
    SHARED = auto()
    EXCLUSIVE = auto()
    OWNED = auto()
    MODIFIED = auto()

    @property
    def readable(self) -> bool:
        """Whether a read hits in this state."""
        return self is not LineState.INVALID

    @property
    def writable(self) -> bool:
        """Whether a write hits without a coherence transaction."""
        return self in (LineState.EXCLUSIVE, LineState.MODIFIED)

    @property
    def dirty(self) -> bool:
        """Whether the cached copy differs from memory."""
        return self in (LineState.OWNED, LineState.MODIFIED)


#: Small-int state codes, in declaration order (INVALID is 0).  The
#: vectorized cache's state array and the directory's packed line
#: entries both store them.
STATE_OF = tuple(LineState)
CODE_OF = {state: code for code, state in enumerate(STATE_OF)}


class Protocol(Enum):
    """Invalidation-based protocol families the substrate supports.

    All of them guarantee what Kona needs — the home agent observes
    every fill and eventually every dirty writeback — but they differ
    in *when*: MSI upgrades are always visible (no silent E->M), while
    MOESI defers dirty writebacks through the OWNED state.
    """

    MSI = "msi"
    MESI = "mesi"
    MOESI = "moesi"

    @property
    def has_exclusive(self) -> bool:
        """Whether a sole reader fills in E (silent-upgrade capable)."""
        return self is not Protocol.MSI

    @property
    def has_owned(self) -> bool:
        """Whether dirty sharing defers the home writeback."""
        return self is Protocol.MOESI


class MessageType(Enum):
    """Coherence request/response messages between agent and directory."""

    GET_S = auto()      # read miss: request shared copy
    GET_M = auto()      # write miss/upgrade: request exclusive ownership
    PUT_M = auto()      # eviction of a modified line: dirty writeback
    PUT_E = auto()      # eviction of a clean exclusive line (silent-able)
    INV = auto()        # directory -> agent invalidation
    SNOOP = auto()      # directory -> agent: forward current data
    DATA = auto()       # data response
    ACK = auto()


@dataclass(frozen=True)
class CoherenceMessage:
    """One protocol message concerning a single cache line."""

    mtype: MessageType
    line_addr: int          # byte address of the line's first byte
    agent_id: int = 0       # requesting/target caching agent


class EventKind(Enum):
    """Directory-observable events — the raw material of Kona's primitives.

    * ``FILL`` — the directory served a line to a CPU cache.  This is the
      trigger for the ``cache-remote-data`` primitive: if the line's page
      is not in FMem, fetch it from the memory node.
    * ``DIRTY_WRITEBACK`` — a modified line left the CPU caches and
      reached the directory.  This is the ``track-local-data`` primitive:
      set the line's bit in the dirty bitmap.
    * ``UPGRADE`` — a shared line was upgraded to modified; the directory
      learns the line *will* be dirtied (useful for eager policies).
    * ``SNOOPED`` — the directory pulled a modified line out of the CPU
      cache (eviction path needs latest data, paper section 4.4).
    """

    FILL = auto()
    DIRTY_WRITEBACK = auto()
    UPGRADE = auto()
    SNOOPED = auto()


@dataclass(frozen=True)
class CoherenceEvent:
    """An event the directory exposes to observers (the Kona runtime)."""

    kind: EventKind
    line_addr: int
    is_write: bool = False
