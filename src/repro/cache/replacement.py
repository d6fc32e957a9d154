"""Replacement policies for set-associative caches.

Each policy manages victim selection within a single cache set.  The
scalar set-associative cache keeps one policy state object per set;
keeping the policy pluggable lets KCacheSim compare LRU against FIFO
and random replacement (``LevelSpec.policy``).
"""

from __future__ import annotations

from typing import List, Optional, Protocol

import numpy as np

from ..common.errors import ConfigError


class ReplacementPolicy(Protocol):
    """Victim-selection state for one cache set."""

    def touch(self, tag: int) -> None:
        """Record a hit on ``tag``."""

    def insert(self, tag: int) -> None:
        """Record a fill of ``tag`` (tag is not currently resident)."""

    def evict(self) -> int:
        """Choose and remove the victim tag."""

    def __len__(self) -> int: ...


class LRUPolicy:
    """Least-recently-used, the default for every level."""

    __slots__ = ("_order",)

    def __init__(self) -> None:
        self._order: List[int] = []   # least-recent first

    def touch(self, tag: int) -> None:
        order = self._order
        if order[-1] != tag:        # already most-recent: nothing to move
            order.remove(tag)
            order.append(tag)

    def insert(self, tag: int) -> None:
        self._order.append(tag)

    def evict(self) -> int:
        return self._order.pop(0)

    def __len__(self) -> int:
        return len(self._order)


class FIFOPolicy:
    """First-in-first-out: insertion order, no hit promotion."""

    __slots__ = ("_order",)

    def __init__(self) -> None:
        self._order: List[int] = []

    def touch(self, tag: int) -> None:
        pass  # FIFO ignores hits

    def insert(self, tag: int) -> None:
        self._order.append(tag)

    def evict(self) -> int:
        return self._order.pop(0)

    def __len__(self) -> int:
        return len(self._order)


class RandomPolicy:
    """Uniform random victim selection (seeded for determinism)."""

    __slots__ = ("_tags", "_rng")

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        self._tags: List[int] = []
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def touch(self, tag: int) -> None:
        pass

    def insert(self, tag: int) -> None:
        self._tags.append(tag)

    def evict(self) -> int:
        idx = int(self._rng.integers(len(self._tags)))
        return self._tags.pop(idx)

    def __len__(self) -> int:
        return len(self._tags)


_FACTORIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``lru``/``fifo``/``random``)."""
    try:
        return _FACTORIES[name.lower()]()
    except KeyError:
        raise ConfigError(
            f"unknown replacement policy {name!r}; "
            f"choose from {sorted(_FACTORIES)}") from None
