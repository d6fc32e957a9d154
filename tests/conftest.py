"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro.common.units as u
from repro.coherence.vectorized import VectorizedCoherentCache
from repro.kona import KonaConfig, KonaRuntime


def eviction_state(handler, controller):
    """Eviction-handler-side state that ``runtime_fingerprint`` omits.

    The handler's stats with its account as ordered items (the bucket
    order fixes ``Account.total``), its counters, the pending log and
    the park buffer as per-node lists of remote addresses, the park
    buffer's counters, and each memory node's counters and ring
    counters.  The goldens hash ``runtime_fingerprint``, so
    differential tests compare this beside it.
    """
    def addrs(log):
        return [(node, [r.remote_addr for r in records])
                for node, records in log.items()]

    stats = dict(vars(handler.stats))
    stats["account"] = list(handler.stats.account.as_dict().items())
    return {
        "stats": stats,
        "counters": handler.counters.as_dict(),
        "pending": addrs(handler._pending),
        "parked": addrs(handler.writeback_buffer._parked),
        "park_counters": handler.writeback_buffer.counters.as_dict(),
        "memnodes": [(name, controller.node(name).counters.as_dict(),
                      controller.node(name).log.counters.as_dict())
                     for name in controller.nodes],
    }


@pytest.fixture
def rng():
    """Deterministic RNG for tests."""
    return np.random.default_rng(42)


@pytest.fixture
def front_imports(monkeypatch):
    """Records one entry per CPU-cache import into the vectorized
    front-end (``VectorizedCoherentCache.from_scalar``)."""
    calls = []
    real = VectorizedCoherentCache.from_scalar.__func__

    def counting(cls, cache, home):
        calls.append(1)
        return real(cls, cache, home)
    monkeypatch.setattr(VectorizedCoherentCache, "from_scalar",
                        classmethod(counting))
    return calls


@pytest.fixture
def small_config():
    """A laptop-sized Kona configuration."""
    return KonaConfig(fmem_capacity=4 * u.MB, vfmem_capacity=64 * u.MB,
                      slab_bytes=16 * u.MB)


@pytest.fixture
def runtime(small_config):
    """A fully wired Kona runtime (2 memory nodes)."""
    rt = KonaRuntime(small_config, app_ns_per_access=50.0)
    yield rt
