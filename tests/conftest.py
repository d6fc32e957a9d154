"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro.common.units as u
from repro.coherence.vectorized import VectorizedCoherentCache
from repro.kona import KonaConfig, KonaRuntime


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
