"""Tests for the key-value store built on the public API."""

import pytest

import repro.common.units as u
from repro.apps import RemoteKVStore
from repro.common.errors import AllocationError, ConfigError
from repro.kona import KonaConfig, KonaRuntime


@pytest.fixture
def app_runtime():
    config = KonaConfig(fmem_capacity=8 * u.MB, vfmem_capacity=64 * u.MB,
                        slab_bytes=16 * u.MB)
    return KonaRuntime(config)


class TestKVStore:
    def test_put_get_roundtrip(self, app_runtime):
        store = RemoteKVStore(app_runtime, capacity=256)
        store.put("alpha", b"one")
        store.put("beta", b"two")
        assert store.get("alpha") == b"one"
        assert store.get("beta") == b"two"
        assert len(store) == 2

    def test_update_overwrites(self, app_runtime):
        store = RemoteKVStore(app_runtime, capacity=256)
        store.put("k", b"v1")
        store.put("k", b"v2")
        assert store.get("k") == b"v2"
        assert len(store) == 1

    def test_missing_key(self, app_runtime):
        store = RemoteKVStore(app_runtime, capacity=256)
        assert store.get("ghost") is None
        assert store.stats.misses == 1

    def test_delete_and_backward_shift(self, app_runtime):
        store = RemoteKVStore(app_runtime, capacity=64)
        keys = [f"key-{i}" for i in range(20)]
        for key in keys:
            store.put(key, key.encode())
        assert store.delete("key-7")
        assert store.get("key-7") is None
        # Every other key still reachable despite probe-chain shifts.
        for key in keys:
            if key != "key-7":
                assert store.get(key) == key.encode()

    def test_delete_missing_returns_false(self, app_runtime):
        store = RemoteKVStore(app_runtime, capacity=64)
        assert not store.delete("nothing")

    def test_collisions_probe_remotely(self, app_runtime):
        store = RemoteKVStore(app_runtime, capacity=16)
        # Deterministically find three keys that hash to the same slot.
        target = RemoteKVStore._hash("seed") & 15
        colliders = [k for k in (f"k{i}" for i in range(5000))
                     if RemoteKVStore._hash(k) & 15 == target][:3]
        assert len(colliders) == 3
        for key in colliders:
            store.put(key, b"x")
        assert store.stats.probes > len(colliders)   # probing happened
        for key in colliders:
            assert store.get(key) == b"x"

    def test_table_full(self, app_runtime):
        store = RemoteKVStore(app_runtime, capacity=4)
        for i in range(4):
            store.put(f"k{i}", b"x")
        with pytest.raises(AllocationError):
            store.put("overflow", b"x")

    def test_remote_traffic_happens(self, app_runtime):
        store = RemoteKVStore(app_runtime, capacity=256)
        for i in range(64):
            store.put(f"key-{i}", bytes(100))
        assert store.stats.stall_ns > 0
        assert app_runtime.agent.counters["remote_fetches"] > 0
        # And the dirty data is being tracked at line granularity.
        app_runtime.cpu_cache.flush_tracked()
        assert app_runtime.tracker.dirty_bytes_cacheline() > 0

    def test_invalid_capacity(self, app_runtime):
        with pytest.raises(ConfigError):
            RemoteKVStore(app_runtime, capacity=100)

