"""Tests for the vectorized CPU coherent-cache front-end.

The ndarray mirror must be interconvertible with the ordered-dict
cache (import/export roundtrip) and behave identically under directory
traffic, including multi-agent invalidations and MOESI downgrades.
"""

import numpy as np
import pytest

import repro.common.units as u
from repro.coherence.agent import CoherentCache
from repro.coherence.directory import Directory
from repro.coherence.states import LineState, Protocol
from repro.coherence.vectorized import _WRITABLE, VectorizedCoherentCache
from repro.common.errors import CoherenceError
from repro.mem.address import AddressRange

HOME = AddressRange(0, 4 * u.MB)
CAPACITY = 16 * u.KB
WAYS = 2


def make_pair(protocol=Protocol.MESI):
    """A directory plus one scalar cache registered with it."""
    directory = Directory(HOME, protocol=protocol)
    resolver = lambda addr: directory  # noqa: E731
    cache = CoherentCache(1, resolver, capacity=CAPACITY, ways=WAYS,
                          protocol=protocol)
    cache.attach(directory)
    return directory, cache


def drive(cache, rng, ops, lines=1024):
    for _ in range(ops):
        addr = int(rng.integers(0, lines)) * u.CACHE_LINE
        cache.access(addr, bool(rng.random() < 0.4))


def set_contents(cache):
    return [list(s.items()) for s in cache._sets]


class TestRoundtrip:
    def test_import_export_identity(self):
        _, cache = make_pair()
        drive(cache, np.random.default_rng(0), 3000)
        before = set_contents(cache)
        vec = VectorizedCoherentCache.from_scalar(cache, HOME)
        vec.export_to(cache)
        assert set_contents(cache) == before
        assert vec.occupancy == sum(len(s) for s in cache._sets)

    def test_export_preserves_lru_order(self):
        _, cache = make_pair()
        # One set: touch three lines, re-touch the first so LRU order
        # is (b, a); the dict's insertion order must survive.
        stride = cache.num_sets * u.CACHE_LINE
        cache.access(0, False)
        cache.access(stride, False)
        cache.access(0, True)
        vec = VectorizedCoherentCache.from_scalar(cache, HOME)
        vec.export_to(cache)
        (keys,) = [list(s) for s in cache._sets if s]
        assert keys == [stride, 0]

    def test_empty_cache_roundtrip(self):
        _, cache = make_pair()
        vec = VectorizedCoherentCache.from_scalar(cache, HOME)
        vec.export_to(cache)
        assert all(not s for s in cache._sets)

    def test_geometry_mismatch_rejected(self):
        _, cache = make_pair()
        vec = VectorizedCoherentCache.from_scalar(cache, HOME)
        resolver = lambda addr: None  # noqa: E731
        other = CoherentCache(1, resolver, capacity=2 * CAPACITY, ways=WAYS)
        with pytest.raises(CoherenceError):
            vec.export_to(other)


class TestScalarParity:
    """front.access must be indistinguishable from CoherentCache.access."""

    @pytest.mark.parametrize("protocol", [Protocol.MESI, Protocol.MOESI])
    def test_single_agent_random_stream(self, protocol):
        _, scalar = make_pair(protocol)
        dir2, twin = make_pair(protocol)
        vec = VectorizedCoherentCache.from_scalar(twin, HOME)
        vec.attach(dir2)
        rng_a, rng_b = (np.random.default_rng(7) for _ in range(2))
        for _ in range(4000):
            addr = int(rng_a.integers(0, 2048)) * u.CACHE_LINE
            w = bool(rng_a.random() < 0.4)
            assert scalar.access(addr, w) == vec.access(
                int(rng_b.integers(0, 2048)) * u.CACHE_LINE,
                bool(rng_b.random() < 0.4))
        vec.export_to(twin)
        assert set_contents(twin) == set_contents(scalar)
        assert vec.counters.as_dict() == scalar.counters.as_dict()

    @pytest.mark.parametrize("protocol", [Protocol.MESI, Protocol.MOESI])
    def test_two_agents_share_and_snoop(self, protocol):
        # Reference world: two dict caches.  Mirror world: the first
        # agent runs on arrays, the second stays a dict cache.
        worlds = []
        for vectorize in (False, True):
            directory = Directory(HOME, protocol=protocol)
            resolver = lambda addr, d=directory: d  # noqa: E731
            a = CoherentCache(1, resolver, capacity=CAPACITY, ways=WAYS,
                              protocol=protocol)
            a.attach(directory)
            b = CoherentCache(2, resolver, capacity=CAPACITY, ways=WAYS,
                              protocol=protocol)
            b.attach(directory)
            if vectorize:
                front = VectorizedCoherentCache.from_scalar(a, HOME)
                front.attach(directory)
            else:
                front = a
            rng = np.random.default_rng(13)
            for _ in range(6000):
                agent = front if rng.random() < 0.5 else b
                addr = int(rng.integers(0, 512)) * u.CACHE_LINE
                agent.access(addr, bool(rng.random() < 0.5))
            if vectorize:
                front.export_to(a)
            worlds.append((set_contents(a), set_contents(b),
                           directory.counters.as_dict(),
                           a.counters.as_dict()))
        assert worlds[0] == worlds[1]


class TestMutationLog:
    def test_snoops_recorded_only_when_enabled(self):
        directory = Directory(HOME)
        resolver = lambda addr: directory  # noqa: E731
        a = CoherentCache(1, resolver, capacity=CAPACITY, ways=WAYS)
        a.attach(directory)
        a.access(0, True)           # MODIFIED in agent 1
        a.access(u.CACHE_LINE, False)
        front = VectorizedCoherentCache.from_scalar(a, HOME)
        front.attach(directory)
        b = CoherentCache(2, resolver, capacity=CAPACITY, ways=WAYS)
        b.attach(directory)
        b.access(0, True)           # invalidates agent 1's copy
        assert front.take_mutations() == []   # recording off by default
        front.record_mutations = True
        b.access(u.CACHE_LINE, True)
        log = front.take_mutations()
        assert len(log) == 1
        assert front.state_of(u.CACHE_LINE) is LineState.INVALID
        assert front.take_mutations() == []   # drained

    def test_moesi_downgrade_keeps_line_resident(self):
        directory = Directory(HOME, protocol=Protocol.MOESI)
        resolver = lambda addr: directory  # noqa: E731
        a = CoherentCache(1, resolver, capacity=CAPACITY, ways=WAYS,
                          protocol=Protocol.MOESI)
        a.attach(directory)
        a.access(0, True)
        front = VectorizedCoherentCache.from_scalar(a, HOME)
        front.attach(directory)
        b = CoherentCache(2, resolver, capacity=CAPACITY, ways=WAYS,
                          protocol=Protocol.MOESI)
        b.attach(directory)
        b.access(0, False)          # MOESI: owner demotes M -> O
        assert front.state_of(0) is LineState.OWNED


def reference_classify(vec, tags, writes):
    """The 16-way row compare ``classify`` used before the way index.

    Gathers each access's whole set of tags and compares them; kept
    here as the reference the one-byte index must agree with.
    """
    sidx = (tags & vec._set_mask).astype(np.intp)
    hit_ways = vec._tags.reshape(-1, vec.ways)[sidx] == tags[:, None]
    resident = hit_ways.any(axis=1)
    flat = sidx * vec.ways + hit_ways.argmax(axis=1)
    pure = resident & (~writes | _WRITABLE[vec._state[flat]])
    return pure, resident, flat


def check_index(vec):
    """Each resident slot's index entry is its way + 1; no other is set."""
    slots = np.flatnonzero(vec._tags != -1)
    entries = vec._way[vec._tags[slots] - vec._tag0]
    assert (entries == slots % vec.ways + 1).all()
    assert np.count_nonzero(vec._way) == slots.size == vec.occupancy


class TestWayIndex:
    """The one-byte way index against the tag array it summarizes."""

    # A home that does not start at 0, so every lookup subtracts tag0.
    OFF_HOME = AddressRange(u.MB, 4 * u.MB)

    @pytest.mark.parametrize("protocol",
                             [Protocol.MSI, Protocol.MESI, Protocol.MOESI])
    def test_index_and_classify_match_reference(self, protocol):
        home = self.OFF_HOME
        directory = Directory(home, protocol=protocol)
        resolver = lambda addr: directory  # noqa: E731
        a = CoherentCache(1, resolver, capacity=CAPACITY, ways=8,
                          protocol=protocol)
        a.attach(directory)
        b = CoherentCache(2, resolver, capacity=CAPACITY, ways=8,
                          protocol=protocol)
        b.attach(directory)
        rng = np.random.default_rng(list(Protocol).index(protocol))
        lines = 1024

        def step(agent):
            addr = home.start + int(rng.integers(0, lines)) * u.CACHE_LINE
            agent.access(addr, bool(rng.random() < 0.4))
        for _ in range(500):        # warm state for the import
            step(a)
        front = VectorizedCoherentCache.from_scalar(a, home)
        front.attach(directory)
        check_index(front)
        tag0 = home.start // u.CACHE_LINE
        for i in range(3000):
            # Agent b's traffic invalidates and downgrades front lines.
            step(front if rng.random() < 0.6 else b)
            check_index(front)
            if i % 50 == 0:
                tags = tag0 + rng.integers(0, lines, 256).astype(np.int64)
                writes = rng.random(256) < 0.4
                pure, flat = front.classify(tags, writes)
                ref_pure, resident, ref_flat = reference_classify(
                    front, tags, writes)
                assert (pure == ref_pure).all()
                assert (flat[resident] == ref_flat[resident]).all()

    def test_snoop_during_upgrade_finds_line_absent(self):
        directory = Directory(HOME, protocol=Protocol.MSI)
        resolver = lambda addr: directory  # noqa: E731
        a = CoherentCache(1, resolver, capacity=CAPACITY, ways=WAYS,
                          protocol=Protocol.MSI)
        a.attach(directory)
        a.access(0, False)          # MSI read: SHARED, so a write upgrades
        front = VectorizedCoherentCache.from_scalar(a, HOME)
        front.attach(directory)
        seen = []
        real = directory.get_modified

        def snooping(line_addr, agent_id):
            seen.append((front.slot_of(0), front.state_of(0),
                         front._handle_invalidation(line_addr)))
            return real(line_addr, agent_id)
        directory.get_modified = snooping
        assert front.access(0, True)
        assert seen == [(-1, LineState.INVALID, False)]
        assert front.state_of(0) is LineState.MODIFIED
        check_index(front)

    def test_from_scalar_rejects_line_outside_home(self):
        _, cache = make_pair()
        cache.access(0, False)      # below OFF_HOME's start
        with pytest.raises(CoherenceError):
            VectorizedCoherentCache.from_scalar(cache, self.OFF_HOME)
        cache.access(HOME.end - u.CACHE_LINE, False)   # past its end
        with pytest.raises(CoherenceError):
            VectorizedCoherentCache.from_scalar(
                cache, AddressRange(0, HOME.size // 2))

    def test_access_rejects_address_outside_home(self):
        _, cache = make_pair()
        front = VectorizedCoherentCache.from_scalar(cache, self.OFF_HOME)
        for addr in (0, self.OFF_HOME.end):
            with pytest.raises(CoherenceError):
                front.access(addr, False)
        assert front.occupancy == 0 and not front._way.any()

    def test_ways_above_255_rejected(self):
        resolver = lambda addr: None  # noqa: E731
        VectorizedCoherentCache(1, resolver, HOME,
                                capacity=255 * u.CACHE_LINE, ways=255)
        with pytest.raises(CoherenceError):
            VectorizedCoherentCache(1, resolver, HOME,
                                    capacity=256 * u.CACHE_LINE, ways=256)
