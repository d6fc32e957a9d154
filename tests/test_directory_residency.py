"""The packed directory holds exactly the lines the CPU cache holds.

INVALID lines are absent from ``Directory._entries``, and with one
caching agent every other state means the CPU cache holds the line.
So after any run the directory's key set equals the set of tracked
lines resident in the CPU cache, and the directory never grows past
the CPU cache's line count however long the trace is.  Codes outside
the fused lane's four single-agent codes take the generic transitions.
"""

import numpy as np
import pytest

import repro.common.units as u
from repro.common.errors import CoherenceError
from repro.coherence.directory import (MAX_AGENT_ID, SHARER_SHIFT,
                                      STATE_MASK, Directory)
from repro.coherence.states import CODE_OF, LineState, Protocol
from repro.experiments.bench import runtime_fingerprint
from repro.kona.config import KonaConfig
from repro.kona.runtime import KonaRuntime
from repro.mem.address import AddressRange

REGION = 32 * u.MB


def miss_heavy_trace(n, seed, hot_lines=256, cold=0.8, write_frac=0.4):
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, hot_lines, size=n, dtype=np.int64)
    mask = rng.random(n) < cold
    lines[mask] = rng.integers(hot_lines, REGION // u.CACHE_LINE,
                               size=int(mask.sum()), dtype=np.int64)
    return lines * u.CACHE_LINE, rng.random(n) < write_frac


def resident_lines(rt):
    return {line for lines in rt.cpu_cache._sets for line in lines}


@pytest.mark.parametrize("streamed", [False, True],
                         ids=["run_trace", "run_trace_stream"])
@pytest.mark.parametrize("engine", ["batched", "scalar"])
@pytest.mark.parametrize("protocol", ["msi", "mesi", "moesi"])
def test_directory_keys_equal_cpu_cache_residency(protocol, engine,
                                                  streamed):
    # A 256 KB CPU cache (4096 lines) under a 20k-access trace touching
    # ~16k distinct lines: the directory would outgrow the cache if it
    # kept INVALID lines.
    rt = KonaRuntime(KonaConfig(fmem_capacity=1 * u.MB,
                                vfmem_capacity=64 * u.MB,
                                slab_bytes=16 * u.MB, protocol=protocol),
                     cpu_cache_capacity=256 * u.KB, app_ns_per_access=70.0)
    region = rt.mmap(REGION)
    addrs, writes = miss_heavy_trace(20_000, seed=3)
    addrs = addrs + np.int64(region.start)
    if streamed:
        cuts = [0, 4096, 12_288, addrs.size]
        rt.run_trace_stream(((addrs[a:b], writes[a:b])
                             for a, b in zip(cuts, cuts[1:])),
                            engine=engine)
    else:
        rt.run_trace(addrs, writes, engine=engine)
    entries = rt.agent.directory._entries
    assert set(entries) == resident_lines(rt)
    capacity = rt.cpu_cache.num_sets * rt.cpu_cache.ways
    assert len(entries) <= capacity < len(np.unique(addrs))


@pytest.mark.parametrize("agent_id", [-1, MAX_AGENT_ID + 1, 1 << 20])
def test_register_agent_rejects_ids_the_format_cannot_hold(agent_id):
    d = Directory(AddressRange(0, 1 * u.MB), Protocol.MESI)
    with pytest.raises(CoherenceError):
        d.register_agent(agent_id, lambda line: False)
    with pytest.raises(CoherenceError):
        d.get_shared(0, agent_id)


def test_largest_agent_id_round_trips():
    d = Directory(AddressRange(0, 1 * u.MB), Protocol.MOESI)
    d.register_agent(MAX_AGENT_ID, lambda line: False)
    d.register_agent(0, lambda line: False)
    d.get_shared(0, MAX_AGENT_ID)
    d.get_shared(0, 0)
    d.get_modified(64, MAX_AGENT_ID)
    entry = d._entry(0)
    assert entry.sharers == {0, MAX_AGENT_ID}
    assert d._entry(64).owner == MAX_AGENT_ID
    d.put_modified(64, MAX_AGENT_ID)
    d.put_clean(0, 0)
    d.put_clean(0, MAX_AGENT_ID)
    assert d._entries == {}


@pytest.mark.parametrize("protocol", ["msi", "mesi", "moesi"])
def test_foreign_sharers_take_the_generic_paths(protocol):
    # Codes outside the fused lane's four single-agent codes: a sharer
    # only the directory knows of, on resident SHARED lines and on lines
    # the trace will miss on.  Misses, victims and upgrades of those
    # lines must route to the generic transitions, like the oracle.
    addrs, writes = miss_heavy_trace(8_000, seed=5)
    foreign = 1 << (SHARER_SHIFT + 7)
    out = {}
    for engine in ("batched", "scalar"):
        rt = KonaRuntime(KonaConfig(fmem_capacity=1 * u.MB,
                                    vfmem_capacity=64 * u.MB,
                                    slab_bytes=16 * u.MB, protocol=protocol),
                         cpu_cache_capacity=256 * u.KB,
                         app_ns_per_access=70.0)
        base = np.int64(rt.mmap(REGION).start)
        rt.run_trace(addrs[:2048] + base, writes[:2048], engine="scalar")
        entries = rt.agent.directory._entries
        for line, code in entries.items():
            if code & STATE_MASK == CODE_OF[LineState.SHARED]:
                entries[line] = code | foreign
        for line in (addrs[4096::7] + base).tolist():
            entries.setdefault(line, CODE_OF[LineState.SHARED] | foreign)
        report = rt.run_trace(addrs[2048:] + base, writes[2048:],
                              engine=engine)
        out[engine] = (runtime_fingerprint(rt, report), dict(entries))
    assert out["batched"] == out["scalar"]
    assert out["scalar"][0]["directory"]["invalidations"] > 0
