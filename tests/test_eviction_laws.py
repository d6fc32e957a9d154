"""Kona's laws checked against the trace alone.

Both engines run the same eviction body and the same FMem, so the
engine differential suites cannot see a line that body loses or a
page FMem fetches twice.  These laws can: their expected values come
from the trace, with numpy, and what they compare against is watched
where it lands, at the memory nodes.

* **track-local-data.**  The lines that delivered log records carry,
  together with the lines of pages written whole, cover every distinct
  written line; and every logged line was written.
* **copy-dirty-data.**  With one replica, ``wire_bytes`` is
  ``RECORD_BYTES`` per record delivered plus a page per page written
  whole.
* **cache-remote-data.**  With no prefetcher and an FMem that holds
  every touched page below the reclaim watermark, remote fetches and
  FMem fills both equal the distinct pages touched.  A read-only trace
  delivers no record and no page.
* **Time.**  ``elapsed_ns`` is at least the accesses times the
  application's time per access.

The trace is a write-heavy hot-mix in the shape of the
``write-stream-32mb-capture`` golden.  A second leg keeps one primary
unreachable from the second chunk to the end of the stream: its lines
park, and must arrive through ``drain_recovered``.  The fetch laws
replay the same mix over a region half FMem's size.
"""

import numpy as np
import pytest

import repro.common.units as u
from repro.cluster.memnode import MemoryNode
from repro.kona.config import KonaConfig
from repro.kona.runtime import KonaRuntime
from repro.net.ring import RECORD_BYTES

from .test_golden_fingerprints import WRITE_STREAM_CHUNK, _hot_mix

ENGINES = ("batched", "scalar")

#: The memory nodes' log receiver, before any watcher wraps it.
DRAIN_LOG = MemoryNode.drain_log


def write_mix(region_bytes):
    return _hot_mix(4 * WRITE_STREAM_CHUNK, seed=7, write_fraction=0.5,
                    cold=0.6, hot_lines=4096, region_bytes=region_bytes)


@pytest.fixture(scope="module")
def trace():
    return write_mix(256 * u.MB)


def replay(engine, addrs, writes, monkeypatch, fail_after_first=False,
           region_bytes=256 * u.MB):
    """Stream the trace through ``engine`` over a 32 MB FMem, flush,
    and recover a node failed mid-stream; returns the runtime, the
    stream's report, the region base, the ``(node, remote line)`` pairs
    the memory nodes' receivers scattered, and the VFMem pages the
    handler wrote whole or, finding no live copy, parked as 64 line
    records."""
    rt = KonaRuntime(KonaConfig(fmem_capacity=32 * u.MB,
                                vfmem_capacity=512 * u.MB,
                                slab_bytes=16 * u.MB), app_ns_per_access=70.0)
    rt.attach_causal_capture()
    base = rt.mmap(region_bytes).start
    delivered, whole, parked_whole = set(), [], []
    # The receivers' store_payloads hook keeps each scattered line; the
    # watcher moves them out before a recovery can wipe them.
    def watched_drain(node, store_payloads=False):
        receipt = DRAIN_LOG(node, store_payloads=True)
        delivered.update((node.name, addr) for addr in node._lines)
        node._lines.clear()
        return receipt

    monkeypatch.setattr(MemoryNode, "drain_log", watched_drain)
    handler = rt.eviction
    write_full_page = handler._write_full_page

    def watched_page(page_addr):
        parked = handler.parked_records
        cost = write_full_page(page_addr)
        (whole if handler.parked_records == parked
         else parked_whole).append(page_addr)
        return cost

    handler._write_full_page = watched_page
    dead = rt.translation.resolve(base).node

    def chunks():
        for lo in range(0, addrs.size, WRITE_STREAM_CHUNK):
            if fail_after_first and lo == WRITE_STREAM_CHUNK:
                rt.fabric.fail_node(dead)
            yield (addrs[lo:lo + WRITE_STREAM_CHUNK] + np.int64(base),
                   writes[lo:lo + WRITE_STREAM_CHUNK])

    report = rt.run_trace_stream(chunks(), engine=engine)
    rt.flush()
    if fail_after_first:
        assert handler.parked_records > 0
        rt.fabric.recover_node(dead)
        rt.recover()
        assert handler.counters["lines_redelivered"] > 0
    assert handler.parked_records == 0 and handler.pending_records == 0
    return rt, report, base, delivered, whole, parked_whole


def vfmem_lines(rt, delivered):
    """Map delivered ``(node, remote line)`` pairs back to VFMem lines
    through the windows' primaries."""
    slab = rt.config.slab_bytes
    window_at = {}
    for vf_addr in rt.resource_manager._windows:
        loc = rt.translation.resolve(vf_addr)
        assert loc.remote_addr % slab == 0
        window_at[(loc.node, loc.remote_addr)] = vf_addr
    return np.array(sorted(window_at[(node, addr - addr % slab)]
                           + addr % slab for node, addr in delivered),
                    dtype=np.int64)


def lines_of(pages, page):
    pages = np.asarray(pages, dtype=np.int64)
    return (pages[:, None]
            + np.arange(0, page, u.CACHE_LINE, dtype=np.int64)).ravel()


def check_laws(rt, base, addrs, writes, delivered, whole, parked_whole):
    line, page = u.CACHE_LINE, rt.config.page_size
    written = np.unique((addrs[writes] + base) // line * line)
    logged = vfmem_lines(rt, delivered)
    # track-local-data; a page parked whole is logged whole, written
    # lines or not.
    lost = np.setdiff1d(written, np.union1d(logged, lines_of(whole, page)))
    assert lost.size == 0, f"{lost.size} written lines never delivered"
    unwritten = np.setdiff1d(
        logged, np.union1d(written, lines_of(parked_whole, page)))
    assert unwritten.size == 0, f"{unwritten.size} unwritten lines logged"
    # copy-dirty-data
    records = sum(rt.controller.node(name).counters["records_scattered"]
                  for name in rt.controller.nodes)
    assert rt.eviction.stats.wire_bytes \
        == RECORD_BYTES * records + page * len(whole)
    return logged.size


@pytest.mark.parametrize("fail_after_first", [False, True],
                         ids=["healthy", "primary-down-to-the-end"])
def test_eviction_laws_hold_on_both_engines(trace, monkeypatch,
                                            fail_after_first):
    addrs, writes = trace
    seen = {}
    for engine in ENGINES:
        rt, report, base, *seen[engine] = replay(engine, addrs, writes,
                                                 monkeypatch,
                                                 fail_after_first)
        assert check_laws(rt, base, addrs, writes, *seen[engine]) > 0
        # Time
        assert report.elapsed_ns >= addrs.size * rt.app_ns_per_access
        # The hot pages, the ones dirty enough to ship whole, live in
        # the first window: with its primary down they park instead.
        assert seen[engine][2 if fail_after_first else 1]
    assert seen["batched"] == seen["scalar"]


@pytest.mark.parametrize("read_only", [False, True],
                         ids=["mixed", "read-only"])
def test_fetch_and_time_laws_hold_on_both_engines(monkeypatch, read_only):
    # A 16 MB region on the 32 MB FMem: every touched page stays
    # resident, at under half of FMem's frames, until ``flush``.
    addrs, writes = write_mix(16 * u.MB)
    if read_only:
        writes = np.zeros_like(writes)
    for engine in ENGINES:
        rt, report, base, delivered, whole, parked_whole = replay(
            engine, addrs, writes, monkeypatch, region_bytes=16 * u.MB)
        pages = np.unique((addrs + base) // rt.config.page_size).size
        # cache-remote-data
        assert rt.agent.counters["remote_fetches"] == pages
        assert rt.fmem.counters["fills"] == pages
        # Time
        assert report.elapsed_ns >= addrs.size * rt.app_ns_per_access
        if read_only:
            assert not delivered and not whole and not parked_whole
            assert rt.eviction.stats.wire_bytes == 0
        else:
            assert check_laws(rt, base, addrs, writes, delivered, whole,
                              parked_whole) > 0
