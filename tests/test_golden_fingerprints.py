"""Golden digests of the scalar oracle.

The differential suites compare every engine, chunking and sharding
mode against the scalar oracle (``run_trace(engine="scalar")``), so a
change that moves the oracle and every engine together passes them
silently.  This module pins the oracle itself: for a handful of fixed
inputs it hashes everything observable after the run (the
``runtime_fingerprint``, the causal ``FaultLog`` aggregate where
capture is on, and the chaos/failover campaign fingerprints) and
compares the SHA-256 digests against ``tests/golden/fingerprints.json``.

Each golden stores the digest of its *input* beside the digest of its
output, so a change to a trace generator reads as an input change
rather than an oracle change.

Goldens change only through the regenerate command, run from the repo
root::

    PYTHONPATH=src python -m tests.test_golden_fingerprints --regenerate

which rewrites the JSON file so the diff shows every moved digest.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

import repro.common.units as u
from repro.experiments.bench import (
    SCALAR,
    RuntimeBenchCase,
    runtime_fingerprint,
)
from repro.kona.config import KonaConfig
from repro.kona.runtime import KonaRuntime
from repro.workloads import WORKLOADS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "fingerprints.json")

HOT_MIX_ACCESSES = 100_000
PAGE_RANK_ACCESSES = 64_000
VOLTDB_ACCESSES = 60_000
STREAM_CHUNK = 8_192
WRITE_STREAM_CHUNK = 16_384
CAMPAIGN_OPS = 12_000


def _canon(obj):
    """A canonical, order-independent form of a fingerprint value."""
    if isinstance(obj, dict):
        return sorted(((repr(_canon(k)), _canon(v)) for k, v in obj.items()),
                      key=lambda kv: kv[0])
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, float):
        return float.hex(obj)
    return obj


def _digest(obj) -> str:
    return hashlib.sha256(repr(_canon(obj)).encode()).hexdigest()


def _array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _hot_mix(n, seed, write_fraction=0.3, cold=0.02, hot_lines=4096,
             region_bytes=64 * u.MB):
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, hot_lines, size=n, dtype=np.int64)
    mask = rng.random(n) < cold
    lines[mask] = rng.integers(hot_lines, region_bytes // u.CACHE_LINE,
                               size=int(mask.sum()), dtype=np.int64)
    return lines * u.CACHE_LINE, rng.random(n) < write_fraction


def _runtime(fmem_mb, protocol="mesi", vfmem_mb=256, **options):
    cfg = KonaConfig(fmem_capacity=fmem_mb * u.MB,
                     vfmem_capacity=vfmem_mb * u.MB,
                     slab_bytes=16 * u.MB, protocol=protocol, **options)
    return KonaRuntime(cfg, app_ns_per_access=70.0)


def _case_hot_mix(fmem_mb=16, **options):
    def run():
        addrs, writes = _hot_mix(HOT_MIX_ACCESSES, seed=1)
        rt = _runtime(fmem_mb=fmem_mb, **options)
        region = rt.mmap(64 * u.MB)
        report = rt.run_trace(addrs + np.int64(region.start), writes,
                              engine="scalar")
        return _array_digest(addrs, writes), runtime_fingerprint(rt, report)
    return run


def _case_model(name, accesses, protocol):
    def run():
        model = WORKLOADS[name]()
        trace = model.generate(windows=2, seed=7)
        n = min(accesses, len(trace))
        addrs = trace.addrs[:n].astype(np.int64)
        writes = trace.writes[:n]
        rt = _runtime(fmem_mb=8, protocol=protocol)
        region = rt.mmap(model.memory_bytes)
        report = rt.run_trace(addrs + np.int64(region.start), writes,
                              engine="scalar")
        return _array_digest(addrs, writes), runtime_fingerprint(rt, report)
    return run


def _case_stream_capture():
    addrs, writes = _hot_mix(2 * STREAM_CHUNK - 1_000, seed=5,
                             write_fraction=0.7, cold=0.4)
    rt = _runtime(fmem_mb=4)
    cap = rt.attach_causal_capture()
    region = rt.mmap(64 * u.MB)
    base = np.int64(region.start)
    chunks = [(addrs[:STREAM_CHUNK] + base, writes[:STREAM_CHUNK]),
              (addrs[STREAM_CHUNK:] + base, writes[STREAM_CHUNK:])]
    report = rt.run_trace_stream(iter(chunks), engine="scalar")
    return (_array_digest(addrs, writes),
            {"runtime": runtime_fingerprint(rt, report),
             "fault_log": cap.log.aggregate()})


def _case_write_stream_capture():
    # The first 65,536 accesses of the bench's write-stream trace: deep
    # enough past the 90% watermark to run ten reclaims, with full-page
    # writes and log flushes in a streamed, capture-on run.
    addrs, writes = _hot_mix(4 * WRITE_STREAM_CHUNK, seed=7,
                             write_fraction=0.5, cold=0.6, hot_lines=4096,
                             region_bytes=256 * u.MB)
    rt = _runtime(fmem_mb=32, vfmem_mb=512)
    cap = rt.attach_causal_capture()
    region = rt.mmap(256 * u.MB)
    base = np.int64(region.start)
    chunks = [(addrs[lo:lo + WRITE_STREAM_CHUNK] + base,
               writes[lo:lo + WRITE_STREAM_CHUNK])
              for lo in range(0, addrs.size, WRITE_STREAM_CHUNK)]
    report = rt.run_trace_stream(iter(chunks), engine="scalar")
    return (_array_digest(addrs, writes),
            {"runtime": runtime_fingerprint(rt, report),
             "fault_log": cap.log.aggregate()})


def _case_bench(case, prefix=None):
    """A runtime bench case replayed on the oracle through the bench's
    own path: ``RuntimeBenchCase.trace()`` input, the untimed warm-up
    sweep, then the first ``prefix`` timed accesses (all by default)."""
    def run():
        warm_addrs, warm_writes, addrs, writes, mem_bytes = case.trace()
        addrs, writes = addrs[:prefix], writes[:prefix]
        replay = case.replay(
            (warm_addrs, warm_writes, addrs, writes, mem_bytes), SCALAR)
        inputs = [a for a in (warm_addrs, warm_writes, addrs, writes)
                  if a is not None]
        return _array_digest(*inputs), replay.fingerprint
    return run


def _case_chaos():
    from repro.experiments.chaos import chaos_stream, run_chaos
    addrs, writes = chaos_stream(0, CAMPAIGN_OPS, 0)
    result = run_chaos(seed=0, ops=CAMPAIGN_OPS)
    return _array_digest(addrs, writes), result.fingerprint()


def _case_failover():
    from repro.experiments.chaos import chaos_stream
    from repro.experiments.failover import run_failover
    addrs, writes = chaos_stream(0, CAMPAIGN_OPS, 0)
    result = run_failover(seed=0, ops=CAMPAIGN_OPS)
    return _array_digest(addrs, writes), result.fingerprint()


CASES = {
    "hot-mix-mesi": _case_hot_mix(),
    # FMem paths no other golden reaches, on a 1 MB FMem where fills
    # evict and watermark reclaims run: prefetch fills reorder FMem's
    # LRU, and 8 KiB pages change the line-to-page shift.
    "hot-mix-1mb-next-page-prefetch": _case_hot_mix(
        fmem_mb=1, prefetch_policy="next-page"),
    "hot-mix-1mb-8k-pages": _case_hot_mix(fmem_mb=1, page_size=8 * u.KB),
    "page-rank-8mb-msi": _case_model("page-rank", PAGE_RANK_ACCESSES, "msi"),
    "page-rank-8mb-mesi": _case_model("page-rank", PAGE_RANK_ACCESSES,
                                      "mesi"),
    "page-rank-8mb-moesi": _case_model("page-rank", PAGE_RANK_ACCESSES,
                                       "moesi"),
    # The quick runtime bench case's shape: its 4-window trace starts
    # with the same 60k accesses as this 2-window one.
    "voltdb-tpcc-8mb-mesi": _case_model("voltdb-tpcc", VOLTDB_ACCESSES,
                                        "mesi"),
    "hot-mix-stream-2chunk-write-capture": _case_stream_capture,
    "write-stream-32mb-capture": _case_write_stream_capture,
    # The quick runtime bench's miss-heavy case, whole.
    "page-rank-miss": _case_bench(
        RuntimeBenchCase("page-rank", 150_000, fmem_mb=8)),
    # The full bench's 4M hot-mix scale point: warm-up sweep, then the
    # first 262,144 timed accesses.
    "hot-mix-4m-prefix-262144": _case_bench(
        RuntimeBenchCase("hot-mix", 4_000_000, label="hot-mix-4m"),
        prefix=262_144),
    "chaos-campaign": _case_chaos,
    "memnode-failover-campaign": _case_failover,
}


def compute(name):
    """``{"input": digest, "output": digest}`` for one golden case."""
    input_digest, output = CASES[name]()
    return {"input": input_digest, "output": _digest(output)}


def _load():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_oracle_matches_golden(name):
    golden = _load()[name]
    got = compute(name)
    assert got["input"] == golden["input"], (
        f"{name}: the input generator changed, not the oracle; "
        "regenerate the goldens only if that change is intended")
    assert got["output"] == golden["output"], (
        f"{name}: the scalar oracle's observable output moved")


def test_every_case_has_a_golden():
    assert sorted(_load()) == sorted(CASES)


def main(argv):
    if argv != ["--regenerate"]:
        print(__doc__)
        return 2
    goldens = {name: compute(name) for name in sorted(CASES)}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(goldens)} goldens to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
