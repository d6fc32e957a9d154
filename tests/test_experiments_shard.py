"""Partition-sharded execution: disjoint coverage and determinism."""

import numpy as np
import pytest

from repro.common import units
from repro.common.errors import ConfigError
from repro.experiments.shard import (
    ShardSpec,
    _aligned_chunks,
    make_shards,
    run_shard,
    run_sharded,
    shard_mask,
)
from repro.workloads.trace import generate_hot_mix_stream


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("shard") / "hot.trace")
    generate_hot_mix_stream(path, 60_000, hot_lines=4096,
                            region_bytes=16 * units.MB, seed=13,
                            chunk_size=1 << 13)
    return path


def _specs(trace_dir, num_shards, **kw):
    kw.setdefault("fmem_mb", 4)
    kw.setdefault("vfmem_mb", 32)
    kw.setdefault("chunk_size", 1 << 13)
    return make_shards(trace_dir, num_shards, **kw)


def wide_addrs(seed, page_size):
    """Random uint64 addresses, about half of them at or above 2^63,
    and the edges of both halves of the address space."""
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 1 << 64, 10_000, dtype=np.uint64)
    addrs[:2_500] >>= np.uint64(1)
    addrs[2_500:5_000] |= np.uint64(1 << 63)
    edges = [0, page_size - 1, page_size, (1 << 63) - 1, 1 << 63,
             (1 << 63) + page_size, (1 << 64) - page_size, (1 << 64) - 1]
    addrs[-len(edges):] = edges
    return addrs


class TestPartition:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 5, 7, 8])
    def test_masks_disjoint_and_covering(self, num_shards):
        addrs = wide_addrs(0, units.PAGE_4K)
        owners = np.zeros(addrs.size, dtype=int)
        for shard in range(num_shards):
            owners += shard_mask(addrs, shard, num_shards)
        assert (owners == 1).all()

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 5, 7, 8])
    @pytest.mark.parametrize("page_size", [units.PAGE_4K, 8192, 3 * 4096])
    def test_owner_is_the_page_modulo(self, num_shards, page_size):
        # Power-of-two page sizes and shard counts take the owner by
        # shift and mask on an int64 view; the others divide.  Both
        # must give every address, high ones included, the owner
        # ``page % num_shards`` computed on Python ints.
        addrs = wide_addrs(num_shards, page_size)
        owner = np.array([a // page_size % num_shards
                          for a in addrs.tolist()])
        for shard in range(num_shards):
            assert np.array_equal(
                shard_mask(addrs, shard, num_shards, page_size),
                owner == shard)

    def test_mask_is_page_granular(self):
        # Every line of a 4 KB page belongs to the same shard, so an
        # FMem fetch block never splits across runtimes.
        page = 37 * units.PAGE_4K
        lines = np.arange(page, page + units.PAGE_4K, units.CACHE_LINE,
                          dtype=np.uint64)
        for num_shards in (2, 3, 5):
            masks = [shard_mask(lines, s, num_shards)
                     for s in range(num_shards)]
            assert sum(bool(m.all()) for m in masks) == 1
            assert sum(bool(m.any()) for m in masks) == 1

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            ShardSpec("t", shard=2, num_shards=2)
        with pytest.raises(ConfigError):
            ShardSpec("t", shard=0, num_shards=0)
        with pytest.raises(ConfigError):
            ShardSpec("t", shard=0, num_shards=1, chunk_size=300)


class TestAlignedChunks:
    def test_rechunks_to_cadence_multiples(self):
        rng = np.random.default_rng(1)
        parts = []
        for size in (100, 700, 50, 513, 256, 9):
            parts.append((rng.integers(0, 999, size).astype(np.int64),
                          rng.random(size) < 0.5))
        chunks = list(_aligned_chunks(iter(parts)))
        assert all(a.size % 256 == 0 for a, _ in chunks[:-1])
        total = sum(size for size in (100, 700, 50, 513, 256, 9))
        assert sum(a.size for a, _ in chunks) == total
        # Order preserved: concatenation equals the input stream.
        assert np.array_equal(
            np.concatenate([a for a, _ in chunks]),
            np.concatenate([a for a, _ in parts]))

    def test_aligned_parts_pass_through_as_views(self):
        # With no tail carried, a part's cadence-aligned body is handed
        # on as a slice of the part, not copied.
        rng = np.random.default_rng(2)
        parts = [(rng.integers(0, 999, size).astype(np.int64),
                  rng.random(size) < 0.5) for size in (512, 256, 700)]
        chunks = list(_aligned_chunks(iter(parts)))
        assert [a.size for a, _ in chunks] == [512, 256, 512, 188]
        for (addrs, writes), (part_a, part_w) in zip(chunks, parts):
            assert np.shares_memory(addrs, part_a)
            assert np.shares_memory(writes, part_w)

    def test_tail_carried_across_parts_keeps_order_and_total(self):
        # Parts smaller than the cadence, empty ones among them: the
        # tail grows across several parts before a chunk is emitted.
        rng = np.random.default_rng(3)
        sizes = [100, 0, 50, 30, 90, 7, 300, 0, 255, 1, 40, 600, 3]
        parts = [(rng.integers(0, 1 << 40, size).astype(np.int64),
                  rng.random(size) < 0.5) for size in sizes]
        chunks = list(_aligned_chunks(iter(parts)))
        assert all(a.size % 256 == 0 for a, _ in chunks[:-1])
        assert all(a.size == w.size for a, w in chunks)
        assert sum(a.size for a, _ in chunks) == sum(sizes)
        for column in (0, 1):
            assert np.array_equal(
                np.concatenate([c[column] for c in chunks]),
                np.concatenate([p[column] for p in parts]))


class TestShardedRun:
    def test_coverage_invariant(self, trace_dir):
        result = run_sharded(_specs(trace_dir, 3), processes=1)
        assert result.accesses == 60_000
        assert sum(o.accesses for o in result.outcomes) == 60_000
        assert result.totals["shard_accesses"] == 60_000

    def test_serial_equals_parallel(self, trace_dir):
        serial = run_sharded(_specs(trace_dir, 2), processes=1)
        parallel = run_sharded(_specs(trace_dir, 2), processes=2)
        assert serial.totals.as_dict() == parallel.totals.as_dict()
        assert [o.accesses for o in serial.outcomes] \
            == [o.accesses for o in parallel.outcomes]
        assert [o.elapsed_ns for o in serial.outcomes] \
            == [o.elapsed_ns for o in parallel.outcomes]

    def test_single_shard_runs(self, trace_dir):
        outcome = run_shard(_specs(trace_dir, 1)[0])
        assert outcome.accesses == 60_000
        assert outcome.elapsed_ns > 0

    def test_elapsed_is_slowest_shard(self, trace_dir):
        result = run_sharded(_specs(trace_dir, 2), processes=1)
        assert result.elapsed_ns \
            == max(o.elapsed_ns for o in result.outcomes)

    def test_rejects_mixed_or_duplicate_specs(self, trace_dir):
        specs = _specs(trace_dir, 2)
        with pytest.raises(ConfigError):
            run_sharded([])
        with pytest.raises(ConfigError):
            run_sharded([specs[0], specs[0]])

    def test_engines_agree(self, trace_dir):
        spec_b = _specs(trace_dir, 2)[0]
        spec_s = ShardSpec(trace_path=spec_b.trace_path, shard=0,
                           num_shards=2, engine="scalar",
                           chunk_size=spec_b.chunk_size,
                           fmem_mb=spec_b.fmem_mb,
                           vfmem_mb=spec_b.vfmem_mb)
        batched = run_shard(spec_b)
        scalar = run_shard(spec_s)
        assert batched.accesses == scalar.accesses
        assert batched.elapsed_ns == scalar.elapsed_ns
        assert batched.remote_fetches == scalar.remote_fetches
        assert batched.counters.as_dict() == scalar.counters.as_dict()
