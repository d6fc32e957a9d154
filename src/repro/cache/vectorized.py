"""Array-based set-associative cache kernel for bulk trace simulation.

:class:`VectorizedCache` is the fast engine behind
``CacheHierarchy(engine="vectorized")``.  It keeps the whole cache
state in ndarrays — a per-set tag matrix, a dirty bitmap and an age
matrix — and consumes a trace in bulk instead of one dict lookup per
access.  It is *bit-identical* to the scalar
:class:`~repro.cache.setassoc.SetAssociativeCache` oracle for the LRU
and FIFO policies: same hits, misses, evictions, dirty writebacks and
victim choices on any access stream (the differential test suite
asserts exactly this).

How the kernel vectorizes a stateful simulation
-----------------------------------------------

Cache sets are independent: the outcome of an access depends only on
earlier accesses to the *same* set.  The kernel therefore groups a
chunk of the trace by set and assigns each access its per-set
occurrence rank.  All rank-``r`` accesses touch pairwise-distinct sets,
so one "round" — gather the tag rows, compare, pick hit ways or
victims, scatter the fills back — is a handful of NumPy operations over
every set at once.  Processing rounds in ascending rank preserves each
set's program order, which is all the replacement policies can observe.
The number of sequential steps collapses from ``len(trace)`` to
``max accesses per set``, i.e. roughly ``len(trace) / num_sets``.

Two further tricks matter in practice:

* **Run collapsing** — consecutive accesses to the same block are
  guaranteed hits after the first; they are folded into one
  representative access (writes OR-ed together) before the rounds run.
  This is what keeps page-granularity levels (the 4 KB DRAM cache)
  cheap when the miss stream has spatial locality.
* **Radix-friendly sorts** — the grouping sorts use ``uint16`` keys
  whenever the geometry allows, where NumPy's stable sort is a cheap
  radix pass rather than a comparison sort.

Replacement is encoded in the age matrix: each round stamps the lines
it touches with a monotonically increasing round age (a set is touched
at most once per round, so round order *is* per-set access order); LRU
refreshes a block's age on hits while FIFO keeps the fill time, and
the eviction victim is always the minimum age in the set.  Both match
the scalar list-based policies exactly.  The ``random`` policy draws from per-set RNG streams that a
bulk kernel cannot reproduce access-by-access, so it stays
scalar-only.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..common.errors import ConfigError
from ..mem.address import is_power_of_two
from .setassoc import CacheStats, Eviction

#: Tag value marking an empty way (real tags are non-negative blocks).
_EMPTY = -1

#: Padding value for sets with no access in a padded partial round;
#: never equal to a real tag or to ``_EMPTY``.
_NO_ACCESS = -2

#: Accesses processed per kernel invocation; bounds transient memory
#: (a handful of int64 arrays of this length) without changing results.
_CHUNK = 1 << 20

#: Policies the bulk kernel reproduces exactly.
SUPPORTED_POLICIES = ("lru", "fifo")


class VectorizedCache:
    """One cache level stored as ndarrays, driven in bulk.

    Geometry and semantics mirror
    :class:`~repro.cache.setassoc.SetAssociativeCache` (write-back,
    write-allocate, residency + dirtiness only); the representation and
    the access API are built for whole-trace simulation.
    """

    def __init__(self, name: str, capacity: int, block_size: int,
                 ways: int, policy: str = "lru") -> None:
        if capacity <= 0 or block_size <= 0 or ways <= 0:
            raise ConfigError("capacity, block_size and ways must be positive")
        if not is_power_of_two(block_size):
            raise ConfigError(f"block_size {block_size} must be a power of two")
        if capacity % (block_size * ways):
            raise ConfigError(
                f"capacity {capacity} not divisible by block_size*ways "
                f"({block_size}*{ways})")
        num_sets = capacity // (block_size * ways)
        if not is_power_of_two(num_sets):
            raise ConfigError(f"number of sets {num_sets} must be a power of two")
        policy = policy.lower()
        if policy not in SUPPORTED_POLICIES:
            raise ConfigError(
                f"policy {policy!r} is not supported by the vectorized "
                f"engine (choose from {list(SUPPORTED_POLICIES)}, or use "
                f"engine='scalar')")
        self.name = name
        self.capacity = capacity
        self.block_size = block_size
        self.ways = ways
        self.num_sets = num_sets
        self.policy_name = policy
        self.stats = CacheStats()
        self._lru = policy == "lru"
        self._block_shift = block_size.bit_length() - 1
        self._set_mask = num_sets - 1
        self._tags = np.full((num_sets, ways), _EMPTY, dtype=np.int64)
        self._dirty = np.zeros((num_sets, ways), dtype=bool)
        self._age = np.zeros((num_sets, ways), dtype=np.int64)
        self._tags_flat = self._tags.reshape(-1)
        self._dirty_flat = self._dirty.reshape(-1)
        self._age_flat = self._age.reshape(-1)
        self._set_base = np.arange(num_sets, dtype=np.intp) * ways
        self._clock = 0          # accesses observed; source of timestamps
        self._occupied = 0       # resident blocks (enables full-set fast path)

    # -- bulk access path -----------------------------------------------------

    def simulate_batch(self, addrs: np.ndarray,
                       writes: np.ndarray) -> np.ndarray:
        """Access a whole stream; return its boolean miss mask.

        ``addrs`` is a uint64 byte-address array, ``writes`` a matching
        bool array.  Stats and cache state advance exactly as if
        :meth:`access` had been called element by element; the returned
        mask selects the accesses that missed (the stream the next
        level of a hierarchy must consume).
        """
        addrs = np.asarray(addrs, dtype=np.uint64)
        writes = np.asarray(writes, dtype=bool)
        if addrs.shape != writes.shape:
            raise ConfigError("addrs and writes must have identical shape")
        n = addrs.size
        miss = np.empty(n, dtype=bool)
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            miss[lo:hi] = self._kernel(addrs[lo:hi], writes[lo:hi])
        return miss

    def _kernel(self, addrs: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """One chunk of the bulk access path."""
        n = addrs.size
        if n == 0:
            return np.empty(0, dtype=bool)
        # The shift yields a fresh uint64 array of small values; viewing
        # it as int64 is free where an astype would copy.
        block = (addrs >> np.uint64(self._block_shift)).view(np.int64)

        # Run collapsing: a block re-accessed with no intervening access
        # is resident for sure, so only the first access of each run can
        # change state.  OR the run's writes into the representative and
        # give it the run's time slot; relative order between runs (the
        # only thing LRU/FIFO victim choice observes) is unchanged.
        # Collapsing costs a fixed set of whole-chunk passes, so it only
        # runs when enough duplicates exist to shrink the rounds —
        # uncollapsed duplicates are still simulated exactly (as hits).
        rep = None
        m = n
        rblock, rwrites = block, writes
        if n > 1:
            neq = block[1:] != block[:-1]
            runs = n - 1 - int(np.count_nonzero(neq))
            if runs << 4 >= n:
                keep = np.empty(n, dtype=bool)
                keep[0] = True
                keep[1:] = neq
                rep = np.flatnonzero(keep)
                m = n - runs
                rblock = block[rep]
                rwrites = np.logical_or.reduceat(writes, rep)
                self.stats.hits += runs

        # Group by set and assign per-set occurrence ranks.  Rank-r
        # accesses touch pairwise-distinct sets, so each rank is one
        # conflict-free vectorized round; ascending ranks preserve each
        # set's program order.
        num_sets = self.num_sets
        sidx = rblock & self._set_mask
        if num_sets <= 1 << 8:
            order = np.argsort(sidx.astype(np.uint8), kind="stable")
        elif num_sets <= 1 << 16:
            order = np.argsort(sidx.astype(np.uint16), kind="stable")
        else:
            order = np.argsort(sidx, kind="stable")
        counts = np.bincount(sidx, minlength=num_sets)
        cum = np.cumsum(counts)
        starts = cum - counts
        max_rank = int(counts.max())
        full_rounds = int(counts.min())
        aligned_end = full_rounds * num_sets

        # Round-major permutation: sort by (rank, set), where the rank
        # is an element's occurrence index within its set.  Rounds below
        # ``counts.min()`` contain an access in *every* set, so their
        # region of the permutation is just the set-sorted order read
        # column-wise — an arithmetic transpose, no second sort.  Only
        # the trailing partial rounds (ranks >= counts.min()) need a
        # stable rank sort, over their own elements alone.
        if aligned_end:
            idx = starts[None, :] + np.arange(full_rounds)[:, None]
            order2 = order.take(idx.ravel())
        else:
            order2 = order
        if aligned_end < m:
            tail_counts = counts - full_rounds
            tail_total = m - aligned_end
            tcum = np.cumsum(tail_counts)
            offs = np.arange(tail_total) - np.repeat(tcum - tail_counts,
                                                     tail_counts)
            tail_pos = np.repeat(starts + full_rounds, tail_counts) + offs
            if max_rank - full_rounds <= 1 << 16:
                torder = np.argsort(offs.astype(np.uint16), kind="stable")
            else:
                torder = np.argsort(offs, kind="stable")
            tail_order = order.take(tail_pos[torder])
            order2 = (np.concatenate([order2, tail_order]) if aligned_end
                      else tail_order)
        # Round r has one element per set with count > r.
        have = np.bincount(np.minimum(counts, max_rank), minlength=max_rank + 1)
        round_sizes = num_sets - np.cumsum(have[:-1])
        bounds = np.concatenate(([0], np.cumsum(round_sizes))).tolist()

        # Round-major views of the chunk: round r occupies
        # b2[bounds[r]:bounds[r+1]] with strictly increasing set
        # indices.  For rounds below ``counts.min()`` element i of the
        # round slice belongs to set i: those compare against the whole
        # tag matrix directly with zero gather indices (the aligned fast
        # path below); only the partial rounds pay for gathers.
        b2 = rblock[order2]
        w2 = rwrites[order2]
        miss2 = np.empty(m, dtype=bool)
        # Ages are per-*round*, not per-access: a set is touched at most
        # once per round, so the round index orders a set's touches
        # exactly as per-access timestamps would — and a scalar age per
        # round is far cheaper than gathering a timestamp array.  Ages
        # stay below the post-chunk clock, keeping interleaved
        # :meth:`access` calls strictly newer.
        clock0 = self._clock + 1
        if aligned_end < m:
            part = slice(aligned_end, None)
            s2 = (b2[part] & self._set_mask).astype(np.intp)
            base2 = s2 * self.ways
        else:
            s2 = base2 = np.empty(0, dtype=np.intp)

        tags, tags_flat = self._tags, self._tags_flat
        dirty_flat = self._dirty_flat
        age, age_flat = self._age, self._age_flat
        set_base = self._set_base
        lru = self._lru
        occupied = self._occupied
        total_lines = num_sets * self.ways
        hits = misses = evictions = dirty_wbs = 0
        flatnonzero = np.flatnonzero
        count_nonzero = np.count_nonzero
        aligned_end = full_rounds * num_sets

        # Buffers for padded partial rounds: a round covering most sets
        # is cheaper scattered into a full set-indexed row (then treated
        # like an aligned round, no tag-row gathers) than gathered.
        if aligned_end < m:
            b_full = np.empty(num_sets, dtype=np.int64)
            w_full = np.empty(num_sets, dtype=bool)
            act = np.empty(num_sets, dtype=bool)

        # Grouped fast path: up to ``ways`` consecutive aligned rounds
        # where *every* access misses collapse into one dispatch — the
        # victims are each set's G oldest ways in age order (installed
        # lines are always newer than survivors, so later ranks in the
        # group never disturb earlier installs).  Validity is two bulk
        # checks: no access matches a pre-group tag, and no two ranks in
        # the group carry the same block.  ``credits`` turns the attempt
        # off for hit-heavy levels where the check always fails.
        credits = 8
        r = 0
        while r < max_rank:
            aligned = r < full_rounds
            if (aligned and credits > 0 and occupied >= total_lines
                    and full_rounds - r > 1):
                G = min(self.ways, full_rounds - r)
                if G > 1:
                    lo, hi = bounds[r], bounds[r + G]
                    B = b2[lo:hi].reshape(G, num_sets)
                    ok = not (tags == B[:, :, None]).any()
                    if ok:
                        Bs = np.sort(B, axis=0)
                        ok = not (Bs[1:] == Bs[:-1]).any()
                    if ok:
                        vw = np.argsort(age, axis=1)[:, :G]
                        loc = (set_base[:, None] + vw).T.ravel()
                        dirty_wbs += int(count_nonzero(dirty_flat.take(loc)))
                        nmg = G * num_sets
                        evictions += nmg
                        misses += nmg
                        tags_flat[loc] = b2[lo:hi]
                        dirty_flat[loc] = w2[lo:hi]
                        age_flat[loc] = np.repeat(
                            np.arange(clock0 + r, clock0 + r + G), num_sets)
                        miss2[lo:hi] = True
                        credits = min(credits + 1, 64)
                        r += G
                        continue
                    credits -= 1
            lo, hi = bounds[r], bounds[r + 1]
            ts_r = clock0 + r
            r += 1
            b = b2[lo:hi]
            if (not aligned and occupied >= total_lines
                    and 2 * (hi - lo) >= num_sets):
                s = s2[lo - aligned_end:hi - aligned_end]
                w = w2[lo:hi]
                b_full.fill(_NO_ACCESS)
                b_full[s] = b
                w_full[s] = w
                hitm = tags == b_full[:, None]
                hit_any = hitm.any(1)
                hidx = flatnonzero(hit_any)
                nh = hidx.size
                nm = (hi - lo) - nh
                if nh:
                    loc = set_base[hidx] + hitm[hidx].argmax(1)
                    dirty_flat[loc] |= w_full[hidx]
                    if lru:
                        age_flat[loc] = ts_r
                    hits += nh
                act.fill(False)
                act[s] = True
                act[hidx] = False        # per-set miss mask
                miss2[lo:hi] = act[s]
                if nm:
                    midx = flatnonzero(act)
                    loc = set_base[midx] + age.argmin(1)[midx]
                    dirty_wbs += int(count_nonzero(dirty_flat.take(loc)))
                    evictions += nm
                    tags_flat[loc] = b_full[midx]
                    dirty_flat[loc] = w_full[midx]
                    age_flat[loc] = ts_r
                    misses += nm
                continue
            if aligned and occupied >= total_lines:
                # Fused full-cache round: every set is accessed and no
                # way is empty, so each set's target way is either its
                # hit way or its min-age victim, and the stored tag is
                # ``b`` either way — no index splitting needed.  The
                # all-miss and all-hit rounds skip the unused argmax /
                # argmin halves.
                w = w2[lo:hi]
                hitm = tags == b[:, None]
                hit_any = hitm.any(1)
                nh = int(count_nonzero(hit_any))
                nm = num_sets - nh
                np.logical_not(hit_any, out=miss2[lo:hi])
                if not nh:
                    loc = set_base + age.argmin(1)
                    dirty_wbs += int(count_nonzero(dirty_flat.take(loc)))
                    evictions += nm
                    dirty_flat[loc] = w
                elif not nm:
                    loc = set_base + hitm.argmax(1)
                    dirty_flat[loc] |= w
                else:
                    loc = set_base + np.where(hit_any, hitm.argmax(1),
                                              age.argmin(1))
                    old_dirty = dirty_flat.take(loc)
                    dirty_wbs += int(count_nonzero(old_dirty & miss2[lo:hi]))
                    evictions += nm
                    dirty_flat[loc] = np.where(hit_any, old_dirty | w, w)
                tags_flat[loc] = b
                if lru or not nh:
                    age_flat[loc] = ts_r
                else:
                    age_flat[loc] = np.where(hit_any, age_flat.take(loc), ts_r)
                hits += nh
                misses += nm
                continue
            if aligned:
                rows = tags
                base = set_base
            else:
                s = s2[lo - aligned_end:hi - aligned_end]
                base = base2[lo - aligned_end:hi - aligned_end]
                rows = tags.take(s, axis=0)
            hitm = rows == b[:, None]
            hit_any = hitm.any(1)
            hidx = flatnonzero(hit_any)
            nh = hidx.size
            nm = (hi - lo) - nh
            np.logical_not(hit_any, out=miss2[lo:hi])
            w = w2[lo:hi]

            if nh:
                loc = base[hidx] + hitm[hidx].argmax(1)
                dirty_flat[loc] |= w[hidx]
                if lru:
                    age_flat[loc] = ts_r
                hits += nh
            if not nm:
                continue

            if occupied >= total_lines:
                # Full cache: the victim is always the min-age way.
                if aligned:
                    victim_loc = set_base + age.argmin(1)
                    if nh:
                        midx = flatnonzero(miss2[lo:hi])
                        loc = victim_loc[midx]
                        mb, mw = b[midx], w[midx]
                    else:
                        loc = victim_loc
                        mb, mw = b, w
                else:
                    if nh:
                        midx = flatnonzero(miss2[lo:hi])
                        mbase, ms = base[midx], s[midx]
                        mb, mw = b[midx], w[midx]
                    else:
                        mbase, ms, mb, mw = base, s, b, w
                    loc = mbase + age.take(ms, axis=0).argmin(1)
                dirty_wbs += int(count_nonzero(dirty_flat.take(loc)))
                evictions += nm
            else:
                # Warm-up: prefer an empty way, else the min-age way.
                if nh:
                    midx = flatnonzero(miss2[lo:hi])
                    mb, mw = b[midx], w[midx]
                    mrows = rows[midx]
                    mbase = base[midx]
                    age_rows = (age[midx] if aligned
                                else age.take(s[midx], axis=0))
                else:
                    mb, mw, mrows, mbase = b, w, rows, base
                    age_rows = age if aligned else age.take(s, axis=0)
                empty = mrows == _EMPTY
                has_empty = empty.any(1)
                victim_way = np.where(has_empty, empty.argmax(1),
                                      age_rows.argmin(1))
                n_evict = nm - int(count_nonzero(has_empty))
                occupied += nm - n_evict
                loc = mbase + victim_way
                if n_evict:
                    was_dirty = dirty_flat.take(loc) & ~has_empty
                    dirty_wbs += int(count_nonzero(was_dirty))
                    evictions += n_evict
            tags_flat[loc] = mb
            dirty_flat[loc] = mw
            age_flat[loc] = ts_r
            misses += nm

        self._occupied = occupied
        self._clock += n
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.evictions += evictions
        self.stats.dirty_writebacks += dirty_wbs

        # Un-permute the per-round outcomes, then expand over collapsed
        # runs: only each run's representative can miss.
        rep_miss = np.empty(m, dtype=bool)
        rep_miss[order2] = miss2
        if rep is None:
            return rep_miss
        full_miss = np.zeros(n, dtype=bool)
        full_miss[rep] = rep_miss
        return full_miss

    # -- scalar-compatible access path ---------------------------------------

    def access(self, addr: int, is_write: bool) -> Tuple[bool, Optional[Eviction]]:
        """Access one byte address; ``(hit, eviction)`` as the oracle.

        Interleaves exactly with :meth:`simulate_batch`: both paths
        advance the same clock and arrays.
        """
        block = int(addr) // self.block_size
        set_idx = block & self._set_mask
        row = self._tags[set_idx]
        self._clock += 1
        hit_ways = np.flatnonzero(row == block)
        if hit_ways.size:
            way = int(hit_ways[0])
            self.stats.hits += 1
            if is_write:
                self._dirty[set_idx, way] = True
            if self._lru:
                self._age[set_idx, way] = self._clock
            return True, None

        self.stats.misses += 1
        eviction: Optional[Eviction] = None
        empty_ways = np.flatnonzero(row == _EMPTY)
        if empty_ways.size:
            way = int(empty_ways[0])
            self._occupied += 1
        else:
            way = int(self._age[set_idx].argmin())
            was_dirty = bool(self._dirty[set_idx, way])
            self.stats.evictions += 1
            if was_dirty:
                self.stats.dirty_writebacks += 1
            eviction = Eviction(
                block_addr=int(self._tags[set_idx, way]) * self.block_size,
                dirty=was_dirty)
        self._tags[set_idx, way] = block
        self._dirty[set_idx, way] = is_write
        self._age[set_idx, way] = self._clock
        return False, eviction

    # -- introspection (parity with the scalar model) -------------------------

    def _find(self, addr: int) -> Tuple[int, int]:
        block = int(addr) // self.block_size
        set_idx = block & self._set_mask
        ways = np.flatnonzero(self._tags[set_idx] == block)
        return set_idx, (int(ways[0]) if ways.size else -1)

    def is_dirty(self, addr: int) -> bool:
        """True if the containing block is resident and dirty."""
        set_idx, way = self._find(addr)
        return way >= 0 and bool(self._dirty[set_idx, way])

    @property
    def occupancy(self) -> int:
        """Number of resident blocks."""
        return self._occupied

    def resident_blocks(self) -> List[int]:
        """Sorted byte addresses of all resident blocks."""
        tags = self._tags_flat
        return sorted(int(t) * self.block_size for t in tags[tags != _EMPTY])
