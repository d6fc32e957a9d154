"""Primary/backup replication for remote pages (memnode failover).

Kona's failure story (paper section 4.5) survives a memory-node crash
via eviction-time replication, but a replica is only useful if someone
*promotes* it, fences the old primary, and rebuilds redundancy.  This
module is that someone:

* :class:`ReplicaSet` — one slab-sized VFMem window's primary slab,
  its backup slabs, and the window's **epoch**: a monotonically
  increasing generation number bumped on every primary change.  Pages
  inherit the epoch of their window.
* :class:`Lease` — the controller's grant of primaryship, bounded in
  simulated time.  Promotion after a crash must wait out the dead
  primary's lease before the new epoch is safe to serve — that wait is
  charged to the clock and shows up in MTTR.
* :class:`ReplicationManager` — the controller-side brain: registers
  replica sets as slabs are bound, grants/renews leases on writes,
  promotes backups when a node dies (rebinding the runtime's remote
  translation map so fetch *and* writeback traffic redirect), fences
  stale-epoch writes, and runs the background **re-replication** task
  that restores the replication factor onto surviving nodes.
* :class:`LineStore` — the per-memnode content store: every replicated
  dirty line lands here with a version, an epoch, a modeled 64-bit
  payload and a checksum.  Versions make redelivery idempotent
  (last-writer-wins fencing), checksums make a ``data_corruption``
  chaos fault detectable, and the union of primary stores is the
  **remote-memory image** the durability proof compares bit-for-bit
  against a no-fault oracle run.
* :class:`DataPlane` — the compute-side shadow of application data:
  a per-line write-version counter advanced by the runtime on every
  completed write access.  Payloads are a pure function of
  ``(line, version)``, so two runs that apply the same write stream
  must converge to the same remote image — which is exactly what the
  ``no acknowledged write lost`` invariant checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..common import units
from ..common.errors import AllocationError, ConfigError
from ..common.stats import Counter
from ..net.ring import LogRecord
from .slab import Slab


_MASK64 = (1 << 64) - 1


def line_payload(vfmem_addr: int, version: int) -> int:
    """The modeled 64-bit content of a line at a write version.

    A splitmix64-style mix: deterministic, avalanching, and cheap.  Two
    runs that agree on (line, version) agree on content — the property
    the differential durability proof leans on.
    """
    z = (vfmem_addr * 0x9E3779B97F4A7C15 + version * 0xBF58476D1CE4E5B9) \
        & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def line_checksum(payload: int) -> int:
    """Checksum of a stored payload (a second independent mix).

    Corruption flips payload bits without updating the checksum, so a
    fetch-time verify catches it and read-repairs from a replica.
    """
    z = (payload * 0xD6E8FEB86659FD93 + 0xA5A5A5A5A5A5A5A5) & _MASK64
    return (z ^ (z >> 32)) & _MASK64


@dataclass
class StoredLine:
    """One replicated cache line at rest on a memory node."""

    version: int
    epoch: int
    payload: int
    checksum: int

    @property
    def intact(self) -> bool:
        """Whether the checksum still matches the payload."""
        return self.checksum == line_checksum(self.payload)


class LineStore:
    """Per-memnode store of replicated lines, keyed by VFMem address.

    ``apply`` is idempotent and fenced: a record older than what is
    stored (lower version) is dropped, which is what makes parked
    writebacks safe to redeliver after newer data already landed on the
    promoted primary.
    """

    def __init__(self) -> None:
        self._lines: Dict[int, StoredLine] = {}
        #: Page-base -> line addresses, so fetch-time verification can
        #: scan one page without walking the whole store.
        self._pages: Dict[int, set] = {}
        self.counters = Counter()

    def _index(self, vfmem_addr: int) -> None:
        page = vfmem_addr - (vfmem_addr % units.PAGE_4K)
        self._pages.setdefault(page, set()).add(vfmem_addr)

    def apply(self, record: LogRecord) -> bool:
        """Store a record's line; returns False when fenced as stale.

        Version-0 records describe lines the application never wrote
        (whole-page writes ship them anyway); they carry no durable
        content and are not stored.
        """
        if record.version <= 0:
            return False
        stored = self._lines.get(record.vfmem_addr)
        if stored is not None and record.version < stored.version:
            self.counters.add("stale_version_drops")
            return False
        self._lines[record.vfmem_addr] = StoredLine(
            version=record.version, epoch=record.epoch,
            payload=record.payload,
            checksum=line_checksum(record.payload))
        self._index(record.vfmem_addr)
        self.counters.add("lines_applied")
        return True

    def get(self, vfmem_addr: int) -> Optional[StoredLine]:
        """The stored line at ``vfmem_addr``, if any."""
        return self._lines.get(vfmem_addr)

    def put(self, vfmem_addr: int, line: StoredLine) -> None:
        """Install a copied line (re-replication / read repair)."""
        self._lines[vfmem_addr] = StoredLine(
            version=line.version, epoch=line.epoch,
            payload=line.payload, checksum=line.checksum)
        self._index(vfmem_addr)

    def lines_in_page(self, page_addr: int) -> List[int]:
        """Stored line addresses within one 4 KiB page, sorted."""
        return sorted(self._pages.get(page_addr, ()))

    def corrupt(self, vfmem_addr: int) -> bool:
        """Flip a payload bit without touching the checksum."""
        stored = self._lines.get(vfmem_addr)
        if stored is None:
            return False
        stored.payload ^= 1 << (vfmem_addr % 63)
        self.counters.add("lines_corrupted")
        return True

    def lines_in_range(self, lo: int, hi: int) -> List[int]:
        """Stored line addresses in ``[lo, hi)``, sorted."""
        return sorted(a for a in self._lines if lo <= a < hi)

    def addresses(self) -> List[int]:
        """Every stored line address, sorted."""
        return sorted(self._lines)

    def image(self) -> Dict[int, Tuple[int, int]]:
        """``{vfmem_addr: (version, payload)}`` of everything stored."""
        return {a: (s.version, s.payload) for a, s in self._lines.items()}

    def clear(self) -> None:
        """Drop all content (the node crashed)."""
        self._lines.clear()
        self._pages.clear()

    def __len__(self) -> int:
        return len(self._lines)


class DataPlane:
    """Compute-side shadow of application data, for durability proofs.

    The runtime advances :meth:`record_write` on every *completed*
    write access, so versions count exactly the writes the application
    observed.  ``acknowledged`` tracks, per line, the highest version a
    delivered (acked) writeback carried — the ledger behind the
    ``no acknowledged write lost`` invariant.
    """

    def __init__(self) -> None:
        self.versions: Dict[int, int] = {}
        self.acknowledged: Dict[int, int] = {}
        self.counters = Counter()

    def record_write(self, addr: int) -> None:
        """One application write to the line holding ``addr``."""
        line = addr - (addr % units.CACHE_LINE)
        self.versions[line] = self.versions.get(line, 0) + 1

    def content(self, line_addr: int) -> Tuple[int, int]:
        """(version, payload) of a line; version 0 if never written."""
        version = self.versions.get(line_addr, 0)
        return version, line_payload(line_addr, version)

    def written(self, line_addr: int) -> bool:
        """Whether the application ever wrote this line."""
        return line_addr in self.versions

    def acknowledge(self, records: List[LogRecord]) -> None:
        """A delivered batch: remember the highest acked version/line."""
        acked = self.acknowledged
        for record in records:
            if record.vfmem_addr < 0:
                continue
            if record.version > acked.get(record.vfmem_addr, -1):
                acked[record.vfmem_addr] = record.version
        self.counters.add("records_acknowledged", len(records))


@dataclass
class Lease:
    """A time-bounded grant of primaryship for one replica set."""

    slot: int
    node: str
    expires_at_ns: float
    ttl_ns: float

    def valid(self, now_ns: float) -> bool:
        """Whether the lease still fences other would-be primaries."""
        return now_ns < self.expires_at_ns


@dataclass
class ReplicaSet:
    """One VFMem window's replicas: primary slab, backups, epoch."""

    slot: int
    primary: Slab
    backups: List[Slab]
    epoch: int = 0
    epoch_history: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.epoch_history:
            self.epoch_history = [self.epoch]

    def nodes(self) -> List[str]:
        """Every node hosting a replica (primary first)."""
        return [self.primary.node] + [b.node for b in self.backups]

    def promote(self, backup_index: int) -> None:
        """Make a backup the primary; bumps the epoch (new leadership)."""
        new_primary = self.backups.pop(backup_index)
        self.primary = new_primary
        self.epoch += 1
        self.epoch_history.append(self.epoch)


@dataclass(frozen=True)
class FailoverReport:
    """What one node failure did to the replica sets."""

    node: str
    promoted_slots: List[int]
    backup_slots: List[int]      # slots that only lost a backup copy
    orphaned_slots: List[int]    # slots left with no live replica at all
    lease_wait_ns: float         # fencing wait for the dead primary's leases

    @property
    def affected(self) -> bool:
        """Whether the dead node held any replica."""
        return bool(self.promoted_slots or self.backup_slots
                    or self.orphaned_slots)


class ReplicationManager:
    """Controller-side replication: promotion, fencing, re-replication.

    The manager owns the authoritative :class:`ReplicaSet` per bound
    VFMem window.  It writes *through* the runtime's remote translation
    map on every membership change, so the existing fetch-failover and
    eviction-routing paths see promotions without new plumbing.
    """

    def __init__(self, controller, translation, clock, *,
                 vfmem_base: int, slab_bytes: int,
                 replication_factor: int = 2,
                 lease_ttl_ns: float = 50_000.0,
                 tracer=None) -> None:
        if replication_factor < 1:
            raise ConfigError("replication factor must be >= 1")
        self.controller = controller
        self.translation = translation
        self.clock = clock
        self.vfmem_base = vfmem_base
        self.slab_bytes = slab_bytes
        self.replication_factor = replication_factor
        self.lease_ttl_ns = lease_ttl_ns
        self.tracer = tracer
        self.sets: Dict[int, ReplicaSet] = {}
        self.leases: Dict[int, Lease] = {}
        #: Slots below the replication factor, oldest deficit first.
        self.backlog: List[int] = []
        #: Slabs allocated by re-replication (released at teardown).
        self.extra_slabs: List[Slab] = []
        #: Replica slabs lost to node crashes.  They cannot be returned
        #: to the rack while their node is down, so re-replication
        #: recycles them once the node is back — without this, repeated
        #: failovers leak capacity until redundancy cannot be rebuilt.
        self.retired_slabs: List[Slab] = []
        self.failovers: List[FailoverReport] = []
        self.counters = Counter()
        #: Whether a DataPlane is wired in (content stores are live).
        self.content_active = False

    # -- registration -----------------------------------------------------------

    def slot_of(self, vfmem_addr: int) -> int:
        """The replica-set slot covering a VFMem address."""
        return (vfmem_addr - self.vfmem_base) // self.slab_bytes

    def _slot_base(self, slot: int) -> int:
        return self.vfmem_base + slot * self.slab_bytes

    def register(self, vfmem_addr: int, primary: Slab,
                 backups: List[Slab]) -> ReplicaSet:
        """Track a freshly bound window; grants the primary its lease."""
        slot = self.slot_of(vfmem_addr)
        if slot in self.sets:
            raise ConfigError(f"slot {slot} already replicated")
        rset = ReplicaSet(slot=slot, primary=primary, backups=list(backups))
        self.sets[slot] = rset
        self._grant_lease(rset)
        self.counters.add("sets_registered")
        if len(backups) + 1 < self.replication_factor:
            self._enqueue_backlog(slot)
        return rset

    def _grant_lease(self, rset: ReplicaSet) -> None:
        self.leases[rset.slot] = Lease(
            slot=rset.slot, node=rset.primary.node,
            expires_at_ns=self.clock.now + self.lease_ttl_ns,
            ttl_ns=self.lease_ttl_ns)
        self.counters.add("leases_granted")

    def renew_lease(self, slot: int) -> None:
        """Primary heartbeat: writes renew the slot's lease."""
        lease = self.leases.get(slot)
        if lease is not None:
            lease.expires_at_ns = self.clock.now + lease.ttl_ns
            self.counters.add("leases_renewed")

    # -- write-path routing -----------------------------------------------------

    def epoch_of(self, vfmem_addr: int) -> int:
        """Current epoch of the window holding ``vfmem_addr``."""
        rset = self.sets.get(self.slot_of(vfmem_addr))
        return rset.epoch if rset is not None else 0

    def route_for(self, vfmem_addr: int) -> Tuple[str, int]:
        """(primary node, epoch) for a write; renews the lease."""
        slot = self.slot_of(vfmem_addr)
        rset = self.sets.get(slot)
        if rset is None:
            raise ConfigError(f"address {vfmem_addr:#x} not replicated")
        self.renew_lease(slot)
        return rset.primary.node, rset.epoch

    def redirect_records(
            self, node: str, records: List[LogRecord]
    ) -> Tuple[List[LogRecord], Dict[str, List[LogRecord]]]:
        """Split a batch bound for ``node`` into current vs. moved.

        Records whose window still has ``node`` as primary at their
        stamped epoch pass through.  Records whose primary moved (or
        whose epoch is stale) are **fenced** and re-stamped: new remote
        address on the promoted primary, current epoch — the redirect
        path for in-flight and parked writebacks after a failover.
        Legacy records without a VFMem address pass through untouched.
        """
        keep: List[LogRecord] = []
        moved: Dict[str, List[LogRecord]] = {}
        for record in records:
            if record.vfmem_addr < 0:
                keep.append(record)
                continue
            slot = self.slot_of(record.vfmem_addr)
            rset = self.sets.get(slot)
            if rset is None:
                keep.append(record)
                continue
            if rset.primary.node == node and record.epoch == rset.epoch:
                keep.append(record)
                continue
            if record.epoch < rset.epoch:
                self.counters.add("stale_epoch_writes_fenced")
            offset = (record.vfmem_addr - self.vfmem_base) % self.slab_bytes
            restamped = record._replace(
                remote_addr=rset.primary.remote_range.start + offset,
                epoch=rset.epoch)
            moved.setdefault(rset.primary.node, []).append(restamped)
            self.counters.add("writebacks_redirected")
        return keep, moved

    def backup_nodes_for(self, records: List[LogRecord]) -> List[str]:
        """Distinct live backup nodes the batch fans out to."""
        nodes: List[str] = []
        seen = set()
        for record in records:
            if record.vfmem_addr < 0:
                continue
            rset = self.sets.get(self.slot_of(record.vfmem_addr))
            if rset is None:
                continue
            for backup in rset.backups:
                if backup.node in seen:
                    continue
                seen.add(backup.node)
                if self._node_alive(backup.node):
                    nodes.append(backup.node)
        return nodes

    def apply_to_backups(self, records: List[LogRecord]) -> int:
        """Mirror a delivered batch onto each slot's live backups.

        The backup receiver runs the identical scatter loop as the
        primary's (remote CPU time, overlapped), so only the stores are
        updated here.  Returns lines applied across all backups.
        """
        applied = 0
        for record in records:
            if record.vfmem_addr < 0:
                continue
            rset = self.sets.get(self.slot_of(record.vfmem_addr))
            if rset is None:
                continue
            for backup in rset.backups:
                node = self.controller.node(backup.node)
                if node.alive and node.store.apply(record):
                    applied += 1
        if applied:
            self.counters.add("lines_replicated", applied)
        return applied

    # -- failover ---------------------------------------------------------------

    def on_node_failure(self, dead: str) -> FailoverReport:
        """Promote around a dead node; returns what changed.

        Every slot whose primary lived on ``dead`` gets its first live
        backup promoted (epoch + 1) and the translation map rebound;
        the promotion is only safe after the dead primary's lease
        expires, so the report carries the fencing wait for the caller
        to charge to the clock.  Slots that merely lost a backup join
        the re-replication backlog.
        """
        promoted: List[int] = []
        backup_only: List[int] = []
        orphaned: List[int] = []
        lease_wait = 0.0
        now = self.clock.now
        for slot, rset in sorted(self.sets.items()):
            if rset.primary.node == dead:
                lease = self.leases.get(slot)
                if lease is not None and lease.valid(now):
                    lease_wait = max(lease_wait, lease.expires_at_ns - now)
                live = [i for i, b in enumerate(rset.backups)
                        if self._node_alive(b.node)]
                if not live:
                    orphaned.append(slot)
                    self.counters.add("slots_orphaned")
                    continue
                self.retired_slabs.append(rset.primary)
                rset.promote(live[0])
                self._grant_lease(rset)
                self._rebind(rset)
                promoted.append(slot)
                self.counters.add("promotions")
                self._enqueue_backlog(slot)
                if self.tracer is not None and self.tracer.enabled:
                    self.tracer.instant("replication.promote", "replication",
                                        slot=slot, epoch=rset.epoch,
                                        new_primary=rset.primary.node)
            elif any(b.node == dead for b in rset.backups):
                self.retired_slabs.extend(
                    b for b in rset.backups if b.node == dead)
                rset.backups = [b for b in rset.backups if b.node != dead]
                backup_only.append(slot)
                self.counters.add("backups_lost")
                self._enqueue_backlog(slot)
        report = FailoverReport(node=dead, promoted_slots=promoted,
                                backup_slots=backup_only,
                                orphaned_slots=orphaned,
                                lease_wait_ns=lease_wait)
        if report.affected:
            self.failovers.append(report)
            self.counters.add("failovers")
            self.counters.add("failover_wait_ns", int(lease_wait))
        return report

    def _rebind(self, rset: ReplicaSet) -> None:
        """Write the set's membership through to the translation map."""
        self.translation.rebind(self._slot_base(rset.slot), rset.primary,
                                replicas=rset.backups or None)

    def _enqueue_backlog(self, slot: int) -> None:
        if slot not in self.backlog:
            self.backlog.append(slot)

    def _node_alive(self, name: str) -> bool:
        node = self.controller._nodes.get(name) \
            if hasattr(self.controller, "_nodes") else None
        if node is None:
            try:
                node = self.controller.node(name)
            except Exception:
                return False
        return node.alive

    # -- re-replication ---------------------------------------------------------

    @property
    def backlog_slots(self) -> int:
        """Slots currently below the replication factor."""
        return len(self.backlog)

    @property
    def lag_records(self) -> int:
        """Lines on backlogged primaries not yet at full redundancy."""
        lag = 0
        for slot in self.backlog:
            rset = self.sets.get(slot)
            if rset is None:
                continue
            node = self.controller.node(rset.primary.node)
            if node.alive:
                lo = self._slot_base(slot)
                lag += len(node.store.lines_in_range(lo,
                                                     lo + self.slab_bytes))
        return lag

    def re_replicate(self, max_slots: int = 1) -> float:
        """Rebuild redundancy for up to ``max_slots`` backlogged slots.

        Allocates a replacement slab on a live node not already hosting
        the slot, bulk-copies the primary's stored lines over the
        fabric (priced, not clocked — this is background traffic), and
        installs the copy as a backup.  Slots that cannot be placed yet
        (no eligible node, no capacity) stay backlogged.  Returns the
        background ns consumed.
        """
        total_ns = 0.0
        done = 0
        remaining: List[int] = []
        for slot in self.backlog:
            if done >= max_slots:
                remaining.append(slot)
                continue
            rset = self.sets.get(slot)
            if rset is None or len(rset.backups) + 1 >= self.replication_factor:
                continue
            ns = self._re_replicate_slot(rset)
            if ns is None:
                remaining.append(slot)       # try again next round
                self.counters.add("rereplication_deferred")
                continue
            total_ns += ns
            done += 1
            if len(rset.backups) + 1 < self.replication_factor:
                remaining.append(slot)       # still short a copy
        self.backlog = remaining
        return total_ns

    def _re_replicate_slot(self, rset: ReplicaSet) -> Optional[float]:
        exclude = rset.nodes()
        primary_node = self.controller.node(rset.primary.node)
        if not primary_node.alive:
            return None
        slab = self._take_retired(exclude)
        if slab is None:
            try:
                slab = self.controller.allocate_slabs(1, exclude=exclude)[0]
            except AllocationError:
                return None
            self.extra_slabs.append(slab)
        target = self.controller.node(slab.node)
        lo = self._slot_base(rset.slot)
        lines = primary_node.store.lines_in_range(lo, lo + self.slab_bytes)
        for addr in lines:
            target.store.put(addr, primary_node.store.get(addr))
        rset.backups.append(slab)
        self._rebind(rset)
        self.counters.add("slots_rereplicated")
        self.counters.add("lines_rereplicated", len(lines))
        nbytes = max(len(lines) * units.CACHE_LINE, units.CACHE_LINE)
        ns = primary_node.fabric.transfer_cost_ns(
            rset.primary.node, slab.node, nbytes, linked=True,
            signaled=True)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit("replication.rebuild", ns, "replication",
                             slot=rset.slot, lines=len(lines),
                             target=slab.node)
        return ns

    def _take_retired(self, exclude: List[str]) -> Optional[Slab]:
        """Recycle a crash-retired slab whose node has come back.

        The recycled slab keeps its original owner (resource manager or
        ``extra_slabs``), so teardown still releases it exactly once.
        """
        for i, slab in enumerate(self.retired_slabs):
            if slab.node not in exclude and self._node_alive(slab.node):
                self.counters.add("slabs_recycled")
                return self.retired_slabs.pop(i)
        return None

    def re_replicate_all(self) -> float:
        """Drain the whole backlog (recovery path); returns ns spent."""
        total = 0.0
        while self.backlog:
            before = len(self.backlog)
            total += self.re_replicate(max_slots=before)
            if len(self.backlog) >= before:
                break                        # no placement possible yet
        return total

    # -- integrity: checksums, read repair, scrub --------------------------------

    def verify_page(self, vfmem_page_addr: int,
                    node_name: str) -> Tuple[int, int, float]:
        """Fetch-time verify of one page's stored lines on one node.

        Returns (mismatches, repairs, ns).  A corrupt line is
        read-repaired from the first replica holding an intact copy at
        the same-or-newer version; the repair pays one line RDMA read.
        """
        node = self.controller.node(node_name)
        mismatches = repairs = 0
        ns = 0.0
        for addr in node.store.lines_in_page(vfmem_page_addr):
            stored = node.store.get(addr)
            ns += node.latency.memcpy_per_byte_ns * units.CACHE_LINE
            if stored.intact:
                continue
            mismatches += 1
            self.counters.add("checksum_mismatches")
            repaired, repair_ns = self._read_repair(addr, node_name)
            ns += repair_ns
            if repaired:
                repairs += 1
        return mismatches, repairs, ns

    def _read_repair(self, vfmem_addr: int, bad_node: str) -> Tuple[bool, float]:
        rset = self.sets.get(self.slot_of(vfmem_addr))
        if rset is None:
            self.counters.add("unrepaired_corruption")
            return False, 0.0
        bad = self.controller.node(bad_node)
        for name in rset.nodes():
            if name == bad_node or not self._node_alive(name):
                continue
            donor = self.controller.node(name)
            good = donor.store.get(vfmem_addr)
            if good is None or not good.intact:
                continue
            bad.store.put(vfmem_addr, good)
            self.counters.add("read_repairs")
            ns = bad.fabric.transfer_cost_ns(name, bad_node,
                                             units.CACHE_LINE)
            return True, ns
        self.counters.add("unrepaired_corruption")
        return False, 0.0

    def scrub(self) -> Tuple[int, int, float]:
        """Background scrubber: verify every replica, repair from peers.

        Returns (lines checked, lines repaired, ns).  Run on recovery so
        a corruption injected by chaos cannot outlive the campaign
        undetected.
        """
        checked = repaired = 0
        ns = 0.0
        for slot in sorted(self.sets):
            rset = self.sets[slot]
            lo = self._slot_base(slot)
            for name in rset.nodes():
                if not self._node_alive(name):
                    continue
                node = self.controller.node(name)
                for addr in node.store.lines_in_range(lo,
                                                      lo + self.slab_bytes):
                    checked += 1
                    ns += node.latency.memcpy_per_byte_ns * units.CACHE_LINE
                    stored = node.store.get(addr)
                    if stored.intact:
                        continue
                    self.counters.add("checksum_mismatches")
                    ok, repair_ns = self._read_repair(addr, name)
                    ns += repair_ns
                    if ok:
                        repaired += 1
        self.counters.add("scrubs")
        return checked, repaired, ns

    # -- inspection --------------------------------------------------------------

    def epochs_monotonic(self) -> bool:
        """Whether every slot's epoch history only ever increased."""
        for rset in self.sets.values():
            history = rset.epoch_history
            if any(b < a for a, b in zip(history, history[1:])):
                return False
        return True

    @property
    def max_epoch(self) -> int:
        """Highest epoch across all replica sets."""
        return max((r.epoch for r in self.sets.values()), default=0)

    def fully_replicated(self) -> bool:
        """Whether every set is at the configured factor on live nodes."""
        for rset in self.sets.values():
            live = [n for n in rset.nodes() if self._node_alive(n)]
            if len(live) < self.replication_factor:
                return False
        return True

    def image(self) -> Dict[int, Tuple[int, int]]:
        """The cluster's remote-memory image, read from the primaries.

        ``{vfmem line address: (version, payload)}`` over every replica
        set — the quantity the differential durability proof compares
        against a no-fault oracle run.
        """
        out: Dict[int, Tuple[int, int]] = {}
        for slot in sorted(self.sets):
            rset = self.sets[slot]
            node = self.controller.node(rset.primary.node)
            lo = self._slot_base(slot)
            for addr in node.store.lines_in_range(lo, lo + self.slab_bytes):
                stored = node.store.get(addr)
                out[addr] = (stored.version, stored.payload)
        return out

    def release_all_slabs(self) -> None:
        """Return re-replication slabs to the rack (teardown)."""
        self.controller.release_slabs(self.extra_slabs)
        self.extra_slabs.clear()
