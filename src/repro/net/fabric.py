"""The RDMA fabric: links nodes and prices transfers.

The fabric is a cost model plus a failure injector.  Costs follow
:class:`repro.common.latency.LatencyModel`; calibration puts a linked
4 KB write at ~3 us, matching the paper's measurement on ConnectX-5 /
100 Gbps RoCE.

Failure injection supports the paper's section 4.5 discussion: a link
can be delayed (slow network), made probabilistically flaky (lossy
switch), partitioned (cut between node groups) or cut entirely
(unreachable node), and the Kona runtime must degrade to its fallback
path instead of wedging.  :class:`FaultSchedule` scripts those
injections at simulated-clock timestamps so chaos campaigns replay
deterministically.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..common.clock import SimClock
from ..common.errors import ConfigError
from ..common.latency import DEFAULT_LATENCY, LatencyModel
from ..common.stats import Counter


@dataclass(order=True)
class FaultEvent:
    """One scheduled fault injection (orderable by firing time)."""

    at_ns: float
    seq: int
    label: str = field(compare=False)
    apply: Callable[[], None] = field(compare=False)


class FaultSchedule:
    """A deterministic script of fault injections on the simulated clock.

    Campaigns register labelled actions with :meth:`at`; the driver
    calls :meth:`fire_due` as simulated time advances, and every event
    whose timestamp has passed runs exactly once, in timestamp order.
    No wall-clock time is consulted anywhere, so the same schedule
    replays identically.
    """

    def __init__(self) -> None:
        self._heap: List[FaultEvent] = []
        self._seq = itertools.count()
        self.fired: List[Tuple[float, str]] = []

    def at(self, at_ns: float, label: str,
           action: Callable[[], None]) -> None:
        """Schedule ``action`` to fire once the clock reaches ``at_ns``."""
        if at_ns < 0:
            raise ConfigError(f"cannot schedule fault at {at_ns} ns")
        heapq.heappush(self._heap, FaultEvent(at_ns=at_ns,
                                              seq=next(self._seq),
                                              label=label, apply=action))

    def fire_due(self, now_ns: float) -> List[str]:
        """Run every event with ``at_ns <= now_ns``; returns their labels."""
        labels: List[str] = []
        while self._heap and self._heap[0].at_ns <= now_ns:
            event = heapq.heappop(self._heap)
            event.apply()
            self.fired.append((event.at_ns, event.label))
            labels.append(event.label)
        return labels

    def next_at(self) -> Optional[float]:
        """Timestamp of the next pending event, or None when drained."""
        return self._heap[0].at_ns if self._heap else None

    @property
    def pending(self) -> int:
        """Events not yet fired."""
        return len(self._heap)


class Fabric:
    """A rack-scale RDMA network connecting named nodes."""

    def __init__(self, latency: LatencyModel = DEFAULT_LATENCY,
                 clock: Optional[SimClock] = None) -> None:
        self.latency = latency
        self.clock = clock if clock is not None else SimClock()
        self._nodes: Set[str] = set()
        self._down: Set[str] = set()
        self._extra_delay_ns: Dict[Tuple[str, str], float] = {}
        self._flaky: Dict[Tuple[str, str], Tuple[float, np.random.Generator]] = {}
        self._cuts: List[Tuple[Set[str], Set[str]]] = []
        self.counters = Counter()
        #: Reads 0: transfers are priced, never performed.  Kept because
        #: the campaign fingerprints hash the ``network.bytes_moved`` gauge.
        self.bytes_moved = 0

    # -- fleet telemetry -------------------------------------------------------

    def component_snapshot(self, component: str = "fabric",
                           tenant: str = None):
        """The fabric's telemetry as a fleet component snapshot.

        Identity defaults to ``fabric`` — the same label the fleet's
        cross-component fault chains bill their ``fab`` hop to, so the
        fabric's counters and its share of the causal arrows land on
        one Chrome trace process.
        """
        from ..obs.fleet import ComponentSnapshot
        metrics = {f"fabric.{key}": value for key, value
                   in sorted(self.counters.as_dict().items())}
        kinds = {name: "counter" for name in metrics}
        metrics["fabric.bytes_moved"] = self.bytes_moved
        kinds["fabric.bytes_moved"] = "counter"
        metrics["fabric.nodes"] = len(self._nodes)
        metrics["fabric.nodes_down"] = len(self._down)
        return ComponentSnapshot(component=component, tenant=tenant,
                                 metrics=metrics, kinds=kinds)

    # -- topology ------------------------------------------------------------

    def add_node(self, name: str) -> None:
        """Register a node on the fabric."""
        if name in self._nodes:
            raise ConfigError(f"node {name!r} already on fabric")
        self._nodes.add(name)

    def has_node(self, name: str) -> bool:
        """Whether ``name`` is attached."""
        return name in self._nodes

    # -- failure injection -----------------------------------------------------

    def fail_node(self, name: str) -> None:
        """Make a node unreachable (disaggregated-memory failure)."""
        self._require(name)
        self._down.add(name)

    def recover_node(self, name: str) -> None:
        """Bring a failed node back."""
        self._down.discard(name)

    def delay_link(self, src: str, dst: str, extra_ns: float) -> None:
        """Add fixed latency to one direction of a link (slow network).

        An ``extra_ns`` of zero fully retracts any injected delay, so a
        schedule can restore the link to its calibrated latency.
        """
        self._require(src)
        self._require(dst)
        if extra_ns < 0:
            raise ConfigError("extra delay must be non-negative")
        if extra_ns == 0:
            self._extra_delay_ns.pop((src, dst), None)
        else:
            self._extra_delay_ns[(src, dst)] = extra_ns

    def clear_delay(self, src: str, dst: str) -> None:
        """Remove any injected delay on one direction of a link."""
        self._require(src)
        self._require(dst)
        self._extra_delay_ns.pop((src, dst), None)

    def set_flaky(self, src: str, dst: str, drop_rate: float,
                  seed: int = 0) -> None:
        """Make one link direction drop transfers with ``drop_rate``.

        Drops are drawn (:meth:`drops_transfer`) from a per-link RNG
        seeded here, so a campaign replays the same loss pattern for the
        same seed.
        """
        self._require(src)
        self._require(dst)
        if not 0.0 <= drop_rate <= 1.0:
            raise ConfigError(f"drop rate {drop_rate} not in [0, 1]")
        if drop_rate == 0.0:
            self._flaky.pop((src, dst), None)
        else:
            self._flaky[(src, dst)] = (drop_rate,
                                       np.random.default_rng(seed))

    def clear_flaky(self, src: str, dst: str) -> None:
        """Make one link direction reliable again."""
        self._flaky.pop((src, dst), None)

    def drops_transfer(self, src: str, dst: str) -> bool:
        """Draw the flaky-link lottery for one attempt.

        Advances the per-link RNG, so each call models one distinct
        attempt on the wire; retry loops therefore see independent
        (but seed-reproducible) draws.  Counters are bumped on a drop.
        """
        flaky = self._flaky.get((src, dst))
        if flaky is None:
            return False
        drop_rate, rng = flaky
        if rng.random() < drop_rate:
            self.counters.add("failed_transfers")
            self.counters.add("dropped_transfers")
            return True
        return False

    def partition(self, group_a: Iterable[str],
                  group_b: Iterable[str]) -> None:
        """Cut the network between two node groups (both directions)."""
        side_a, side_b = set(group_a), set(group_b)
        for name in side_a | side_b:
            self._require(name)
        if side_a & side_b:
            raise ConfigError(
                f"partition groups overlap: {sorted(side_a & side_b)}")
        self._cuts.append((side_a, side_b))

    def heal_partition(self) -> None:
        """Remove every partition cut."""
        self._cuts.clear()

    def is_partitioned(self, src: str, dst: str) -> bool:
        """Whether any cut separates ``src`` from ``dst``."""
        for side_a, side_b in self._cuts:
            if ((src in side_a and dst in side_b)
                    or (src in side_b and dst in side_a)):
                return True
        return False

    def is_down(self, name: str) -> bool:
        """Whether the node is currently failed."""
        return name in self._down

    def reachable(self, src: str, dst: str) -> bool:
        """Whether a transfer between live endpoints could succeed."""
        return (src not in self._down and dst not in self._down
                and not self.is_partitioned(src, dst))

    def lossless(self) -> bool:
        """Whether no transfer can fail: no node is down, no partition
        is cut and no link is flaky.

        Injected delay slows transfers but never fails them.  Any new
        kind of injected transfer failure must clear this too.
        """
        return not (self._down or self._cuts or self._flaky)

    # -- pricing -----------------------------------------------------------------

    def transfer_cost_ns(self, src: str, dst: str, nbytes: int, *,
                         linked: bool = False, signaled: bool = True) -> float:
        """Price a one-sided transfer: the latency model's cost plus any
        injected delay on the link.  Side-effect free."""
        base = self.latency.rdma_transfer_ns(nbytes, linked=linked,
                                             signaled=signaled)
        return base + self._extra_delay_ns.get((src, dst), 0.0)

    def replicated_log_write_cost_ns(self, src: str, dsts: List[str],
                                     log_bytes: int) -> float:
        """Price a pipelined CL-log write fanned out to ``dsts``.

        One posting exposes the linked work request plus the NIC
        doorbell; the wire time is partially hidden behind staging the
        next batch (``log_wire_exposure``).  Each destination past the
        first is posted back-to-back — its wire time overlaps, so it
        adds only a posting cost.  The slowest injected link delay
        gates the ack.  With a single destination and no injected
        delay this is exactly the unreplicated flush cost.
        """
        if not dsts:
            return 0.0
        posting = self.latency.rdma_linked_wr_ns + self.latency.rdma_nic_wr_ns
        cost = (posting + self.latency.log_wire_exposure
                * self.latency.rdma_per_byte_ns * log_bytes)
        cost += (len(dsts) - 1) * posting
        cost += max(self._extra_delay_ns.get((src, dst), 0.0)
                    for dst in dsts)
        return cost

    def _require(self, name: str) -> None:
        if name not in self._nodes:
            raise ConfigError(f"unknown node {name!r}")
