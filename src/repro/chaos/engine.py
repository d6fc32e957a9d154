"""The fault-campaign engine: scripted chaos on the simulated clock.

A campaign is a :class:`~repro.net.fabric.FaultSchedule` of labelled
injections — node crashes and recoveries, link delays, flaky links,
partitions — plus an access stream to drive through the runtime while
the faults land.  Everything is keyed to the *simulated* clock and
every random draw (flaky drops, retry jitter) comes from a seeded RNG,
so a campaign replays byte-identically for the same seed: the property
the determinism tests pin down.

The engine advances the fabric clock by the application's compute time
per access (unlike :meth:`KonaRuntime.run_trace`, which bills compute
in one lump at the end) so that fault timestamps interleave with the
access stream the way wall-clock faults would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..common.errors import NodeFailure
from ..kona.failures import MachineCheckException
from ..kona.runtime import KonaRuntime
from ..kona.telemetry import TelemetrySnapshot, snapshot
from ..net.fabric import FaultSchedule
from .invariants import InvariantCheck, check_all


@dataclass
class CampaignResult:
    """Everything a finished campaign measured."""

    seed: int
    accesses: int
    faulted_accesses: int
    timeline: List[Tuple[float, str]]
    window_amat_ns: List[Tuple[float, float]]   # (window-end ns, AMAT ns)
    pre_fault_amat_ns: float
    post_recovery_amat_ns: float
    invariants: List[InvariantCheck] = field(default_factory=list)
    telemetry: Optional[TelemetrySnapshot] = None
    # (ns, state, context) per health transition.  Context comes from
    # any providers attached to the monitor (e.g. the SLO engine's
    # firing alerts); kept out of fingerprint() so alert wiring never
    # perturbs the determinism checks.
    health_transitions: List[Tuple[float, str, Dict[str, object]]] = \
        field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every recovery invariant held."""
        return all(check.passed for check in self.invariants)

    def fingerprint(self) -> str:
        """Canonical byte string of everything observable.

        Two runs of the same campaign with the same seed must produce
        identical fingerprints; different seeds must not (used by the
        determinism tests).
        """
        flat = self.telemetry.flat() if self.telemetry else {}
        parts = [f"seed={self.seed}", f"accesses={self.accesses}",
                 f"faulted={self.faulted_accesses}"]
        parts += [f"{t:.3f}:{label}" for t, label in self.timeline]
        parts += [f"{t:.3f}={amat:.6f}" for t, amat in self.window_amat_ns]
        parts += [f"{k}={v}" for k, v in sorted(flat.items())]
        return "\n".join(parts)

    def rows(self) -> List[Tuple[str, object]]:
        """(metric, value) rows for the CLI report."""
        out: List[Tuple[str, object]] = [
            ("accesses", self.accesses),
            ("faulted_accesses", self.faulted_accesses),
            ("pre_fault_amat_ns", round(self.pre_fault_amat_ns, 1)),
            ("post_recovery_amat_ns",
             round(self.post_recovery_amat_ns, 1)),
        ]
        for check in self.invariants:
            out.append((f"invariant:{check.name}",
                        "PASS" if check.passed else "FAIL"))
        return out


class ChaosEngine:
    """Drives one runtime through a scripted fault campaign."""

    def __init__(self, runtime: KonaRuntime, seed: int = 0,
                 amat_tolerance: float = 0.25) -> None:
        self.runtime = runtime
        self.seed = seed
        self.amat_tolerance = amat_tolerance
        self.schedule = FaultSchedule()
        self.timeline: List[Tuple[float, str]] = []
        self._first_fault_ns: Optional[float] = None
        self._recover_requested = False

    # -- campaign scripting ------------------------------------------------------

    def kill_node(self, at_ns: float, node: str) -> None:
        """Crash a memory node at ``at_ns`` (simulated).

        With replication on, the crash immediately triggers the
        controller's failover path: backups are promoted (after the
        lease fence) and parked writebacks are redirected.
        """
        def action() -> None:
            self.runtime.controller.node(node).fail()
            self.runtime.on_memnode_failure(node)
        self._mark_fault(at_ns)
        self.schedule.at(at_ns, f"kill:{node}", action)

    def corrupt_data(self, at_ns: float, node: str, lines: int) -> None:
        """Silently corrupt stored lines on a memnode (bit rot).

        Payload bits flip without updating checksums, so the damage is
        latent until a fetch-time verify or the recovery scrub catches
        it and read-repairs from a replica.
        """
        self._mark_fault(at_ns)
        self.schedule.at(
            at_ns, f"corrupt:{node}:{lines}",
            lambda: self.runtime.controller.node(node).corrupt_lines(
                lines, seed=self.seed))

    def recover_node(self, at_ns: float, node: str) -> None:
        """Restart a crashed node; the engine then runs recovery."""
        def action() -> None:
            self.runtime.controller.node(node).recover()
            self._recover_requested = True
        self.schedule.at(at_ns, f"recover:{node}", action)

    def delay_link(self, at_ns: float, src: str, dst: str,
                   extra_ns: float) -> None:
        """Inject fixed latency on a link direction."""
        self._mark_fault(at_ns)
        self.schedule.at(
            at_ns, f"delay:{src}->{dst}:{extra_ns:.0f}",
            lambda: self.runtime.fabric.delay_link(src, dst, extra_ns))

    def clear_delay(self, at_ns: float, src: str, dst: str) -> None:
        """Retract an injected link delay."""
        self.schedule.at(at_ns, f"clear_delay:{src}->{dst}",
                         lambda: self.runtime.fabric.clear_delay(src, dst))

    def flaky_link(self, at_ns: float, src: str, dst: str,
                   drop_rate: float) -> None:
        """Make a link drop transfers probabilistically (seeded)."""
        self._mark_fault(at_ns)
        self.schedule.at(
            at_ns, f"flaky:{src}->{dst}:{drop_rate}",
            lambda: self.runtime.fabric.set_flaky(src, dst, drop_rate,
                                                  seed=self.seed))

    def clear_flaky(self, at_ns: float, src: str, dst: str) -> None:
        """Make a flaky link reliable again."""
        def action() -> None:
            self.runtime.fabric.clear_flaky(src, dst)
            self._recover_requested = True
        self.schedule.at(at_ns, f"clear_flaky:{src}->{dst}", action)

    def partition(self, at_ns: float, group_a: List[str],
                  group_b: List[str]) -> None:
        """Cut the fabric between two node groups."""
        self._mark_fault(at_ns)
        self.schedule.at(
            at_ns, f"partition:{'|'.join(group_a)}/{'|'.join(group_b)}",
            lambda: self.runtime.fabric.partition(group_a, group_b))

    def heal_partition(self, at_ns: float) -> None:
        """Heal every partition cut."""
        def action() -> None:
            self.runtime.fabric.heal_partition()
            self._recover_requested = True
        self.schedule.at(at_ns, "heal_partition", action)

    def pressure(self, at_ns: float, pages: int) -> None:
        """Force-evict ``pages`` LRU pages (a memory-pressure burst).

        Campaigns pair this with a node kill so the failure provably
        lands *mid-eviction*: dirty pages homed on the dead node must
        requeue rather than vanish.
        """
        self.schedule.at(
            at_ns, f"pressure:{pages}",
            lambda: self.runtime.agent.proactive_evict(pages))

    def _mark_fault(self, at_ns: float) -> None:
        if self._first_fault_ns is None or at_ns < self._first_fault_ns:
            self._first_fault_ns = at_ns

    # -- the drive loop ----------------------------------------------------------

    def run(self, addrs: np.ndarray, writes: np.ndarray,
            window: int = 1024) -> CampaignResult:
        """Execute the access stream under the scripted faults.

        Accesses that die on the fallback path (all replicas down) are
        charged the coherence-timeout penalty and counted, matching the
        paper's degrade-don't-wedge story.  AMAT is sampled per
        ``window`` accesses; the pre-fault baseline is the mean of the
        windows that completed before the first fault fired, and the
        post-recovery figure is the final window.
        """
        rt = self.runtime
        clock = rt.fabric.clock
        tracer = rt.obs.tracer
        faulted = 0
        window_stall = 0.0
        window_count = 0
        window_amat: List[Tuple[float, float]] = []
        for i, (addr, is_write) in enumerate(zip(addrs.tolist(),
                                                 writes.tolist())):
            for label in self.schedule.fire_due(clock.now):
                self.timeline.append((clock.now, label))
                if tracer.enabled:
                    tracer.instant(f"fault.{label}", "chaos")
            if self._recover_requested:
                self._recover_requested = False
                rt.recover()
                self.timeline.append((clock.now, "runtime_recovered"
                                      if rt.health.healthy
                                      else "runtime_recovering"))
            try:
                stall = rt.access(int(addr), bool(is_write))
            except (NodeFailure, MachineCheckException):
                # Degrade, don't wedge: software waits out the timeout.
                faulted += 1
                stall = rt.failures.coherence_timeout_ns
                clock.advance(stall)
                rt.account.charge("fault_fallback", stall)
            clock.advance(rt.app_ns_per_access)
            window_stall += stall + rt.app_ns_per_access
            window_count += 1
            if window_count == window:
                window_amat.append((clock.now, window_stall / window_count))
                window_stall = 0.0
                window_count = 0
            if i & 0xFF == 0:
                rt.maybe_evict()
                rt.obs.tick()
        if window_count:
            window_amat.append((clock.now, window_stall / window_count))
        # Fire any events scheduled past the end of the stream, then
        # settle: a recovery scheduled late must still drain.
        while self.schedule.pending:
            next_at = self.schedule.next_at()
            clock.advance_to(max(clock.now, next_at))
            for label in self.schedule.fire_due(clock.now):
                self.timeline.append((clock.now, label))
                if tracer.enabled:
                    tracer.instant(f"fault.{label}", "chaos")
        if self._recover_requested or not rt.health.healthy:
            self._recover_requested = False
            rt.recover()
            self.timeline.append((clock.now, "runtime_recovered"
                                  if rt.health.healthy
                                  else "runtime_recovering"))
        rt.account.charge("app_compute", rt.app_ns_per_access * addrs.size)
        pre, post = self._baseline_and_final(window_amat)
        result = CampaignResult(
            seed=self.seed,
            accesses=int(addrs.size),
            faulted_accesses=faulted,
            timeline=list(self.timeline),
            window_amat_ns=window_amat,
            pre_fault_amat_ns=pre,
            post_recovery_amat_ns=post,
        )
        result.invariants = check_all(rt, pre, post,
                                      tolerance=self.amat_tolerance)
        result.telemetry = snapshot(rt)
        result.health_transitions = list(rt.health.annotated_transitions)
        return result

    def _baseline_and_final(
            self, window_amat: List[Tuple[float, float]]) -> Tuple[float, float]:
        if not window_amat:
            return 0.0, 0.0
        first_fault = self._first_fault_ns
        pre = [amat for t, amat in window_amat
               if first_fault is None or t <= first_fault]
        if not pre:
            pre = [window_amat[0][1]]
        return sum(pre) / len(pre), window_amat[-1][1]
