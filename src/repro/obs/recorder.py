"""The flight recorder: one handle bundling registry, tracer, sampler.

Every :class:`~repro.kona.runtime.KonaRuntime` owns a recorder.  By
default only the metrics registry is live (callable gauges over the
components' counters — no hot-path cost); constructing with
``tracing=True`` (or calling :meth:`FlightRecorder.start`) turns on
span recording, and a ``sample_interval_ns`` adds the periodic gauge
sampler.  Exports go through the fleet artifact
(:class:`~repro.obs.fleet.FleetRecorder`).
"""

from __future__ import annotations

from typing import Optional

from ..common.clock import SimClock
from .registry import MetricsRegistry
from .sampler import Sampler
from .trace import Tracer
from .tsdb import TimeSeriesStore


class FlightRecorder:
    """Observability bundle for one runtime."""

    def __init__(self, clock: Optional[SimClock] = None,
                 tracing: bool = False,
                 sample_interval_ns: Optional[float] = None,
                 max_events: int = 500_000,
                 component: str = "runtime",
                 tenant: Optional[str] = None) -> None:
        # Component identity: who this telemetry belongs to in a fleet
        # view ("runtime:shard3", "memnode:5", "fabric", ...), plus an
        # optional tenant label for per-tenant attribution.  Pure
        # labels — they cost nothing on the hot path and are only read
        # at merge/export time.
        self.component = component
        self.tenant = tenant
        self.clock = clock if clock is not None else SimClock()
        self.registry = MetricsRegistry(clock=self.clock)
        self.tracer = Tracer(self.clock, enabled=tracing,
                             max_events=max_events)
        self.sampler: Optional[Sampler] = None
        self.tsdb: Optional[TimeSeriesStore] = None
        if sample_interval_ns is not None:
            self.tsdb = TimeSeriesStore()
            self.sampler = Sampler(self.registry, tracer=self.tracer,
                                   interval_ns=sample_interval_ns,
                                   clock=self.clock, tsdb=self.tsdb)

    # -- wiring -------------------------------------------------------------------

    def bind_clock(self, clock: SimClock) -> None:
        """Rebind every component to ``clock`` (the runtime's fabric
        clock), so timestamps agree no matter which was built first."""
        self.clock = clock
        self.registry.clock = clock
        self.tracer.clock = clock
        if self.sampler is not None:
            self.sampler.clock = clock

    @property
    def enabled(self) -> bool:
        """Whether span tracing is recording."""
        return self.tracer.enabled

    def start(self) -> None:
        """Begin span recording."""
        self.tracer.enable()

    def stop(self) -> None:
        """Stop span recording (events are kept for export)."""
        self.tracer.disable()

    def tick(self) -> None:
        """Periodic maintenance hook: drives the gauge sampler."""
        if self.sampler is not None:
            self.sampler.maybe_sample()
