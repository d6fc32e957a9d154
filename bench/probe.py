"""Host-speed probe: time a region in reference-host seconds.

On a shared VM, Python runs at two distinct speeds, about 1.7x apart.
A neighbour's load moves a vCPU between them in phases that last from
under a second to minutes, so the wall time of identical work can
drift by tens of percent between runs.  The probe measures that speed
while the region runs.  Every ``INTERVAL_S`` a timer signal interrupts
the region and times a fixed pure-Python kernel.  Each slice of region
wall time is then scaled by how fast the kernel ran right after it:

    fast_s = sum(slice_i * REF_S / probe_i)

``REF_S`` is the kernel's duration on the reference host at its fast
speed, so ``fast_s`` reads as seconds on that host at that speed.
The kernel's own time is excluded from both ``wall_s`` and ``fast_s``.
It touches none of the simulator's state, so simulated results are
unchanged; the probe only measures the CPU.
"""

from __future__ import annotations

import signal
import time
from typing import Dict, List, Optional, Tuple

#: Probe period.  Short enough that speed phases span many slices;
#: the kernel then costs about 2% of the region.
INTERVAL_S = 0.01

#: Fast-speed kernel duration on the reference host (2-vCPU Intel Xeon
#: VM, CPython 3.11): the median over ~300 processes of each process's
#: 10th-percentile probe.  A constant, so that a run made entirely in
#: a slow phase is scaled too.
REF_S = 195e-6

_KERNEL_ITERATIONS = 1500


def _kernel() -> int:
    table: Dict[int, int] = {}
    total = 0
    for i in range(_KERNEL_ITERATIONS):
        table[i & 255] = i
        total += table.get((i * 7) & 255, 0)
    return total


class SpeedProbe:
    """Samples CPU speed during named regions of one process.

    Use ``with probe.region("replay"): ...`` around each timed region
    (regions may not nest) and read ``wall_s(name)``/``fast_s(name)``
    afterwards.
    """

    def __init__(self) -> None:
        #: region name -> [(slice wall s, probe s or None for the tail)]
        self._slices: Dict[str, List[Tuple[float, Optional[float]]]] = {}
        self._current: Optional[List[Tuple[float, Optional[float]]]] = None
        self._last = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:      # a tick that fired inside the kernel
            return
        self._busy = True
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self._current.append((start - self._last, end - start))
        self._last = end
        self._busy = False

    def region(self, name: str) -> "_Region":
        return _Region(self, name)

    def wall_s(self, name: str) -> float:
        """Region wall time minus the probes' own time."""
        return sum(s for s, _ in self._slices[name])

    def fast_s(self, name: str) -> float:
        """Region time scaled slice by slice to the reference speed.  The
        tail after the last probe takes the last probe's speed; a region
        too short to be probed is returned unscaled."""
        total = 0.0
        last_probe = None
        for wall, probe in self._slices[name]:
            probe = probe if probe is not None else last_probe
            total += wall * REF_S / probe if probe else wall
            last_probe = probe
        return total


class _Region:
    def __init__(self, probe: SpeedProbe, name: str) -> None:
        self.probe = probe
        self.name = name

    def __enter__(self) -> None:
        probe = self.probe
        probe._current = probe._slices.setdefault(self.name, [])
        self._previous = signal.signal(signal.SIGALRM, probe._tick)
        probe._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        probe = self.probe
        probe._current.append((time.perf_counter() - probe._last, None))
        probe._current = None
