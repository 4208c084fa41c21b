"""Machine-speed probes, and times normalised by them.

On a shared machine the speed of one core drifts by a quarter and more
within seconds, as other tenants come and go. The same factorcrit work then
takes that much more or less wall time, and that drift, not the program,
would set the spread of every timing. So while a workload runs, a
``Speedometer`` times a fixed pure-Python reference kernel every
``PERIOD_S`` seconds from a SIGALRM handler, inside the workload's own
thread. A measured interval is then scaled by the local speed: its wall time
(the probes' own time taken out) times ``REFERENCE_S`` over the reference's
local duration. The result is the time the interval would take on a machine
where the kernel takes ``REFERENCE_S``; its unit is still the second.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

# duration of one reference kernel on an unloaded core of the reference
# machine (2 cores, Python 3.11.7); it only sets the scale of normalised times
REFERENCE_S = 0.001
PERIOD_S = 0.05
# probes within this distance of an interval's ends speak for its speed
WINDOW_S = 0.25

# the circulant graph C16(1, 5)
_ADJ = tuple(sum(1 << (v + d) % 16 for d in (1, -1, 5, -5)) for v in range(16))


def _components(adj, mask: int) -> int:
    count = 0
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                nxt |= adj[low.bit_length() - 1]
            frontier = nxt & mask & ~comp
            comp |= frontier
        count += 1
        mask &= ~comp
    return count


def reference() -> int:
    """Fixed pure-Python work of the program's kind: bit tricks on vertex
    masks, tuple indexing and calls. It allocates no container object, so it
    does not shift the garbage collector's schedule in the workload it
    interrupts."""
    total = 0
    for sub in range(1, 1 << 16, 160):
        total += _components(_ADJ, sub)
    return total


def probe() -> float:
    """Seconds one reference kernel takes now."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class Speedometer:
    """Probes the speed every ``PERIOD_S`` seconds while started. The probe
    times go to typed arrays, so probing creates no object the garbage
    collector tracks."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        self.starts.append(time.perf_counter())
        reference()
        self.ends.append(time.perf_counter())
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> list[tuple[float, float]]:
        """Stop probing; return the probes as (start, end) pairs."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return list(zip(self.starts, self.ends))


class Normaliser:
    """Turns measured wall intervals into speed-normalised seconds."""

    def __init__(self, probes: list[tuple[float, float]]) -> None:
        if len(probes) < 5:
            raise ValueError(f"only {len(probes)} speed probes")
        self.starts = [a for a, _ in probes]
        self.ends = [b for _, b in probes]

    def seconds(self, a: float, b: float) -> float:
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        if lo == hi:  # no probe near: the nearest one speaks for the interval
            lo = min(max(0, lo - 1), len(self.starts) - 1)
            hi = lo + 1
        near = [e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]
        factor = REFERENCE_S * sum(1 / d for d in near) / len(near)
        # probe time that fell inside the interval is not the program's
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_right(self.starts, b)
        inside = sum(min(e, b) - s for s, e in zip(self.starts[i:j], self.ends[i:j]))
        return (b - a - inside) * factor
