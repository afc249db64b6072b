"""Host-speed probe: a fixed reference computation timed between windows.

The reference host is shared, and its speed changes on time scales
from a second to minutes, on both cores: this probe's time ranged over
2x within single runs.  Raw wall-clock figures of the same program
therefore spread by 12-35% (interquartile range over median, 7 runs)
across runs, more than any bound a regression gate can use.

The benchmark times this probe before each window of timed calls (every
~0.1 s).  A window's wall time is multiplied by
``(REFERENCE_NS / p) ** ELASTICITY``, where ``p`` is the median probe
time of the windows around it (the median filters the probe's own
jitter and follows the host's speed changes, which last a second or
more).  The figures the benchmark reports are thus wall-clock times at
the host's reference speed.  Raw wall-clock figures are printed beside
them.

The probe is benchmark code, not library code, so no change to the
program can change its cost.  Like the library, it is mostly
interpreter work (dict and list traffic) with small NumPy calls; it has
a small working set, because a cache-missing probe slowed down under
the host's memory contention about twice as much as the library did.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Probe time at the reference speed: the fast state of the reference
#: host (2-vCPU container, Python 3.11).  Only ratios between runs on
#: one host matter, so the exact value is a convention.
REFERENCE_NS = 320_000

#: How much the library's time moves with the probe's: the slope of log
#: window time per key on log probe time, fitted within runs on the
#: reference host (point-rw 0.54 over 813 windows, sharded-churn 0.68
#: over 1053).  With it the 7-run spreads fell to 2-9% for throughput
#: and median latency; a full (1.0) correction overshot on point-rw.
ELASTICITY = 0.6

_REPEATS = 3
#: windows (about 0.1 s each) whose probes give one window's speed
_SPAN = 5


class SpeedProbe:
    """Times a fixed computation, independent of the library."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._sorted = np.sort(rng.integers(0, 2**62, 4096, dtype=np.uint64))
        self._queries = rng.integers(0, 2**62, 256, dtype=np.uint64)

    def _kernel(self) -> int:
        d: dict[int, int] = {}
        slots = [0] * 64
        acc = 0
        for i in range(1200):
            k = (i * 2654435761) & 1023
            d[k] = d.get(k, 0) + i
            slots[k & 63] += 1
            acc += len(d)
        for _ in range(8):
            acc += int(np.searchsorted(self._sorted, self._queries)[-1])
        return acc

    def measure(self) -> int:
        """Fastest of a few kernel runs, in ns (the minimum drops interrupts)."""
        best = None
        for _ in range(_REPEATS):
            t0 = time.perf_counter_ns()
            self._kernel()
            dt = time.perf_counter_ns() - t0
            best = dt if best is None or dt < best else best
        return best


def speed_factor(probe_ns: float) -> float:
    """Multiplier from wall time to reference-speed time at a probe time."""
    return (REFERENCE_NS / probe_ns) ** ELASTICITY


def speed_factors(probe_ns: list[int]) -> list[float]:
    """Per-window multipliers, each from the median probe of its neighbours."""
    half = _SPAN // 2
    return [
        speed_factor(statistics.median(probe_ns[max(0, i - half) : i + half + 1]))
        for i in range(len(probe_ns))
    ]
