"""The machine's speed, probed between units of timed work.

On a shared virtual machine the same work can take up to twice as long from
one minute to the next, and CPU time stretches with wall time, so neither
clock removes the swing.  The benchmark therefore probes the speed right
before and right after each short unit of timed work (a set-up, an offline
``RIT.run``): a probe is the median time of a fixed pure-Python kernel over
several repetitions.  The unit's times are scaled by
``REFERENCE_S / (mean of the two probes)``.  A scaled time is the time the
unit would have taken at the speed at which the kernel takes
``REFERENCE_S``; a slower program stays slower by the same share, while a
slower machine slows the kernel as well.  The wall-clock values are printed
beside the scaled ones.

The speed also swings within a second, between two levels about 1.5x
apart, so probes around a live pass of seconds miss what happened inside
it.  A live pass instead times one kernel after each of its epochs (see
``loads.TimedLedger``): a closed-loop pass is scaled by :func:`pass_factor`
of them, a paced epoch by its own kernel.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional, Sequence

__all__ = ["REFERENCE_S", "UNIT_KERNELS", "kernel_seconds", "probe", "pass_factor", "Speed"]

clock = time.perf_counter

#: Loop count of one kernel (about 4-5 ms on a 2-vCPU VM).
KERNEL_LOOPS = 20_000

#: Kernel time that scaled times are expressed at.
REFERENCE_S = 0.004

#: Kernels per probe around a unit shorter than a second (about 25 ms).
UNIT_KERNELS = 5


def kernel_seconds() -> float:
    """Time one kernel: integer arithmetic and dictionary updates."""
    t_start = clock()
    table = {}
    x = 0
    for i in range(KERNEL_LOOPS):
        x = (x * 31 + i) & 0xFFFF
        table[x] = table.get(x, 0) + i
    return clock() - t_start


def probe(kernels: int) -> float:
    """Median time of ``kernels`` kernels run now."""
    return statistics.median(kernel_seconds() for _ in range(kernels))


def pass_factor(kernels: Sequence[float]) -> float:
    """``REFERENCE_S`` over the mean of kernels timed within a pass.

    The mean, not the median, because the pass runs at each speed level
    for a share of its time; the highest and lowest kernel are dropped so
    one interrupted kernel does not move it.
    """
    ordered = sorted(kernels)
    if len(ordered) > 2:
        ordered = ordered[1:-1]
    return REFERENCE_S / statistics.mean(ordered)


class Speed:
    """Scale factors of consecutive units of work.

    Call :meth:`mark` right before a unit and :meth:`factor` right after
    it; the probe :meth:`factor` takes also serves as the next unit's
    "before", so back-to-back units need no second :meth:`mark`.
    """

    def __init__(self, kernels: int) -> None:
        self.kernels = kernels
        self.before: Optional[float] = None
        self.probes: List[float] = []

    def mark(self) -> None:
        self.before = probe(self.kernels)
        self.probes.append(self.before)

    def factor(self) -> float:
        """``REFERENCE_S`` over the mean kernel time around the last unit."""
        if self.before is None:
            raise RuntimeError("Speed.factor() needs a mark() before the unit")
        after = probe(self.kernels)
        self.probes.append(after)
        scale = REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return scale
