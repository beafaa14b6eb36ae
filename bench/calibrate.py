"""Reference work that scales measured times to a fixed CPU speed.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 1.8x for minutes at a time, as other tenants come and go; a
``forward_heavy`` pass that takes 1.1 s in one minute takes 2.0 s in the
next, and its CPU time rises with it.  So a timed sample can be taken
between two runs of a fixed reference and reported as

    seconds * reference_s / (mean time of the two reference runs)

that is, the time it would take on a CPU that runs the reference in
``reference_s``.  The references are fixed code that does not touch the
package, so a change to the program moves the scaled time and a change in
host speed does not.

How much a busy host slows code depends on the kind of work, so a reference
only helps where it slows like the work it scales:

* passes of workloads dominated by interpreted Python float math (the
  projector's strip areas; ``workloads.SCALED``) are scaled by ``kernel``,
  which does that kind of work;
* passes dominated by numpy array work (back projection at grid 320) hardly
  follow the host's speed, so their wall time is reported as measured;
* set-up, which is mostly loading shared libraries and byte code, is scaled
  by a fresh interpreter that only imports numpy, the bulk of what importing
  the package costs: ``STARTUP_SNIPPET`` taking ``STARTUP_REFERENCE_S``.
"""

from __future__ import annotations

import math
import time

# Median times of the references on the 2-vCPU Xeon VM the baseline was
# taken on, so scaled times there read close to its median wall times.
KERNEL_REFERENCE_S = 0.017
STARTUP_REFERENCE_S = 0.13
STARTUP_SNIPPET = "import time, numpy; print(repr(time.perf_counter()))"
SETTLE_S = 0.2


def _strip(radius: float, lo: float, hi: float) -> float:
    a = min(max(lo, -radius), radius)
    b = min(max(hi, -radius), radius)
    if b <= a:
        return 0.0

    def f(s: float) -> float:
        return s * math.sqrt(max(radius * radius - s * s, 0.0)) + radius * radius * math.asin(
            min(max(s / radius, -1.0), 1.0)
        )

    return f(b) - f(a)


def kernel() -> float:
    """Strip areas of two disks, the projector's kind of work."""
    total = 0.0
    for i in range(4000):
        lo = -20.0 + (i % 160) * 0.25
        total += _strip(10.0, lo, lo + 0.25) + _strip(4.0, lo - 3.0, lo - 2.75)
    return total


def kernel_seconds() -> float:
    """Median wall time of three runs of ``kernel``.

    After a BLAS call, BLAS worker threads spin on the other core for about
    0.1 s, and a kernel run in that time reads up to 2x slow; so it waits
    ``SETTLE_S`` first.  The median drops a run hit by a short stall.
    """
    time.sleep(SETTLE_S)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def scaled(seconds: float, before: float, after: float, reference: float) -> float:
    """``seconds`` at reference speed, from the reference runs on either side
    of it, which take ``reference`` seconds at that speed."""
    return seconds * reference / ((before + after) / 2.0)
