"""The host-speed probe: a fixed pure-Python ``Fraction`` elimination.

The shared host this benchmark was written on runs a core at two speeds
about 2x apart, and switches between them anywhere from several times a
second to once in half a minute, independently on each core.  A job's
time therefore depends on how much of it ran at which speed, and that
share changes from run to run.  The probe does the same kind of work as
freejordan (pure-Python exact arithmetic) but none of freejordan's code,
so a change to freejordan cannot move it.  Timed right before and after a
job on the same core, it gives the speed the job ran at: the job's time
divided by its probe's time does not depend on that speed, and
``REF_S`` times that ratio is the job's time at the host's fast speed.
"""

from __future__ import annotations

import random
import resource
import time
from fractions import Fraction

N = 16
# The probe's time at the fast speed of the box the benchmark was written
# on (2.1 GHz Xeon under KVM, Python 3.11.7); it only sets the scale.
REF_S = 0.0115


def kernel(n: int = N) -> int:
    """Rank of a fixed n x n integer matrix by Gauss-Jordan over Fraction."""
    rng = random.Random(1)
    m = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, n) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(n):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def cpu_s() -> float:
    """User+sys CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def timed() -> tuple[float, float]:
    """One run of the kernel: (wall seconds, CPU seconds)."""
    c0, t0 = cpu_s(), time.perf_counter()
    kernel()
    return time.perf_counter() - t0, cpu_s() - c0
