"""How fast the machine runs plain Python right now.

On a shared VM the same code runs up to about 1.6 times slower in some
spells than in others, as other tenants come and go; the spells last from
a fraction of a second to minutes.  Wall times taken minutes apart then
differ by 20 to 50% without any change in the program.  The benchmark runs
``kernel``, a fixed piece of plain-Python work that touches no isoflow code,
between its timed ops and scales every end-to-end time to a machine on which
one call of ``kernel`` takes ``NOMINAL_S``.  Slow spells stretch the ops and
the kernel alike, so the scaled times keep what the program costs and drop
most of what the neighbours cost.
"""

import math
import time

NOMINAL_S = 4.0e-4  # one kernel call on the reference machine (see README)
SHARE = 0.03  # kernel time after an op, as a share of that op's latency
WINDOW = 5  # ops on each side of an op whose kernel calls set its scale


def kernel():
    s = 0.0
    d = {}
    for i in range(1000):
        s += math.sin(i * 1e-3) * (i % 7)
        d[i % 61] = d.get(i % 61, 0) + 1
    return s + len(d)


def sample(seconds, out):
    """Call ``kernel`` at least once and for at least ``seconds``.

    Each call's time is appended to ``out``, which is returned.
    """
    end = time.perf_counter() + seconds
    while True:
        a = time.perf_counter()
        kernel()
        b = time.perf_counter()
        out.append(b - a)
        if b >= end:
            return out


def factor(seconds, calls):
    """Scale for a wall time measured alongside ``calls`` kernel calls that took ``seconds``."""
    return NOMINAL_S * calls / seconds


def scaled(lat, kernel):
    """Each op latency scaled by the kernel calls after the ops within ``WINDOW`` of it.

    ``kernel[i]`` is (seconds, calls) of the kernel run after op ``i``.  The
    window follows spells that last about a second; a scale for the whole
    run would leave the ops caught in a slow spell in the tail.
    """
    out = []
    for i, x in enumerate(lat):
        near = kernel[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(x * factor(sum(s for s, _ in near), sum(c for _, c in near)))
    return out
