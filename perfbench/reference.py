"""A fixed reference block that measures how fast the machine is right now.

On a small share of a shared host the same job's wall time drifts by up to
a factor of two over minutes, with the load of other tenants.  The runner
times this block between jobs and reports each job's wall time divided by
the mean of the two blocks around it, so that drift common to both cancels.

The block does a fixed amount of work of the three kinds the ksurf jobs do,
about a third of its time each on this machine: many numpy calls on short
arrays (the anti-diagonal sweeps), numpy ufuncs in place on an 8 MB array
(frames, Sym stream, dressing), and float-to-text formatting (CSV and
OBJ export).  It takes 0.4-0.6 s on a 2-core Intel Xeon.  A normalised
time, t * NOMINAL_S / (block time), is in seconds on a machine where the
block takes exactly NOMINAL_S.  The block calls nothing in ksurf, so a
change to the program does not change it.  Never change the block or
NOMINAL_S: that would rescale every normalised metric.
"""

from __future__ import annotations

import io
import time

import numpy as np

_RNG = np.random.default_rng(12345)
_SHORT = _RNG.random(1024)
_LONG = _RNG.random(1 << 20)
_TEXT = _RNG.random(4096)
SHORT_REPS = 5_000
LONG_REPS = 12
TEXT_REPS = 12
NOMINAL_S = 0.5


def _work() -> float:
    a = _SHORT
    for _ in range(SHORT_REPS):
        a = np.sin(a) * 0.5 + np.cos(a[::-1]) * 0.5
    b = _LONG  # in place: a block allocates no large array, so peak RSS stays the job's
    for _ in range(LONG_REPS):
        np.sin(b, out=b)
        b *= 0.5
        b += 0.25
    buf = io.StringIO()
    for _ in range(TEXT_REPS):
        for i, v in enumerate(_TEXT):
            buf.write(f"v {v!r} {i * 0.5!r} 0.0\n")
    return float(a[0] + b[0]) + buf.tell()


def block() -> float:
    """Wall time of one reference block, in seconds."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
