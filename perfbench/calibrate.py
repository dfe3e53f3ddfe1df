"""A fixed calibration kernel that the closed loop runs between ops.

The benchmark runs on a few cores of a shared host, whose speed drifts by
about 25 % over seconds to minutes as other tenants come and go; the same op
then takes 25 % longer, in CPU time as in wall time.  No run length averages
that away.  The kernel does a fixed amount of work with the same mix as the
workloads (interpreter arithmetic; tuples, a frozenset and string formatting;
a memory-bound numpy scan; a small BLAS product) and is timed before and
after every op.  An op's wall time divided by the mean of the two kernel
times around it counts the op in kernel units, in which the host's drift
cancels; the kernel never calls stepldp, so a change to the program moves
the ratio as it moves the wall time.

The kernel holds about 10 MB while it runs and 8 MB between runs, which is
part of the worker's peak resident memory.
"""

import time

import numpy as np

_RNG = np.random.default_rng(0)
_SCAN = _RNG.random(1_000_000)
_MAT = _RNG.random((200, 200))


def kernel():
    """Run the fixed calibration work once; returns its wall time in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    pairs = [(i, i + 1) for i in range(40_000)]
    frozenset(pairs)
    "\n".join("%d %d" % pair for pair in pairs[:15_000])
    for _ in range(4):
        np.nonzero(_SCAN < 0.35)
    for _ in range(10):
        _MAT @ _MAT
    return time.perf_counter() - start
