"""Host-speed sampler: converts a process's wall time to reference seconds.

The machine the benchmark was defined on changes speed by up to 2x over
tens of seconds (other tenants share its cores), while a repetition does
the same work every time.  A sampler in each benchmark child measures that
speed on the child's own CPU, at the moments the workload runs: every
PERIOD_S of wall time a SIGALRM handler times one fixed block of Python
(polynomial-style dict arithmetic with big integers and gcds, the kind of
work fockbridge does) that does not touch fockbridge.  A stretch of wall
time between two samples counts as

    stretch * REF_BLOCK_S / (block time of the sample that opened it)

reference seconds: how long the stretch would have taken on a host where
the block takes REF_BLOCK_S.  The handler's own time is left out.  A
change to fockbridge changes the work, not the block, so it shows in
reference seconds exactly as in wall seconds.

  start()           install the sampler (first sample taken at once)
  ref_time(t0, t1)  reference seconds in [t0, t1] (time.monotonic)
  factor(t1)        ref_time / wall time from the first sample to t1

If the environment names a file in SPEED_FILE, the process's factor over
its sampled life is written there at exit, for run.py to scale the
process's spawn-to-exit time.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import signal
import time

PERIOD_S = 0.01
# the block's median time in the baseline runs on the defining machine (2
# vCPUs, "Intel(R) Xeon(R) Processor", Python 3.11.7), so that reference
# seconds there read close to wall seconds; it only sets their scale
REF_BLOCK_S = 1.1e-4
SPEED_FILE = "BENCH_SPEED_FILE"

_P1 = {(i, j): (7919 * i + 104729 * j + 1) ** 3
       for i in range(3) for j in range(3)}
_P2 = {(i, j): (15485863 * j + i + 3) ** 2 for i in range(3) for j in range(2)}

# samples: (handler entry, block time, handler exit), monotonic seconds
_samples = []


def _block():
    for _ in range(3):
        out = {}
        for (a, b), x in _P1.items():
            for (c, d), y in _P2.items():
                key = (a + c, b + d)
                out[key] = out.get(key, 0) + x * y
        g = 0
        for v in out.values():
            g = math.gcd(g, v)
        out = {k: v // g for k, v in out.items()}
    return out


def _sample(*_):
    t0 = time.monotonic()
    b0 = time.perf_counter()
    _block()
    b1 = time.perf_counter()
    _samples.append((t0, b1 - b0, time.monotonic()))


def start():
    _sample()
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    path = os.environ.get(SPEED_FILE)
    if path:
        atexit.register(_write, path)


def ref_time(t0, t1):
    """Reference seconds spent in [t0, t1], outside the sampler."""
    total = 0.0
    ends = [s[0] for s in _samples[1:]] + [math.inf]
    for i, ((_, block, out), nxt) in enumerate(zip(_samples, ends)):
        # the stretch this sample opens; before the first sample the
        # first sample's speed holds
        lo = t0 if i == 0 else max(t0, out)
        hi = min(t1, nxt)
        if hi > lo:
            total += (hi - lo) * REF_BLOCK_S / block
    return total


def factor(t1=None):
    t0 = _samples[0][0]
    t1 = time.monotonic() if t1 is None else t1
    return ref_time(t0, t1) / (t1 - t0) if t1 > t0 else 1.0


def _write(path):
    signal.setitimer(signal.ITIMER_REAL, 0)
    with open(path, "w") as fh:
        json.dump({"factor": factor(), "samples": len(_samples)}, fh)
