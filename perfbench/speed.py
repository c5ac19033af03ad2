"""Sampling the speed of the core a benchmark process runs on.

On a shared virtual machine the speed of pure-Python code changes by up to
~1.8x from one second to the next and drifts over minutes, on each vCPU
separately (a reference computation on the other vCPU does not follow it).
`start()` makes the process time a fixed ~3 ms exact-arithmetic kernel on
its own core every INTERVAL_S, from a SIGALRM handler, which Python runs in
the main thread between bytecodes; so the samples interleave with whatever
the process is computing.  An operation's time with the sample time taken
out, scaled by REFERENCE_NS over the mean sample during the operation, is its
time at reference speed.  The kernel uses no borcherds_kit code, so no change
to the library moves it.
"""

import atexit
import json
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1
# median time of kernel() on the machine the benchmark was written on (a
# 2-vCPU Intel Xeon virtual machine, Python 3.11.7): the reference speed
REFERENCE_NS = 3_000_000

samples = []   # (start, end) in time.monotonic_ns(), one per tick


def kernel():
    """Rational arithmetic on dict-keyed tuples, the library's hot pattern."""
    acc = {}
    for i in range(300):
        key = (i % 37, i % 11, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 97 + 1, i % 13 + 1) * Fraction(3, 7)
    return acc


def kernel_ns(start_ns, end_ns):
    """Mean kernel time over [start_ns, end_ns]: the mean tick inside it, or,
    for an interval with fewer than five ticks such as a short set-up, the
    median of five kernels run now."""
    ticks = between(start_ns, end_ns)
    if len(ticks) >= 5:
        return sum(ticks) / len(ticks)
    times = []
    for _ in range(5):
        start = time.monotonic_ns()
        kernel()
        times.append(time.monotonic_ns() - start)
    return sorted(times)[2]


def _tick(signum, frame):
    start = time.monotonic_ns()
    kernel()
    samples.append((start, time.monotonic_ns()))


def start():
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    # a tick after interpreter shutdown has reset the handler would kill
    # the process with SIGALRM
    atexit.register(stop)


def stop():
    signal.setitimer(signal.ITIMER_REAL, 0)


def dump(path):
    stop()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(samples, fh)


def load(path):
    with open(path, encoding="utf-8") as fh:
        samples.extend(tuple(s) for s in json.load(fh))


def between(start_ns, end_ns):
    """Durations of the samples taken inside [start_ns, end_ns]."""
    return [b - a for a, b in samples if a >= start_ns and b <= end_ns]
