"""Reference-speed clock: wall time scaled to a fixed host speed.

The host this benchmark was tuned on is a shared 2-vCPU VM.  The speed
of its CPU changes by up to 1.65x, in spells that last from a second
to many minutes (other tenants' load).  The same code therefore ran
4.0 s in one run and 6.6 s five minutes later.  A median over phases or
ops cannot remove a drift that outlasts the whole run.

So the workloads measure the host's speed while they run.  Between ops
(at most once every ``INTERVAL_S``), they *tick*: run a reference slice
twice and time the second run.  A slice is fixed work on constant data
that imports nothing from the program, so a change to the program
never changes the slice; the first, untimed run refills the caches the
program's op left cold, so the timed run does not depend on the op
before it either.  A stretch of wall time is then scaled by ``s / m``,
where ``s`` is the slice's nominal duration and ``m`` the median timed
slice of the ``2 * NEIGHBOURS`` ticks around that stretch.  The result
is the time the stretch would have taken at the speed at which one
slice takes ``s`` seconds.  Time spent in ticks is left out of every
scaled figure.

Two slices exist, because a slowdown of the host does not slow all
code alike.  :data:`MIXED` (JSON, ``ast``, sort and a small numpy
reduction) is for interpreter-bound workloads.  On that host, over
150 s of repeated identical sweep and lint ops, the 10-second medians
of raw op latency spread 11-16 % (quartile distance over median), and
the same medians of op latency over the slice time next to each op
spread under 2 %.  :data:`ARRAYS` adds a pass over a 16 MB array, for
the paper workload, whose noise sampling streams arrays far larger
than the caches.  Over 150 s of paper regenerations, phase times
scaled with ``MIXED`` spread 15.5 %, more than the raw 10.4 %, and with
``ARRAYS`` 5.4 %.
"""

from __future__ import annotations

import ast
import bisect
import functools
import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

clock = time.perf_counter

#: Shortest wall time between two ticks.
INTERVAL_S = 0.05
#: Ticks on each side of a stretch whose median sets its speed.
NEIGHBOURS = 2

_DOC = {f"k{i}": [i, str(i) * 3, {"x": i / 3}] for i in range(150)}
_SRC = "\n".join(
    f"def f{i}(a, b):\n"
    f"    if a > {i}:\n"
    f"        return [x * b for x in range(a)]\n"
    f"    return {{'k': a, 'v': b}}\n" for i in range(25))
_ARR = np.arange(60_000, dtype=float)




def mixed_slice() -> None:
    json.loads(json.dumps(_DOC, sort_keys=True))
    ast.parse(_SRC)
    sorted(_DOC.items(), key=lambda kv: kv[1][1])
    float((np.sqrt(_ARR) * 1.5).sum())


@functools.cache
def _rows() -> np.ndarray:
    # Made on first use, so that only the workload using it pays its
    # 16 MB of resident memory.
    return np.linspace(0.0, 1.0, 512 * 4096).reshape(512, 4096)


def array_slice() -> None:
    """:func:`mixed_slice` plus a row reduction, partition and gather
    over a 16 MB array."""
    mixed_slice()
    rows = _rows()
    totals = rows.sum(axis=1)
    idx = np.argpartition(totals, -64)[-64:]
    float(rows[idx].sum())


@dataclass(frozen=True)
class Reference:
    """A reference slice and its nominal duration (about its duration
    on the tuning host in its fast spells).  Scaled times are seconds
    at the speed where one slice takes ``seconds``; the constant only
    sets the unit, and every run of every commit uses the same one."""

    work: Callable[[], None]
    seconds: float


MIXED = Reference(mixed_slice, 0.0016)
ARRAYS = Reference(array_slice, 0.0039)


class RefClock:
    """Samples the host's speed and scales stretches of wall time."""

    def __init__(self, reference: Reference = MIXED) -> None:
        self.reference = reference
        #: Start, end, CPU seconds and timed-slice seconds of every
        #: tick, in time order.
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.cpu: list[float] = []
        self.samples: list[float] = []
        # The first slice in a process is slower (lazy imports, cold
        # caches); it is set-up work, not a speed sample.
        reference.work()

    def tick(self, force: bool = False) -> None:
        """Take one speed sample, unless the last one ended less than
        ``INTERVAL_S`` ago."""
        if not force and self.ends and \
                clock() - self.ends[-1] < INTERVAL_S:
            return
        work = self.reference.work
        c0, t0 = time.process_time(), clock()
        work()
        t1 = clock()
        work()
        t2 = clock()
        self.cpu.append(time.process_time() - c0)
        self.starts.append(t0)
        self.ends.append(t2)
        self.samples.append(t2 - t1)

    def _factor(self, gap: int) -> float:
        """Speed factor of gap ``gap``, the stretch between tick
        ``gap - 1`` and tick ``gap``."""
        n = len(self.starts)
        # 2 * NEIGHBOURS ticks centred on the gap, shifted inwards at
        # either end of the record.
        lo = max(0, min(gap - NEIGHBOURS, n - 2 * NEIGHBOURS))
        hi = min(n, lo + 2 * NEIGHBOURS)
        return self.reference.seconds / statistics.median(
            self.samples[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds ``[t0, t1]`` would have taken at reference speed,
        leaving out the ticks inside it."""
        if not self.starts:
            raise RuntimeError("no speed sample taken")
        n = len(self.starts)
        total = 0.0
        gap = max(0, bisect.bisect_right(self.starts, t0) - 1)
        while gap <= n:
            a = self.ends[gap - 1] if gap > 0 else float("-inf")
            if a >= t1:
                break
            b = self.starts[gap] if gap < n else float("inf")
            overlap = min(b, t1) - max(a, t0)
            if overlap > 0:
                total += overlap * self._factor(gap)
            gap += 1
        return total

    def _inside(self, t0: float, t1: float):
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return range(lo, max(lo, hi))

    def busy(self, t0: float, t1: float) -> float:
        """Raw seconds of ``[t0, t1]`` outside the ticks inside it."""
        return (t1 - t0) - sum(self.ends[k] - self.starts[k]
                               for k in self._inside(t0, t1))

    def slice_cpu(self, t0: float, t1: float) -> float:
        """CPU seconds of the ticks inside ``[t0, t1]``."""
        return sum(self.cpu[k] for k in self._inside(t0, t1))
