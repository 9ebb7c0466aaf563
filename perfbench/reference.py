"""A fixed pure-Python kernel that measures how fast the host runs now.

Host speed on a shared box drifts by up to 2x over minutes (other tenants,
frequency changes).  The benchmark times this kernel before the first
iteration and after every iteration, and scales each iteration's host
times by ``NOMINAL_S`` over the mean of the two kernel times around it:
a host time is then the seconds the work would take on a host that runs
the kernel in ``NOMINAL_S``.  The kernel uses only the standard library and none of the
simulator's code, so a change to the simulator cannot speed it up or slow
it down; it mimics the simulator's host work -- a heap of event objects,
generator resumes and dict updates.  Changing this file changes every
host metric's unit: keep it frozen.
"""

from __future__ import annotations

import heapq
import time

#: The kernel's time on the host the scale is anchored to (an unloaded
#: 2-core x86 box ran it in 0.085-0.10 s).
NOMINAL_S = 0.1

_EVENTS = 40_000
_PROCESSES = 64


class _Event:
    __slots__ = ("when", "seq", "proc")

    def __init__(self, when: int, seq: int, proc) -> None:
        self.when = when
        self.seq = seq
        self.proc = proc

    def __lt__(self, other: "_Event") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


def _kernel() -> int:
    table: dict = {}

    def process(k: int):
        t = 0
        while True:
            t += yield t
            table[(k, t & 1023)] = t

    procs = [process(k) for k in range(_PROCESSES)]
    heap = []
    for k, proc in enumerate(procs):
        next(proc)
        heapq.heappush(heap, _Event(k, k, proc))
    for seq in range(_EVENTS):
        event = heapq.heappop(heap)
        t = event.proc.send(1 + (seq * 7919) % 13)
        heapq.heappush(heap, _Event(event.when + t % 97, _PROCESSES + seq, event.proc))
    return len(table)


def time_kernel() -> float:
    """Seconds one run of the kernel takes on the host right now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
