"""The calibration kernel both timings are divided by.

A fixed pure-Python loop run beside whatever is being timed.  Dividing
by it takes the machine, and what else the machine is doing, out of the
number; ``CALIB_REF_US`` is what the kernel takes on the reference
machine, so that normalised times read as microseconds there.

What the kernel does was chosen by measurement (README.md, "The
calibration kernel"): on a shared box a tight arithmetic loop (method
call, ``dict.get``, modular multiply) slows 1.65x when a neighbour is
busy while the workloads slow 1.4x and a cold start 1.3x, so dividing by
it added more noise than it removed.  Event-queue and sorting work --
allocate tuples, push and pop a heap, fill and sort short lists -- slows
by the same 1.3-1.4x, and is what the simulator itself spends its time
on.
"""

from __future__ import annotations

import heapq
from time import process_time

CALIB_REF_US = 100_000.0
HEAP_STEPS = 40_000
HEAP_DEPTH = 512
SORT_LISTS = 800
SORT_LENGTH = 200


def calibrate() -> float:
    """CPU seconds the kernel took just now."""
    started = process_time()
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    x = 12345
    for i in range(HEAP_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (x * 1e-9 + i * 1e-6, i, None))
        if len(heap) > HEAP_DEPTH:
            pop(heap)
    smallest = 0
    for _ in range(SORT_LISTS):
        values = []
        for _ in range(SORT_LENGTH):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            values.append(x)
        smallest += sorted(values)[0]
    return process_time() - started
