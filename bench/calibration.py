"""A fixed pure-Python task that measures how fast the machine runs now.

On a shared machine the speed of the same code drifts by tens of percent
over minutes, with other tenants' load. The benchmark times this task
between its timed calls and scales each call's time by ``NOMINAL_S`` over
the task's time around it, which cancels most of that drift: the
end-to-end times are those of a machine on which the task takes
``NOMINAL_S``. The task imports nothing from bridgegen, and it runs with
the garbage collector off, so that its time does not grow with the heap
bridgegen keeps alive: a change to bridgegen does not move it.
"""

import gc
from time import perf_counter

NOMINAL_S = 0.004


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def calibrate(n=6000):
    """Seconds the task takes now: dict updates, small objects, type
    checks and attribute reads, as an interpreter or compiler does."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        acc = 0
        kept = []
        for i in range(n):
            k = i & 255
            table[k] = table.get(k, 0) + i
            pair = _Pair(i, k)
            if isinstance(pair, _Pair):
                acc += pair.x - pair.y
            kept.append(pair)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
