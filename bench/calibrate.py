"""Calibration kernel: a fixed piece of pure-Python work that tracks host speed.

On a shared host, how fast the same instructions run drifts by tens of
percent within minutes.  The benchmark times this kernel right
before and right after every answer and divides the answer's time by the
mean of the two, so most of the drift cancels; it then multiplies by
NOMINAL_KERNEL_S to report calibrated seconds, the time the answer takes
on a machine where the kernel takes exactly that long.  The kernel mixes
integer arithmetic, dict and list work, like the program's graph loops.
It is benchmark code and never changes with the program.
"""
from __future__ import annotations

import time

# About the kernel's median time on the host where the baseline in NOTES.md
# was recorded (2 vCPUs of an Intel Xeon, Python 3.11), where it ranged
# from 0.7 to 1.3 ms from one minute to the next.
NOMINAL_KERNEL_S = 1.0e-3


def kernel() -> float:
    """Seconds taken by one run of the fixed work."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    stack: list[int] = []
    acc = 0
    for i in range(3000):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 255] = table.get(acc & 255, 0) + 1
        stack.append(acc)
        if len(stack) > 32:
            acc ^= stack.pop(0)
    return time.perf_counter() - start
