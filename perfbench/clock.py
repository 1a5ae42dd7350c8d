"""Timing rescaled to a fixed machine speed.

On a shared virtual machine (2 vCPUs, Intel Xeon at 2.1 GHz) a tight
Python loop switches between a fast and a slow state, about 50% apart,
several times a minute and sometimes for minutes on end; process CPU time
swings with wall time, so neither is steady across runs.  The benchmark
therefore brackets every timed operation with ``reference_s``, a fixed
pure-Python loop of the same kind of work as the program (Fraction
arithmetic, dict stores, integer loops), and rescales the operation's wall
time to the speed at which that loop takes ``REFERENCE_S``:

    scaled = wall * REFERENCE_S / (mean of the loop's times before and after)

The loop is benchmark code and does not call the program, so a change to
the program moves the scaled time as it moves the wall time; the state of
the machine does not.  ``REFERENCE_S`` is the loop's time in the fast
state of the machine above, so a scaled time reads as a wall time there.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.005


def reference_s() -> float:
    """Wall time of one run of the reference loop."""
    started = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 600):
        acc += Fraction(i, i + 3) * Fraction(3, i + 1)
        table[i % 17] = acc
    total = 0
    for i in range(30000):
        total += i * i % 7
    return time.perf_counter() - started


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` rescaled by the reference loop timed just before and after."""
    return wall_s * REFERENCE_S * 2 / (before_s + after_s)
