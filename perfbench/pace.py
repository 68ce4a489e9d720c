"""Machine pace: a fixed pure-Python kernel timed between the timed jobs.

On a shared host the CPU runs the same bytecode at speeds that drift by a
third within seconds: a fixed loop took anywhere from 3.6 to 5.0 ms within
one minute on a 2-core VM, and successive runs land on different stretches
of that drift.  Timing a kernel that does not touch cyclicaut right before
and right after each stretch of jobs tracks the drift: the ratio of a job's
time to its neighbouring kernel times spread a third as much as the job's
time alone.  measure.py therefore scales each job's latency by
``REFERENCE_S / kernel seconds`` and reports times at the reference pace,
the pace at which one kernel run takes exactly REFERENCE_S.  A change to
cyclicaut moves the scaled times as it moves the raw ones; only the pace of
the machine divides out.  Runs also print the raw times.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.002  # one kernel run at the reference pace
INTERVAL_S = 0.05  # busy time between two kernel runs


def kernel() -> int:
    """Interpreter-bound work of fixed size: integer arithmetic and dict
    stores, with no container allocated in the loop, so no garbage
    collection runs inside it."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(10_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return acc


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from raw seconds to seconds at the reference pace, for work
    done between two kernel runs."""
    return 2 * REFERENCE_S / (before + after)
