"""Set-up probe: what a fresh interpreter pays before a workload's first request.

Imports cyclicaut, builds the workload's first deck of inputs and makes one
warm-up call, then exits.  It also times the pace kernel before and after
that work and prints, as one JSON line, the two kernel times and the
seconds its kernel runs took in all.  measure.py times several of these
processes from spawn to exit, takes the kernel runs out and scales the rest
to the reference pace.
"""

from __future__ import annotations

import argparse
import json
from time import perf_counter

import pace


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    start = perf_counter()
    pace.kernel()  # warm the kernel's bytecode before its first timed run
    before = pace.kernel_seconds()
    kernel_s = perf_counter() - start

    from locate import import_cyclicaut

    import_cyclicaut()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    next(workload.decks(args.seed, sizes))
    workload.warmup()
    after = pace.kernel_seconds()
    print(json.dumps({"kernels": [before, after], "kernel_s": kernel_s + after}))


if __name__ == "__main__":
    main()
