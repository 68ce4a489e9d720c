"""Benchmark of cyclicaut: three workloads, checked outputs, per-layer traces.

From the root of a checkout:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0

--workload is classify, sweep, certify, or all (each in its own process).
--trace 0 measures the end-to-end metrics; --trace 1 makes a traced run and
reports the per-layer metrics.  --smoke shrinks every input for the
benchmark's own test.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md here.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from locate import PACKAGE, ROOT, import_cyclicaut

WORKLOAD_NAMES = ("classify", "sweep", "certify")


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(str(path.relative_to(PACKAGE)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(load_start: list[float]) -> dict:
    """What the result was measured on, so a noisy run can be recognised."""
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def run_one(args) -> dict:
    import measure

    load_start = list(os.getloadavg())
    if args.trace:
        run = measure.traced(args.workload, args.seed, args.smoke)
    else:
        run = measure.end_to_end(args.workload, args.seed, args.seconds, args.smoke)
    failures = run.failures()
    attempted = len(run.records)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in run.metrics.items():
        print(f"  {name:46s} {value:14.6f} {unit}")
    if not args.trace:
        print(f"  {'failed_ratio':46s} {len(failures) / attempted:14.6f} ratio"
              f"  ({len(failures)} of {attempted})")
    for note in run.notes:
        print(f"  {note}")
    by_kind = collections.Counter(r.kind for r in failures)
    for kind, count in sorted(by_kind.items()):
        first = next(r for r in failures if r.kind == kind)
        label = "wrong answer" if first.wrong else "unexpected outcome"
        print(f"  FAILED {kind} x{count} ({label}), first: {first.failure[:160]}")
    for record in run.defects:
        if record.failure is None:
            print(f"  KNOWN DEFECT {record.kind} no longer shows: the probe passed")
        else:
            label = "wrong answer" if record.wrong else "unexpected outcome"
            print(f"  KNOWN DEFECT {record.kind} ({label}, untimed, not in attempted): "
                  f"{record.failure[:160]}")
    print("stamp " + json.dumps(stamp(load_start)))
    return {
        "correct": not any(r.wrong for r in failures + run.defects),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in run.metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so each has its own peak RSS."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"error: workload {name} exited with {done.returncode}")
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="busy time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's test")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_cyclicaut()
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
