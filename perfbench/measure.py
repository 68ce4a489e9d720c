"""Untraced and traced runs of one workload, and the metrics each yields.

End-to-end metrics come only from the untraced run, with every time scaled
to the reference pace of pace.py.  The traced run takes a
fixed prefix of the same input stream and runs each job twice, untraced and
traced, so its per-layer counts repeat exactly for a seed and the ratio of
the two busy times is the tracing overhead.
"""

from __future__ import annotations

import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import cyclicaut

import pace
import spans
from workloads import FULL, SMOKE, WORKLOADS, Job, Record, Sizes, Workload, attempt, defect_probes

HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 9
TAIL_SAMPLES = 10  # timed calls a run needs beyond p99 on classify and certify
UNIT = {"classify": "request", "sweep": "ordered triple", "certify": "job"}


@dataclass
class Run:
    records: list[Record]
    metrics: dict[str, tuple[float, str]]
    notes: list[str] = field(default_factory=list)
    defects: list[Record] = field(default_factory=list)  # certify's known-defect probes

    def failures(self) -> list[Record]:
        return [r for r in self.records if r.failure is not None]


def percentile(samples: list[tuple[float, int]], q: float) -> float:
    """Nearest-rank percentile of the latency per unit of work, from
    (latency, work units) samples.

    Each sample's latency is spread evenly over its work units and every
    unit counts once.  Classify and certify jobs are one unit each, so this
    is the plain per-job percentile; a sweep call covers thousands of
    ordered triples, so there it is the time per triple, weighted by triples."""
    per_unit = sorted((latency / work, work) for latency, work in samples)
    rank = math.ceil(q * sum(work for _, work in per_unit))
    covered = 0
    for latency, work in per_unit:
        covered += work
        if covered >= rank:
            return latency
    raise AssertionError("rank beyond the samples")


def latency_samples(name: str, records: list[Record], paced: bool) -> list[tuple[float, int]]:
    """(latency, work) per job; on sweep, per distinct call summed over the
    run's passes.  Every sweep pass makes the same calls, and p99 falls
    inside the single costliest call; taken per pass, it read the slowest
    pass of that call and spread with the pace error of one call."""
    if name != "sweep":
        return [(r.paced if paced else r.latency, r.work) for r in records]
    merged: dict[str, list] = {}
    for r in records:
        total = merged.setdefault(r.kind, [0.0, 0])
        total[0] += r.paced if paced else r.latency
        total[1] += r.work
    return [tuple(total) for total in merged.values()]


class SetupProbes:
    """Spawn-to-exit times of fresh set-up probe processes, spread over the
    run: probe i is due once the run has been busy for i / SETUP_SPAWNS of
    its seconds, since spawn times came in bursts of alike values.

    Each time is taken at the reference pace of the probe itself: the probe
    times the pace kernel before and after its work, and the time of its
    kernel runs is taken out.  A kernel timed in this process around the
    spawn did not track the probe's pace; one timed in the probe did."""

    def __init__(self, name: str, seed: int, smoke: bool, seconds: float) -> None:
        self.command = [
            sys.executable, str(HERE / "setup_probe.py"), "--workload", name, "--seed", str(seed),
        ] + (["--smoke"] if smoke else [])
        self.seconds = seconds
        self.times: list[float] = []
        self.raw: list[float] = []

    def spawn(self) -> None:
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        start = time.perf_counter()
        done = subprocess.run(self.command, check=True, capture_output=True, text=True)
        wall = time.perf_counter() - start
        probe = json.loads(done.stdout.splitlines()[-1])
        self.raw.append(wall)
        self.times.append((wall - probe["kernel_s"]) * pace.scale(*probe["kernels"]))

    def due(self, busy: float) -> bool:
        """Spawn one probe if one is due after ``busy`` seconds; True if it did."""
        done = len(self.times)
        if done >= SETUP_SPAWNS or busy < done * self.seconds / SETUP_SPAWNS:
            return False
        self.spawn()
        return True

    def median(self) -> float:
        """The median time, after spawning any probe the run did not reach."""
        while len(self.times) < SETUP_SPAWNS:
            self.spawn()
        return statistics.median(self.times)


def closed_loop(
    workload: Workload, sizes: Sizes, seed: int, seconds: float, between: Callable[[float], bool]
) -> tuple[list[Record], list[float]]:
    """One client, no think time: jobs run back to back, in whole decks,
    and the run stops at the deck boundary nearest to ``seconds`` of busy
    time (summed raw latency; at least one deck).

    A pace kernel runs whenever INTERVAL_S of busy time has passed since the
    last one, right after the job that completes the stretch, and at the end
    of each deck; the stretch's jobs are scaled by the kernel times on
    either side.  Then ``between(busy)`` may do untimed work; if it did, a
    fresh kernel opens the next stretch.  Each output is checked after
    that, outside the timed call, and dropped, so memory does not grow with
    the number of jobs run.  Returns the records and every kernel time."""
    records: list[Record] = []
    kernels = [pace.kernel_seconds()]
    stretch: list[Record] = []
    busy = 0.0

    def close_stretch(busy_now: float) -> None:
        kernels.append(pace.kernel_seconds())
        factor = pace.scale(kernels[-2], kernels[-1])
        for record in stretch:
            record.paced = record.latency * factor
        stretch.clear()
        if between(busy_now):
            kernels.append(pace.kernel_seconds())

    for deck in workload.decks(seed, sizes):
        deck_busy = stretch_busy = 0.0
        for job in deck:
            record = attempt(job)
            records.append(record)
            stretch.append(record)
            deck_busy += record.latency
            stretch_busy += record.latency
            if stretch_busy >= pace.INTERVAL_S:
                close_stretch(busy + deck_busy)
                stretch_busy = 0.0
            record.judge()
        if stretch:
            close_stretch(busy + deck_busy)
        busy += deck_busy
        if busy + deck_busy / 2 >= seconds:
            return records, kernels
    raise AssertionError("deck stream ended")


def end_to_end(name: str, seed: int, seconds: float, smoke: bool) -> Run:
    sizes = SMOKE if smoke else FULL
    pace.kernel()  # warm the kernel's bytecode before its first timed run
    setup = SetupProbes(name, seed, smoke, seconds)
    records, kernels = closed_loop(WORKLOADS[name], sizes, seed, seconds, setup.due)
    setup_s = setup.median()
    setup_raw_s = statistics.median(setup.raw)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    defects = [attempt(job) for job in defect_probes(seed)] if name == "certify" else []
    for record in defects:
        record.judge()
    busy = sum(r.latency for r in records)
    paced_busy = sum(r.paced for r in records)
    units = sum(r.work for r in records)
    paced, raw = (latency_samples(name, records, flag) for flag in (True, False))
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (1e3 * percentile(paced, 0.50), "ms"),
        "latency_p99_ms": (1e3 * percentile(paced, 0.99), "ms"),
        "throughput_ops_per_s": (units / paced_busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    calls = len(records)
    beyond = calls - math.ceil(0.99 * calls)
    notes = [
        f"times are at the reference pace: one kernel run = {1e3 * pace.REFERENCE_S:g} ms; "
        f"this run's {len(kernels)} kernel runs took {1e3 * min(kernels):.3f} to "
        f"{1e3 * max(kernels):.3f} ms, median {1e3 * statistics.median(kernels):.3f} ms",
        f"raw times: setup_s {setup_raw_s:.6f}  latency_p50_ms {1e3 * percentile(raw, 0.50):.6f}"
        f"  latency_p99_ms {1e3 * percentile(raw, 0.99):.6f}"
        f"  throughput_ops_per_s {units / busy:.6f}",
        f"latency per {UNIT[name]}: {calls} timed calls, {beyond} beyond p99",
        f"throughput counts {UNIT[name]}s per busy second ({busy:.3f} s busy, raw)",
    ]
    if name == "sweep":
        notes.append(
            f"sweep percentiles rank {units} ordered triples, each timed as the average "
            f"of its call over the run's passes ({len(paced)} distinct calls); there is no "
            f"per-triple tail, so the ten-beyond-p99 rule does not apply")
    elif beyond < TAIL_SAMPLES:
        notes.append(
            f"WARNING: only {beyond} timed calls lie beyond p99, fewer than {TAIL_SAMPLES}; "
            f"latency_p99_ms rests on too few samples (raise --seconds)")
    return Run(records, metrics, notes, defects)


def _probe(n: int) -> Job:
    """One classification at a large prime degree; its order must obey the order law."""

    def check(report) -> Optional[str]:
        law = report.base_order * math.prod(step.index for step in report.chain)
        return None if report.group.order == law else f"order {report.group.order} != {law}"

    return Job(f"probe_n{n}", lambda: cyclicaut.classify_belyi(n, 1, 2, n - 3), check=check)


def traced(name: str, seed: int, smoke: bool) -> Run:
    sizes = SMOKE if smoke else FULL
    workload = WORKLOADS[name]
    decks = workload.decks(seed, sizes)
    if name == "sweep":
        jobs = next(decks)
    else:
        jobs = list(itertools.islice(itertools.chain.from_iterable(decks), sizes.trace_ops))
    # Each job runs untraced and traced back to back, in alternating order,
    # so both passes see the same machine state and the same warm-up.
    plain, wrapped = [], []
    tracer = spans.Tracer()
    for i, job in enumerate(jobs):
        if i % 2:
            plain.append(attempt(job))
        with tracer.installed():
            wrapped.append(attempt(job))
        if not i % 2:
            plain.append(attempt(job))
    probe = attempt(_probe(sizes.probe_n))
    for record in plain + wrapped + [probe]:
        record.judge()
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (
        sum(r.latency for r in wrapped) / sum(r.latency for r in plain), "ratio")
    metrics["classifier.classify_belyi.n1000003_ms"] = (1e3 * probe.latency, "ms")
    trace_file = HERE / "out" / f"spans-{name}"
    tracer.write(trace_file)
    notes = [
        f"traced {len(jobs)} jobs, {len(tracer.name_of)} spans written to "
        f"{trace_file.relative_to(HERE.parent)}.bin and .json",
        f"probe: classify_belyi({sizes.probe_n}, 1, 2, {sizes.probe_n - 3}) untraced",
    ]
    return Run(plain + wrapped + [probe], metrics, notes)
