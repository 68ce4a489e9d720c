"""The benchmark's own test, in smoke mode (tiny inputs).

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert not [line for line in lines if line.strip().startswith("FAILED")]
    # certify's known defects run as untimed probes and are reported by name
    defects = {line.split()[2] for line in lines if line.strip().startswith("KNOWN DEFECT")}
    expected = {"deep_nesting", "scenario_periodthree_general"}
    assert defects == (expected if workload == "certify" and not trace else set())


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(HERE))
    from locate import import_cyclicaut

    import_cyclicaut()
    import workloads as module

    return module


def _doubled_report_order(value):
    code, text = value
    report = json.loads(text)
    report["order"] *= 2
    return code, json.dumps(report)


def _doubled_class_size(classes):
    first = classes[0]
    return [type(first)(first.canonical, 2 * first.size, first.report)] + classes[1:]


def _doubled_class_order(classes):
    first = classes[0]
    report = first.report
    group = dataclasses.replace(report.group, order=2 * report.group.order, params=())
    return [dataclasses.replace(first, report=dataclasses.replace(report, group=group))] + classes[1:]


@pytest.mark.parametrize(
    "make, corrupt",
    [
        (lambda w: w.classify_triple(random.Random(0), 7, (1, 2, 4)), _doubled_report_order),
        (lambda w: w.fermat(random.Random(0), 4, 4), _doubled_report_order),
        (lambda w: w.lefschetz(random.Random(0), 11), _doubled_report_order),
        (lambda w: w._report_presentation(random.Random(0), 0.5, w.SMOKE), lambda v: 2 * v),
        (lambda w: w._perm_order(random.Random(0), 0.1, w.SMOKE), lambda v: 2 * v),
        (lambda w: w._smith(random.Random(0), 0.5, w.SMOKE), lambda v: [2 * v[0]] + v[1:]),
        (lambda w: w._enumerate(9), _doubled_class_size),
        (lambda w: w._enumerate(9), _doubled_class_order),
    ],
)
def test_checker_rejects_a_doubled_answer(workloads, make, corrupt):
    job = make(workloads)
    honest = workloads.attempt(job)
    forged = workloads.attempt(job)
    forged.value = corrupt(forged.value)
    honest.judge()
    forged.judge()
    assert honest.failure is None
    assert forged.failure is not None and forged.wrong


def test_a_failed_program_assert_is_a_wrong_answer(workloads):
    def disagree():
        raise AssertionError("orbit member disagrees with its class")

    record = workloads.attempt(workloads.Job("enumerate_classes", disagree))
    record.judge()
    assert record.failure is not None and record.wrong


def test_known_defect_probes_fail_without_a_wrong_answer(workloads):
    n, k = workloads.PERIODTHREE_GENERAL[0]
    assert n != 1 + k + k * k and (1 + k + k * k) % n == 0
    records = [workloads.attempt(job) for job in workloads.defect_probes(0)]
    for record in records:
        record.judge()
    assert {r.kind for r in records} == {"deep_nesting", "scenario_periodthree_general"}
    assert all(r.failure is not None and not r.wrong for r in records)


def test_timed_decks_hold_no_known_defect(workloads):
    rng = random.Random(0)
    deck = workloads.build_deck(rng, workloads.CERTIFY_MIX, workloads.SMOKE, 0.5)
    kinds = {job.kind for job in deck}
    assert "deep_nesting" not in kinds and "scenario_periodthree_general" not in kinds


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "classify", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
