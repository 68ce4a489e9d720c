"""End-to-end acceptance checks: exact values, tolerances, and time budgets."""

import time
from math import gcd

import pytest

from cyclicaut.classifier import classify_belyi, classify_fermat
from cyclicaut.cli import run
from cyclicaut.grouptheory import (
    BudgetExceeded,
    abelianization,
    coset_enumerate,
    fingerprint,
    parse_permutations,
    parse_presentation,
    perm_order,
)
from cyclicaut.verify import (
    accola_maclachlan,
    cross_check,
    enumerate_classes,
    periodthree,
    run_scenario,
    twistedz2,
)


def test_table_reproduction_exact_and_fast():
    instances = [
        (5, 1, 1, 3, 2, 10, "Z10"),
        (6, 1, 1, 4, 2, 24, "(central Z2):D12"),
        (15, 1, 4, 10, 5, 30, "Z15:Z2"),
        (16, 1, 6, 9, 7, 64, "(Z16:Z2):Z2"),
        (8, 1, 2, 5, 3, 96, "(Z4+Z4):S3"),
        (13, 1, 3, 9, 6, 39, "Z13:Z3"),
        (7, 1, 2, 4, 3, 168, "PSL(2,7)"),
        (12, 1, 3, 8, 3, 48, "(central Z4):A4"),
        (8, 1, 3, 4, 2, 48, "GL(2,3)"),
        (12, 1, 4, 7, 4, 72, "(central Z3):S4"),
        (24, 1, 4, 19, 10, 144, "(central Z6):S4"),
    ]
    start = time.monotonic()
    for n, a, b, c, g, order, structure in instances:
        r = classify_belyi(n, a, b, c)
        assert r.genus == g
        assert r.group.order == order
        assert r.group.structure == structure
    assert time.monotonic() - start < 1.0


def test_exhaustive_sweep_all_invariants():
    start = time.monotonic()
    report = cross_check(30)
    elapsed = time.monotonic() - start
    assert report.all_passed, [c for c in report.checks if not c.passed]
    assert {c.name for c in report.checks} == {
        "genus_matches_monodromy",
        "equivalence_invariance",
        "order_law",
        "hurwitz_bound",
        "harvey_condition",
        "default_not_extendable",
    }
    assert elapsed < 60.0


def test_class_counts_prime_degrees():
    assert len(enumerate_classes(5)) == 1
    assert len(enumerate_classes(7)) == 2


def test_group_engine_certification():
    start = time.monotonic()
    assert coset_enumerate(parse_presentation("<u,v | u^4, v^8, (u*v)^2, u^2*v*u^2*v^3>")) == 32
    assert coset_enumerate(
        parse_presentation(
            "<s,t,u | s^4, t^8, u^2, [s,t], [s,u], u*t*u*t*s>"
        )
    ) == 64
    for n in range(2, 31):
        assert coset_enumerate(parse_presentation(f"<u,v | u^2, v^{n}, (u*v)^2>")) == 2 * n
    for d in range(2, 21):
        for n in range(2, 21):
            inv = abelianization(parse_presentation(f"<x,y | x^{d}, y^{n}, (x*y)^{n}>"))
            expected = tuple(v for v in (gcd(d, n), n) if v > 1)
            assert inv.factors == expected, (d, n, inv)
            assert inv.free_rank == 0
    assert time.monotonic() - start < 10.0


def test_permutation_group_order96():
    gens = parse_permutations(
        "(1,4)(2,7)(3,10)(5,8)(6,11)(9,12);"
        "(1,10,9,5)(2,4,11,3,7,12,6,8);"
        "(1,2,3)(4,5,6)(7,8,9)(10,11,12)"
    )
    assert perm_order(gens) == 96
    assert fingerprint(gens).is_abelian is False


def test_fermat_instances_exact():
    expected = {
        (4, 4): 96,
        (5, 4): 20,
        (8, 4): 64,
        (6, 2): 24,
        (7, 2): 14,
        (6, 3): 36,
        (4, 3): 48,
    }
    for (n, d), order in expected.items():
        r = classify_fermat(n, d)
        assert r.group.order == order, (n, d)
    assert classify_fermat(7, 2).group.kind == "CYCLIC"


def test_numerical_action_verification():
    start = time.monotonic()
    scenarios = [
        accola_maclachlan(6),
        accola_maclachlan(8),
        periodthree(7, 2),
        periodthree(13, 3),
        twistedz2(15, 4),
        twistedz2(21, 8),
    ]
    for scenario in scenarios:
        for seed in (0, 1, 2):
            outcomes = run_scenario(scenario, 100, seed)
            assert all(o.passed for o in outcomes), (scenario.family, seed, outcomes)
    assert time.monotonic() - start < 5.0


def test_budget_stop_without_crash(capsys):
    hyperbolic = parse_presentation("<x,y | x^2, y^3, (x*y)^7>")
    with pytest.raises(BudgetExceeded):
        coset_enumerate(hyperbolic, max_cosets=100_000)
    code = run(["coset-enum", "--pres", "<x,y | x^2, y^3, (x*y)^7>",
                "--max-cosets", "100000"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "BUDGET_EXCEEDED"
