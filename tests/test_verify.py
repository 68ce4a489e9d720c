"""Tests for the numerical action checks and the enumeration cross-checks."""

import cmath
import dataclasses
import hashlib
import json

import pytest

from cyclicaut import verify
from cyclicaut.classifier import classify_belyi
from cyclicaut.curve import monodromy_genus, parse_curve
from cyclicaut.numtheory import DomainError
from cyclicaut.verify import (
    ENUMERATION_CAP,
    CurveSample,
    ProductForm,
    RationalMap,
    accola_maclachlan,
    action_residual,
    apply_sequence,
    build_scenario,
    check_enumeration,
    cross_check,
    cross_check_to_json_dict,
    deck_map,
    enumerate_classes,
    enumeration_to_json_dict,
    half_turn_map,
    on_curve_residual,
    periodthree,
    run_scenario,
    sample_curve,
    twisted_involution_general,
    twistedz2,
    verify_map_order,
    verify_relation,
)

TOL = 1e-8


# -- sampling ---------------------------------------------------------------


def test_sample_curve_basics():
    cover = parse_curve("y^6 = (x-1)(x+1)")
    samples = sample_curve(cover, 10, seed=1)
    assert len(samples) == 10
    for x, y in samples:
        assert 0.5 <= abs(x) <= 2.0
        assert abs(x - 1) >= 0.1 and abs(x + 1) >= 0.1
        assert on_curve_residual(cover, x, y) <= 1e-12


def test_sample_curve_deterministic_and_seed_sensitive():
    cover = parse_curve("y^7 = x(x-1)^2(x+1)^4")
    a = sample_curve(cover, 100, seed=7)
    b = sample_curve(cover, 100, seed=7)
    c = sample_curve(cover, 100, seed=8)
    assert len(a) == 100
    assert a.points == b.points
    assert a.points != c.points


def test_sample_curve_count_validation():
    cover = parse_curve("y^6 = (x-1)(x+1)")
    with pytest.raises(DomainError):
        sample_curve(cover, 0)
    with pytest.raises(DomainError):
        sample_curve(cover, -3)


def test_deck_map_preserves_curve_with_exact_order():
    cover = parse_curve("y^7 = x(x-1)^2(x+1)^4")
    samples = sample_curve(cover, 50, seed=0)
    t = deck_map(cover)
    assert action_residual(cover, t, samples) <= TOL
    assert verify_map_order(cover, t, 7, samples)
    assert not verify_map_order(cover, t, 14, samples)  # smaller iterate closes
    assert not verify_map_order(cover, t, 3, samples)


# -- the three map families -------------------------------------------------


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_accola_maclachlan_checks(n, seed):
    sc = accola_maclachlan(n)
    outcomes = run_scenario(sc, 100, seed)
    assert all(o.passed for o in outcomes), outcomes
    assert all(o.value <= TOL for o in outcomes)


def test_accola_maclachlan_square_is_half_turn():
    sc = accola_maclachlan(6)
    samples = sample_curve(sc.cover, 100, seed=0)
    u = sc.maps["u"]
    dev = verify_relation(sc.cover, [u, u], [half_turn_map()], samples)
    assert dev <= TOL
    assert verify_map_order(sc.cover, u, 4, samples)
    assert not verify_map_order(sc.cover, u, 2, samples)
    assert not verify_map_order(sc.cover, u, 8, samples)


def test_accola_maclachlan_validation():
    with pytest.raises(DomainError):
        accola_maclachlan(7)
    with pytest.raises(DomainError):
        accola_maclachlan(2)


@pytest.mark.parametrize("n,k,beta", [(7, 2, 1), (13, 3, 2)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_periodthree_checks(n, k, beta, seed):
    sc = periodthree(n, k)
    # the y-component carries (x - j^2)^-beta with the stated beta
    assert sc.maps["S"].y_form.factors[0][1] == -beta
    outcomes = run_scenario(sc, 100, seed)
    assert all(o.passed for o in outcomes), outcomes


PERIODTHREE_PAIRS = [
    (n, k) for n in range(4, 61) for k in range(2, n - 1) if (1 + k + k * k) % n == 0
]


@pytest.mark.parametrize("n,k", PERIODTHREE_PAIRS)
def test_periodthree_every_pair(n, k):
    sc = periodthree(n, k)
    q, r = divmod(k * k, n)
    assert sc.cover.exponents() == (1, k, r)
    # (x - j^2)^-beta, then (x - j)^-q only when n < 1 + k + k^2
    assert [e for _, e in sc.maps["S"].y_form.factors] == [-((k * r - 1) // n)] + ([-q] if q else [])
    assert all(abs(e) <= k for _, e in sc.maps["S"].y_form.factors)
    outcomes = run_scenario(sc, 50, 0)
    assert all(o.passed for o in outcomes), outcomes


def test_periodthree_commutation_with_deck():
    sc = periodthree(7, 2)
    samples = sample_curve(sc.cover, 100, seed=5)
    s, t = sc.maps["S"], sc.maps["T"]
    # pipeline [T, S] applies T first: the composite S.T
    dev = verify_relation(sc.cover, [t, s], [s, t, t], samples)
    assert dev <= TOL
    # and the relation really is twisted: plain commutation fails
    assert verify_relation(sc.cover, [t, s], [s, t], samples) > 1e-2


def test_periodthree_validation():
    with pytest.raises(DomainError):
        periodthree(7, 3)  # 1+3+9 != 0 mod 7
    with pytest.raises(DomainError):
        periodthree(9, 2)


@pytest.mark.parametrize("n,b", [(15, 4), (21, 8)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_twistedz2_checks(n, b, seed):
    sc = twistedz2(n, b)
    # sign (-1)^l with l = 1 for both printed instances
    assert abs(sc.maps["u"].y_form.constant - (-1.0)) < 1e-15
    outcomes = run_scenario(sc, 100, seed)
    assert all(o.passed for o in outcomes), outcomes


def test_twistedz2_conjugation_relation():
    sc = twistedz2(15, 4)
    samples = sample_curve(sc.cover, 100, seed=2)
    u, t = sc.maps["u"], sc.maps["T"]
    assert verify_relation(sc.cover, [u, t, u], [t] * 4, samples) <= TOL
    assert verify_map_order(sc.cover, u, 2, samples)


def test_twistedz2_validation():
    with pytest.raises(DomainError, match="not divisible by 8"):
        twistedz2(16, 7)
    with pytest.raises(DomainError):
        twistedz2(15, 5)  # 5^2 != 1 mod 15


GENERAL_PHASES = [(12, 5, 0), (16, 7, 2), (24, 5, 4), (24, 7, 0), (24, 11, 2), (24, 17, 0)]


@pytest.mark.parametrize("n,b,t_expected", GENERAL_PHASES)
def test_twisted_involution_general(n, b, t_expected):
    # composite degrees where the +-1 sign cannot work still admit the
    # involution with a root-of-unity phase
    sc = twisted_involution_general(n, b)
    eta = sc.maps["u"].y_form.constant
    t = round(cmath.phase(eta) * n / cmath.pi) % (2 * n)
    assert t == t_expected
    outcomes = run_scenario(sc, 60, 3)
    assert all(o.passed for o in outcomes), (n, b, outcomes)


def test_build_scenario_dispatch():
    assert build_scenario("accola-maclachlan", 6).family == "accola-maclachlan"
    assert build_scenario("periodthree", 7, k=2).order == 3
    assert build_scenario("twistedz2", 15, b=4).order == 2
    with pytest.raises(DomainError):
        build_scenario("periodthree", 7)
    with pytest.raises(DomainError):
        build_scenario("twistedz2", 15)
    with pytest.raises(DomainError):
        build_scenario("klein", 7)


def test_verify_map_order_seed_independent():
    sc = twistedz2(15, 4)
    u = sc.maps["u"]
    verdicts = set()
    for seed in range(5):
        samples = sample_curve(sc.cover, 40, seed)
        verdicts.add(verify_map_order(sc.cover, u, 2, samples))
    assert verdicts == {True}


def test_verify_relation_detects_mismatch():
    cover = parse_curve("y^6 = (x-1)(x+1)")
    samples = sample_curve(cover, 30, seed=0)
    t = deck_map(cover)
    assert verify_relation(cover, [t], [t, t], samples) > 1e-2


def test_action_residual_resamples_pole_hits():
    sc = accola_maclachlan(6)
    # a synthetic sample sitting on the y = 0 pole of u
    poisoned = CurveSample(((0.7 + 0j, 0j),))
    res = action_residual(sc.cover, sc.maps["u"], poisoned)
    assert res <= TOL


def test_apply_sequence_order():
    cover = parse_curve("y^6 = (x-1)(x+1)")
    t = deck_map(cover)
    sq = RationalMap("sq", ProductForm(1, 2, 0), ProductForm(1, 0, 1))
    x, y = 1.3 + 0.2j, 0.5 + 0.1j
    # t first, then squaring: (x^2, zeta y) expected
    zeta = cmath.exp(2j * cmath.pi / 6)
    got = apply_sequence([t, sq], x, y)
    assert abs(got[0] - x * x) < 1e-12
    assert abs(got[1] - zeta * y) < 1e-12


# -- enumeration ------------------------------------------------------------


def test_enumerate_classes_small_degrees():
    assert [(c.canonical, c.size) for c in enumerate_classes(4)] == [((1, 1, 2), 6)]
    assert [(c.canonical, c.size) for c in enumerate_classes(5)] == [((1, 1, 3), 12)]
    sevens = enumerate_classes(7)
    assert [(c.canonical, c.size) for c in sevens] == [((1, 1, 5), 18), ((1, 2, 4), 12)]
    assert sevens[0].report.row == "A.1"
    assert sevens[1].report.row == "C.2"


def test_enumerate_classes_ordered_count_closed_form():
    for n in [5, 7, 11, 13]:  # prime degree: the gcd filter removes nothing
        assert sum(c.size for c in enumerate_classes(n)) == (n - 1) * (n - 2)
    for n in [6, 8, 9, 12]:  # composite: filter only shrinks the count
        assert sum(c.size for c in enumerate_classes(n)) <= (n - 1) * (n - 2)


def test_enumerate_classes_validation():
    with pytest.raises(DomainError):
        enumerate_classes(3)
    with pytest.raises(DomainError, match="above enumeration cap 60"):
        enumerate_classes(ENUMERATION_CAP + 1)
    assert enumerate_classes(ENUMERATION_CAP)


# Made at commit 50e25ad, before the degree-gated rule table, by
#   text = "".join(json.dumps(enumeration_to_json_dict(n, enumerate_classes(n))) + "\n"
#                  for n in range(4, 31))
#   hashlib.sha256(text.encode()).hexdigest()
# The range holds every degree of an exact row: 7 (C.2), 8 (B.3, E.1), 12 (D.1,
# E.2) and 24 (E.3).
SWEEP_4_30_SHA256 = "790d6cca1e5a04fc18041b39465fa24a827467d14ba9573fc6e33ed16c1ef124"


def test_sweep_answers_pinned():
    text = "".join(
        json.dumps(enumeration_to_json_dict(n, enumerate_classes(n))) + "\n" for n in range(4, 31)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_4_30_SHA256


def test_enumeration_json_and_check():
    payload = enumeration_to_json_dict(7, enumerate_classes(7))
    assert payload["n"] == 7 and payload["count"] == 2
    assert payload["classes"][1]["structure"] == "PSL(2,7)"
    json.dumps(payload)
    assert check_enumeration(payload).passed
    payload["classes"][0]["order"] = 999
    bad = check_enumeration(payload)
    assert not bad.passed and bad.witness is not None
    with pytest.raises(DomainError):
        check_enumeration({"classes": []})


# -- cross-check driver -----------------------------------------------------


def test_cross_check_passes():
    report = cross_check(12)
    assert report.all_passed
    assert [c.name for c in report.checks] == [
        "genus_matches_monodromy",
        "equivalence_invariance",
        "order_law",
        "hurwitz_bound",
        "harvey_condition",
        "default_not_extendable",
    ]
    assert all(c.n_range == (4, 12) for c in report.checks)
    out = cross_check_to_json_dict(report)
    assert out["n_max"] == 12
    assert all(entry["pass"] for entry in out["checks"])
    assert all("witness" not in entry for entry in out["checks"])
    json.dumps(out)


def test_cross_check_fault_injection(monkeypatch):
    # the report's own genus goes wrong at n = 9; the check must read it
    def classify(n, *triple):
        report = classify_belyi(n, *triple)
        return dataclasses.replace(report, genus=report.genus + (n == 9))

    monkeypatch.setattr(verify, "classify_belyi", classify)
    report = cross_check(9)
    byname = {c.name: c for c in report.checks}
    failed = byname["genus_matches_monodromy"]
    assert not failed.passed
    assert failed.witness["n"] == 9
    assert failed.witness["formula"] == failed.witness["monodromy"] + 1
    # unrelated checks keep passing
    assert byname["order_law"].passed and byname["hurwitz_bound"].passed
    out = cross_check_to_json_dict(report)
    assert any("witness" in entry for entry in out["checks"])


def test_orbit_disagreement_names_the_triple(monkeypatch):
    # (2,4,1) is a later member of the class of (1,2,4) at n = 7; its report
    # alone moves to another row
    def classify(n, *triple):
        report = classify_belyi(n, *triple)
        if (n, triple) == (7, (2, 4, 1)):
            return dataclasses.replace(report, row="A.1")
        return report

    monkeypatch.setattr(verify, "classify_belyi", classify)
    report = cross_check(9)
    byname = {c.name: c for c in report.checks}
    failed = byname["equivalence_invariance"]
    assert not failed.passed
    assert failed.witness == {"n": 7, "triple": [2, 4, 1], "canonical": [1, 2, 4]}
    assert [c.name for c in report.checks if not c.passed] == ["equivalence_invariance"]
    with pytest.raises(AssertionError, match=r"orbit member \(2, 4, 1\) disagrees with class \(1, 2, 4\)"):
        enumerate_classes(7)


def test_cycle_table_genus_matches_monodromy():
    # the genus cross_check reads from one cycle count per (n, k) is the
    # genus of the monodromy oracle, which traverses every triple's own
    # permutations
    for n in range(4, 25):
        cycles = verify._cycle_counts(n)
        for triple in verify._ordered_admissible(n):
            cover = classify_belyi(n, *triple).cover
            assert verify._twice_monodromy_genus(n, cycles, cover.all_exponents()) == (
                2 * monodromy_genus(cover)
            ), (n, triple)


def test_cycle_table_fault_injection(monkeypatch):
    # one miscounted translation, s -> s + 3 at n = 9, must fail the genus
    # check on a triple with that exponent and no other check
    count = verify._translation_cycles

    def miscount(n, k):
        return count(n, k) + ((n, k) == (9, 3))

    monkeypatch.setattr(verify, "_translation_cycles", miscount)
    report = cross_check(12)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["genus_matches_monodromy"]
    witness = failed[0].witness
    assert witness["n"] == 9 and 3 in witness["triple"]
    assert witness["monodromy"] != witness["formula"]
    json.dumps(cross_check_to_json_dict(report))


def test_cross_check_traverses_each_translation_once(monkeypatch):
    # a count, not a clock: a degree costs at most n traversals, one per
    # (n, k), however many triples read them
    calls = []
    count = verify._translation_cycles

    def counted(n, k):
        calls.append((n, k))
        return count(n, k)

    monkeypatch.setattr(verify, "_translation_cycles", counted)
    assert cross_check(30).all_passed
    assert len(calls) == len(set(calls))
    for n in range(4, 31):
        assert 0 < sum(1 for m, _ in calls if m == n) <= n


def test_cross_check_below_range():
    with pytest.raises(DomainError):
        cross_check(3)
    # the sweep stops at the cap enumerate_classes keeps
    with pytest.raises(DomainError, match=f"degree {ENUMERATION_CAP + 1} above enumeration cap"):
        cross_check(ENUMERATION_CAP + 1)
