"""Tests for the automorphism-group classifier."""

import json
import tracemalloc
from functools import lru_cache
from itertools import permutations
from math import gcd

import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from cyclicaut import classifier
from cyclicaut.classifier import (
    GroupDescriptor,
    belyi_verdict,
    belyi_verdicts,
    classify_belyi,
    classify_cover,
    classify_fermat,
    classify_lefschetz,
    lefschetz_canonical,
    lefschetz_isomorphic,
    report_to_json_dict,
)
from cyclicaut.curve import (
    belyi_cover,
    canonical_triple,
    genus,
    monodromy_genus,
    parse_curve,
    signature_of,
    triple_gcds,
)
from cyclicaut.fuchsian import cb_extendable
from cyclicaut.numtheory import factorize
from cyclicaut.grouptheory import (
    Presentation,
    coset_enumerate,
    fingerprint,
    parse_presentation,
    presentation_to_text,
)
from cyclicaut.numtheory import DomainError, is_prime, units
from cyclicaut.verify import ENUMERATION_CAP, enumerate_classes


def triple_orbit(n, a, b, c):
    """All ordered triples equivalent to (a, b, c): unit rescalings and permutations."""
    triple_gcds(n, a, b, c)
    out = set()
    for k in units(n):
        out.update(permutations(((k * a) % n, (k * b) % n, (k * c) % n)))
    return out


def admissible_triples(n):
    for a in range(1, n):
        for b in range(a, n):
            c = (-a - b) % n
            if c < b or c == 0:
                continue
            if gcd(gcd(gcd(n, a), b), c) == 1:
                yield (a, b, c)


TABLE_INSTANCES = [
    (5, 1, 1, 3, "A.1", 2, 10, "Z10"),
    (9, 2, 2, 5, "A.1", 4, 18, "Z18"),
    (6, 1, 1, 4, "A.2", 2, 24, "(central Z2):D12"),
    (15, 1, 4, 10, "B.1", 5, 30, "Z15:Z2"),
    (16, 1, 6, 9, "B.2", 7, 64, "(Z16:Z2):Z2"),
    (8, 1, 2, 5, "B.3", 3, 96, "(Z4+Z4):S3"),
    (13, 1, 3, 9, "C.1", 6, 39, "Z13:Z3"),
    (7, 1, 2, 4, "C.2", 3, 168, "PSL(2,7)"),
    (12, 1, 3, 8, "D.1", 3, 48, "(central Z4):A4"),
    (8, 1, 3, 4, "E.1", 2, 48, "GL(2,3)"),
    (12, 1, 4, 7, "E.2", 4, 72, "(central Z3):S4"),
    (24, 1, 4, 19, "E.3", 10, 144, "(central Z6):S4"),
    (11, 2, 3, 6, "DEFAULT", 5, 11, "Z11"),
    (6, 2, 3, 1, "DEFAULT", 1, 6, "Z6"),
]


@pytest.mark.parametrize("n,a,b,c,row,g,order,structure", TABLE_INSTANCES)
def test_table_instances(n, a, b, c, row, g, order, structure):
    r = classify_belyi(n, a, b, c)
    assert r.row == row
    assert r.genus == g
    assert r.group.order == order
    assert r.group.structure == structure
    assert r.n == n and r.triple == (a, b, c)


def test_chain_contents():
    r = classify_belyi(7, 1, 2, 4)
    assert len(r.chain) == 1
    step = r.chain[0]
    assert step.row_id == "4"
    assert step.signature.periods == (2, 3, 7)
    assert step.index == 24
    assert r.signature.periods == (7, 7, 7)

    r = classify_belyi(15, 1, 4, 10)
    assert r.chain[0].row_id == "3"
    assert r.chain[0].signature.periods == (2, 6, 15)
    assert r.chain[0].index == 2


def test_subhyperbolic_rows_reported_without_chain():
    r = classify_belyi(4, 1, 1, 2)
    assert r.row == "A.2" and r.genus == 1
    assert r.group.order == 16 and r.group.structure == "(central Z2):D8"
    assert r.chain == () and "genus below 2" in r.notes

    r = classify_belyi(6, 1, 2, 3)
    assert r.row == "DEFAULT" and r.genus == 1 and r.group.order == 6


DISPUTED_B1 = [
    (12, 1, 5, 6, 5, 3),
    (16, 1, 7, 8, 7, 4),
    (24, 1, 5, 18, 5, 9),
    (24, 1, 7, 16, 7, 8),
    (24, 1, 11, 12, 11, 6),
    (24, 1, 6, 17, 17, 9),
]


@pytest.mark.parametrize("n,a,b,c,twist,g", DISPUTED_B1)
def test_composite_degree_involution_classes(n, a, b, c, twist, g):
    # degree divisible by 8 or equal to 12: the involution rows still apply
    r = classify_belyi(n, a, b, c)
    assert r.row == "B.1"
    assert r.group.order == 2 * n
    assert r.genus == g
    assert r.group.params == (n, twist)
    # and each carries a genuinely larger action: the signature extends
    matches = cb_extendable(r.cover)
    assert matches and matches[0].case == 4


def test_b2_takes_precedence_over_b1():
    # both rows match these classes; the order-4n row must win
    for n in (16, 24):
        a, b, c = 1, n // 2 - 2, n // 2 + 1
        # reordered as (1, c, b), the triple is B.1's (1, x, n-1-x) with x^2 = 1
        assert c * c % n == 1 and c != 1 and b == n - 1 - c
        assert (1, c, b) in triple_orbit(n, a, b, c)
        for t in ((a, b, c), (1, c, b)):
            r = classify_belyi(n, *t)
            assert r.row == "B.2"
            assert r.group.order == 4 * n


def test_b1_two_classes_same_degree():
    r1 = classify_belyi(15, 1, 4, 10)
    r2 = classify_belyi(15, 1, 3, 11)
    assert r1.row == r2.row == "B.1"
    assert r1.group.order == r2.group.order == 30
    assert (r1.genus, r2.genus) == (5, 6)
    assert r1.group.params == (15, 4)
    assert r2.group.params == (15, 11)
    assert r1.canonical != r2.canonical


def test_exact_row_triples_are_canonical():
    for n, t in [(8, (1, 2, 5)), (7, (1, 2, 4)), (12, (1, 3, 8)),
                 (8, (1, 3, 4)), (12, (1, 4, 7)), (24, (1, 4, 19))]:
        assert canonical_triple(n, *t) == t


def test_equivalence_invariance():
    for n in range(4, 17):
        for (a, b, c) in admissible_triples(n):
            base = classify_belyi(n, a, b, c)
            for (x, y, z) in triple_orbit(n, a, b, c):
                r = classify_belyi(n, x, y, z)
                assert r.row == base.row
                assert r.group == base.group
                assert r.canonical == base.canonical
                assert r.chain == base.chain


def test_order_law_and_hurwitz():
    for n in list(range(4, 21)) + [24, 30]:
        for (a, b, c) in admissible_triples(n):
            r = classify_belyi(n, a, b, c)
            if r.genus < 2:
                continue
            total = r.base_order
            for step in r.chain:
                total *= step.index
            assert r.group.order == total
            assert r.group.order <= 84 * (r.genus - 1)
            if r.group.order == 84 * (r.genus - 1):
                assert r.row == "C.2"


def test_genus_agrees_with_monodromy():
    for n in range(4, 13):
        for (a, b, c) in admissible_triples(n):
            r = classify_belyi(n, a, b, c)
            assert r.genus == monodromy_genus(r.cover)


def test_cyclic_when_no_unit_exponent():
    # the least degrees with such triples are 30 and 42 (three pairwise
    # coprime gcds >= 2 must divide n): 8 at n = 30, 12 at n = 42
    found = {}
    for n in [*range(4, 19), 30, 42]:
        for (a, b, c) in admissible_triples(n):
            orbit = triple_orbit(n, a, b, c)
            if any(gcd(n, x) == 1 for t in orbit for x in t):
                continue
            found[n] = found.get(n, 0) + 1
            r = classify_belyi(n, a, b, c)
            assert r.row == "DEFAULT"
            assert r.group.kind == "CYCLIC"
    assert found == {30: 8, 42: 12}


def test_default_rows_not_extendable():
    for n in range(4, 19):
        for (a, b, c) in admissible_triples(n):
            r = classify_belyi(n, a, b, c)
            if r.row != "DEFAULT" or r.genus < 2:
                continue
            assert not cb_extendable(r.cover)


def test_extension_criteria_apply_exactly_off_default():
    # two-sided: a class of genus >= 2 is DEFAULT (Z_n only) exactly when no
    # extension criterion applies to its cover
    sides = {True: 0, False: 0}
    for n in range(4, ENUMERATION_CAP + 1):
        for c in enumerate_classes(n):
            r = c.report
            if r.genus < 2:
                continue
            extendable = bool(cb_extendable(r.cover))
            assert extendable == (r.row != "DEFAULT"), (n, c.canonical, r.row)
            sides[extendable] += 1
    assert sides == {False: 366, True: 137}


def test_presentations_enumerate_to_claimed_order():
    reports = []
    for n in range(4, 19):
        for (a, b, c) in admissible_triples(n):
            reports.append(classify_belyi(n, a, b, c))
    for n, d in [(4, 4), (5, 4), (8, 4), (5, 2), (6, 2), (7, 2), (6, 3), (5, 3),
                 (4, 3), (9, 3), (12, 4), (10, 2)]:
        reports.append(classify_fermat(n, d))
    for p, a in [(5, 1), (13, 3), (11, 2), (7, 5)]:
        reports.append(classify_lefschetz(p, a))
    seen = set()
    checked = 0
    for r in reports:
        pres = r.group.presentation
        if pres is None:
            continue
        key = (pres.generator_count, pres.relators)
        if key in seen:
            continue
        seen.add(key)
        assert coset_enumerate(pres) == r.group.order, (r.row, r.group.structure)
        checked += 1
    assert checked > 30


def test_presentation_absent_on_named_rows():
    for n, a, b, c in [(8, 1, 2, 5), (7, 1, 2, 4), (12, 1, 3, 8), (8, 1, 3, 4),
                       (12, 1, 4, 7), (24, 1, 4, 19)]:
        assert classify_belyi(n, a, b, c).group.presentation is None
    assert classify_fermat(4, 4).group.presentation is None
    assert classify_lefschetz(7, 2).group.presentation is None


def test_classify_cover_routes():
    r = classify_cover(parse_curve("y^7 = x(x-1)^2(x+1)^4"))
    assert r.row == "C.2" and r.group.order == 168
    # the report holds the cover as parsed, not a model over 0, 1 and -1
    cover = parse_curve("y^7 = 3x(x-2)^2")
    r = classify_cover(cover)
    assert r.cover == cover and r.triple == (1, 2, 4)
    assert (r.row, r.canonical) == (classify_belyi(7, 1, 2, 4).row, (1, 2, 4))
    # the point at infinity counts as the third branch point
    r = classify_cover(parse_curve("y^5 = x^6(x-1)"))
    assert r.row == "A.1" and r.group.structure == "Z10"
    with pytest.raises(DomainError, match="three branch points"):
        classify_cover(parse_curve("y^5 + x^3 = 1"))


def test_verdict_is_the_report():
    # the sweep reads verdicts and the public API reports; on every
    # admissible ordered triple with 4 <= n <= 40 they must agree
    for n in range(4, 41):
        for a in range(1, n):
            for b in range(1, n):
                c = (-a - b) % n
                if c == 0 or gcd(gcd(gcd(n, a), b), c) != 1:
                    continue
                v = belyi_verdict(n, a, b, c)
                r = classify_belyi(n, a, b, c)
                assert (v.canonical, v.row, v.group, v.chain, v.genus, v.signature) == (
                    r.canonical, r.row, r.group, r.chain, r.genus, r.signature
                ), (n, a, b, c)


@pytest.mark.parametrize("n", [*range(4, 61), 105, 120, 210])
def test_belyi_verdicts_walks_the_admissible_triples(n):
    # the sweep's walk, from per-degree gcd, inverse and lows tables, yields
    # exactly the admissible ordered triples, in lexicographic order, each
    # with the verdict belyi_verdict gives it alone; 105, 120 and 210 have
    # many non-units, so many triples have fewer than three leads or none
    brute = sorted(
        (a, b, c)
        for a in range(1, n)
        for b in range(1, n)
        for c in (n - a - b, 2 * n - a - b)
        if 1 <= c <= n - 1 and gcd(n, a, b, c) == 1
    )
    walked = list(belyi_verdicts(n))
    assert [triple for triple, _ in walked] == brute
    for triple, verdict in walked:
        assert verdict == belyi_verdict(n, *triple), (n, triple)


def test_belyi_verdicts_below_degree_four():
    with pytest.raises(DomainError, match="degree >= 4"):
        next(belyi_verdicts(3))


# -- the rule walker against the nested walk on pairs -------------------------

# The rows of both tables as predicates on whole forms: a unit-led pair
# (x, y) of a triple, or the one-entry form (d,) of a Fermat curve, each row
# as (row id, fits, holds).
PAIR_BELYI_ROWS = (
    ("B.3", lambda n: n == 8, lambda n, p: p == (2, 5)),
    ("C.2", lambda n: n == 7, lambda n, p: p == (2, 4)),
    ("D.1", lambda n: n == 12, lambda n, p: p == (3, 8)),
    ("E.1", lambda n: n == 8, lambda n, p: p == (3, 4)),
    ("E.2", lambda n: n == 12, lambda n, p: p == (4, 7)),
    ("E.3", lambda n: n == 24, lambda n, p: p == (4, 19)),
    ("A.1", lambda n: n % 2 == 1, lambda n, p: p[0] == 1),
    ("A.2", lambda n: n % 2 == 0, lambda n, p: p[0] == 1),
    ("B.2", lambda n: n % 8 == 0 and n > 8, lambda n, p: p == (n // 2 - 2, n // 2 + 1)),
    ("B.1", lambda n: True, lambda n, p: p[0] != 1 and p[0] * p[0] % n == 1),
    ("C.1", lambda n: True, lambda n, p: (1 + p[0] + p[0] * p[0]) % n == 0),
)
FORM_FERMAT_ROWS = (
    ("F.4", lambda n: n % 2 == 1, lambda n, f: f == (2,)),
    ("F.5", lambda n: n % 2 == 0, lambda n, f: f == (2,)),
    ("F.8", lambda n: n == 4, lambda n, f: f == (3,)),
    ("F.6", lambda n: n % 3 == 0, lambda n, f: f == (3,)),
    ("F.7", lambda n: True, lambda n, f: f == (3,)),
    ("F.1", lambda n: True, lambda n, f: f == (n,)),
    ("F.2", lambda n: True, lambda n, f: n % f[0] != 0),
    ("F.3", lambda n: True, lambda n, f: True),
)


def unit_led_pairs(n, a, b, c):
    """The pairs (x, y) with (1, x, y) a unit multiple of a permutation of the
    triple, ascending."""
    triple = (a, b, c)
    pairs = []
    for i, k in enumerate(triple):
        if gcd(n, k) == 1:
            inv = pow(k, -1, n)
            s, t = (inv * v % n for j, v in enumerate(triple) if j != i)
            pairs += [(s, t), (t, s)]
    return sorted(pairs)


def nested_walk(rows, n, forms):
    """Each row in table order against each form in order: the first row
    that holds on a form fires, with the form's first entry as the twist."""
    for row, fits, holds in rows:
        if fits(n):
            for form in forms:
                if holds(n, form):
                    return row, form[0]
    return "DEFAULT", None


def _expected_group(table, n, row, twist):
    if row == "DEFAULT":
        return GroupDescriptor(n, "CYCLIC", (n,), f"<a | a^{n}>")
    build = {rule[0]: rule[-1] for rule in table}[row]
    return build(n, twist)[0]


def _assert_belyi_walk(n, a, b, c):
    pairs = unit_led_pairs(n, a, b, c)
    row, twist = nested_walk(PAIR_BELYI_ROWS, n, pairs)
    v = belyi_verdict(n, a, b, c)
    assert (v.row, v.group) == (row, _expected_group(classifier._BELYI_RULES, n, row, twist)), (
        n, a, b, c)
    assert v.canonical == ((1, *pairs[0]) if pairs else canonical_triple(n, a, b, c)), (n, a, b, c)


def test_walker_matches_nested_walk_on_pairs():
    # every admissible ordered triple with 4 <= n <= 60: same row, twist
    # (through the group it builds) and canonical triple
    for n in range(4, 61):
        for a in range(1, n):
            for b in range(1, n):
                c = (-a - b) % n
                if c and gcd(n, a, b, c) == 1:
                    _assert_belyi_walk(n, a, b, c)


@st.composite
def _row_shaped(draw):
    """An admissible triple; five times in six, a unit multiple of a
    permutation of (1, x, n-1-x) for a lead x that fires a row: A (x = 1), B.2
    (n = 0 mod 8, x = n/2 - 2), B.1 (n = x^2 - 1), C.1 (n = x^2 + x + 1) or an
    exact row."""
    shape = draw(st.sampled_from(["any", "A", "B.2", "B.1", "C.1", "exact"]), label="shape")
    if shape == "any":
        return draw(_admissible())
    if shape == "A":
        n, x = draw(st.integers(min_value=4, max_value=10**6), label="n"), 1
    elif shape == "B.2":
        n = 8 * draw(st.integers(min_value=2, max_value=125_000), label="n/8")
        x = n // 2 - 2
    elif shape == "B.1":
        x = draw(st.integers(min_value=3, max_value=1000), label="x")
        n = x * x - 1
    elif shape == "C.1":
        x = draw(st.integers(min_value=2, max_value=999), label="x")
        n = x * x + x + 1
    else:
        n, x = draw(st.sampled_from([(8, 2), (7, 2), (12, 3), (8, 3), (12, 4), (24, 4)]),
                    label="exact row")
    u = draw(st.integers(min_value=1, max_value=n - 1), label="unit")
    while gcd(u, n) != 1:
        u += 1
    order = draw(st.permutations((1, x, n - 1 - x)), label="order")
    return (n, *(u * k % n for k in order))


@seed(20261019)
@settings(max_examples=400, deadline=None)
@given(_row_shaped())
@example((16, 1, 6, 9))
@example((1_000_000, 1, 499_998, 500_001))
@example((1_000_000, 499_998, 500_001, 1))
@example((8, 1, 2, 5))
@example((7, 1, 2, 4))
@example((12, 1, 3, 8))
@example((8, 1, 3, 4))
@example((12, 1, 4, 7))
@example((24, 1, 4, 19))
def test_walker_matches_nested_walk_at_large_degrees(triple):
    _assert_belyi_walk(*triple)


def test_fermat_walker_matches_nested_walk():
    for n in range(2, 70):
        for d in range(2, n + 1):
            if 2 - d - gcd(d, n) + (d - 1) * n < 4:  # twice the genus below 4
                with pytest.raises(DomainError, match="below hyperbolic range"):
                    classify_fermat(n, d)
                continue
            row, twist = nested_walk(FORM_FERMAT_ROWS, n, [(d,)])
            r = classify_fermat(n, d)
            assert (r.row, r.group) == (
                row, _expected_group(classifier._FERMAT_RULES, n, row, twist)), (n, d)


def test_verdict_memo_holds_one_entry_per_class():
    # one verdict at n = 10^6 + 3 leaves one memo entry, not a table over the
    # degree's residues, and a permuted, unit-rescaled member of its class
    # reads that entry
    n = 1000003
    classifier._verdict.cache_clear()
    verdict = belyi_verdict(n, 1, 2, 1000000)
    assert classifier._verdict.cache_info().currsize == 1
    member = (3 * 1000000 % n, 3 * 1 % n, 3 * 2 % n)
    assert belyi_verdict(n, *member) == verdict
    info = classifier._verdict.cache_info()
    assert (info.currsize, info.hits) == (1, 1)


def test_fermat_verdicts_keep_no_memory_per_branch_point():
    # y^n + x^d = 1 branches over d + 1 points; a memo keyed and valued by
    # one entry per branch point kept about 0.1 MB for each of these calls
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(2000, 2020):
            classify_fermat(n, 2000)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2**19


@pytest.mark.parametrize("breaks, message", [
    (lambda group, chain_rows, genus_column: (group, chain_rows, genus_column + 1),
     "row B.1 genus column mismatch"),
    (lambda group, chain_rows, genus_column: (
        GroupDescriptor(2 * group.order, "NAMED", ("X",)), chain_rows, genus_column),
     "order law broken on row B.1"),
])
def test_verdict_checks_the_row_it_builds(monkeypatch, breaks, message):
    # (1, 4, 10) fires B.1 at n = 15, of genus 5; a wrong genus column or a
    # wrong order in the row's build fails the first verdict of the row
    assert belyi_verdict(15, 1, 4, 10).row == "B.1"
    rules = tuple(
        (row, holds, (lambda n, twist, build=build: breaks(*build(n, twist))))
        if row == "B.1" else (row, holds, build)
        for row, holds, build in classifier._BELYI_RULES
    )
    monkeypatch.setitem(classifier._RULES, "belyi", rules)
    classifier._verdict.cache_clear()
    try:
        assert belyi_verdict(15, 1, 1, 13).row == "A.1"
        with pytest.raises(AssertionError, match=message):
            belyi_verdict(15, 4, 10, 1)
    finally:
        classifier._verdict.cache_clear()


# invalid Belyi inputs and the exact DomainError text each must keep
BELYI_INVALID = [
    ((3, 1, 1, 1), "three-branch-point classification needs degree >= 4, got 3"),
    ((0, 1, 1, 1), "three-branch-point classification needs degree >= 4, got 0"),
    ((-5, 1, 1, 1), "three-branch-point classification needs degree >= 4, got -5"),
    ((7, 0, 3, 4), "triple entry 0 outside [1, 6]"),
    ((7, 1, 2, 7), "triple entry 7 outside [1, 6]"),
    ((7, 1, 1, 12), "triple entry 12 outside [1, 6]"),
    ((7, -1, 4, 4), "triple entry -1 outside [1, 6]"),
    ((7, 1, -2, 1), "triple entry -2 outside [1, 6]"),
    ((7, 1, 2, 3), "triple does not sum to 0 mod n"),
    ((6, 2, 2, 2), "triple shares a common factor with n"),
    ((8, 4, 2, 2), "triple shares a common factor with n"),
]


def test_belyi_validation():
    for args, text in BELYI_INVALID:
        with pytest.raises(DomainError) as info:
            classify_belyi(*args)
        assert str(info.value) == text, args


def _assert_report_matches_cover_functions(n, a, b, c):
    r = classify_belyi(n, a, b, c)
    cover = belyi_cover(n, a, b, c)
    assert r.cover == cover
    assert r.genus == genus(cover)
    assert r.signature == signature_of(cover)
    assert r.canonical == canonical_triple(n, a, b, c)


@st.composite
def _admissible(draw):
    n = draw(st.integers(min_value=4, max_value=10**6), label="n")
    a = draw(st.integers(min_value=1, max_value=n - 1), label="a")
    b = draw(st.integers(min_value=1, max_value=n - 1), label="b")
    c = (-a - b) % n
    assume(c != 0 and gcd(n, a, b, c) == 1)
    return n, a, b, c


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(_admissible())
@example((30, 2, 3, 25))  # no unit entry: the closed form gives the canonical triple
@example((210, 2, 3, 205))
@example((8, 1, 2, 5))
def test_belyi_report_matches_cover_functions(triple):
    # genus, signature and canonical triple come from the triple's gcds and
    # unit-led forms; the cover functions compute each on their own
    _assert_report_matches_cover_functions(*triple)


def test_belyi_report_matches_cover_functions_without_unit_entries():
    # every ordered triple at the degrees below 61 where a class has no unit entry
    for n in (30, 42, 60):
        for a in range(1, n):
            for b in range(1, n):
                c = (-a - b) % n
                if c and gcd(n, a, b, c) == 1 and min(gcd(n, k) for k in (a, b, c)) > 1:
                    _assert_report_matches_cover_functions(n, a, b, c)


# -- prime-degree family ----------------------------------------------------


def test_lefschetz_canonical_examples():
    assert lefschetz_canonical(7, 5) == 1
    assert lefschetz_canonical(7, 3) == 1
    assert lefschetz_canonical(13, 3) == 3
    assert lefschetz_canonical(11, 2) == 2
    with pytest.raises(DomainError):
        lefschetz_canonical(9, 2)
    with pytest.raises(DomainError):
        lefschetz_canonical(7, 6)


LEFSCHETZ_INSTANCES = [
    (5, 1, "L.1", 10, "Z10"),
    (7, 5, "L.1", 14, "Z14"),
    (7, 2, "L.2", 168, "PSL(2,7)"),
    (13, 3, "L.3", 39, "Z13:Z3"),
    (11, 2, "L.4", 11, "Z11"),
]


@pytest.mark.parametrize("p,a,row,order,structure", LEFSCHETZ_INSTANCES)
def test_lefschetz_instances(p, a, row, order, structure):
    r = classify_lefschetz(p, a)
    assert (r.row, r.group.order, r.group.structure) == (row, order, structure)
    assert r.genus == (p - 1) // 2
    assert r.kind == "lefschetz"


def test_lefschetz_nonabelian_without_presentation_gap():
    r = classify_lefschetz(13, 3)
    pres = r.group.presentation
    assert pres is not None
    assert coset_enumerate(pres) == 39


def test_lefschetz_agrees_with_triple_classifier():
    # y^p = x^a0 (x+1) branches over 0, -1 and infinity with exponents
    # (a0, 1, p-1-a0); its row must be the paper's closed-form L row, and its
    # descriptor, chain and genus those of the triple classifier's answer
    rows = {"A.1": "L.1", "C.2": "L.2", "C.1": "L.3", "DEFAULT": "L.4"}
    for p in [p for p in range(5, 100) if is_prime(p)]:
        orders = {"L.1": 2 * p, "L.2": 168, "L.3": 3 * p, "L.4": p}
        for a in range(1, p - 1):
            rl = classify_lefschetz(p, a)
            a0 = lefschetz_canonical(p, a)
            if a0 == 1:
                want = "L.1"
            elif p == 7 and a0 == 2:
                want = "L.2"
            elif p % 3 == 1 and p > 7 and (1 + a0 + a0 * a0) % p == 0:
                want = "L.3"
            else:
                want = "L.4"
            assert rl.row == want, (p, a)
            assert rl.group.order == orders[want], (p, a)
            if want == "L.3":
                assert rl.group.params == (p, a0), (p, a)
            rb = classify_belyi(p, a0, 1, p - 1 - a0)
            assert rows[rb.row] == want, (p, a)
            assert rl.group == rb.group, (p, a)
            assert (rl.chain, rl.genus) == (rb.chain, rb.genus), (p, a)
            assert report_to_json_dict(rl)["input"] == {
                "n": p,
                "branches": [{"point": "0", "exponent": a0}, {"point": "-1", "exponent": 1}],
                "infinity_exponent": p - 1 - a0,
            }, (p, a)


def test_classification_makes_one_unit_scan(monkeypatch):
    # no classification scans residues: the table rows test the triple's
    # unit-led forms, which also give the canonical triple when an entry is
    # a unit; only a triple without one runs the closed form, once
    import cyclicaut.classifier as classifier
    import cyclicaut.curve as curve
    import cyclicaut.numtheory as numtheory

    calls = {"canonical_triple": 0, "involutory_units": 0, "omega_units": 0, "units": 0}

    def counting(name, inner):
        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    monkeypatch.setattr(classifier, "canonical_triple",
                        counting("canonical_triple", classifier.canonical_triple))
    for name in ("involutory_units", "omega_units", "units"):
        wrapper = counting(name, getattr(numtheory, name))
        monkeypatch.setattr(numtheory, name, wrapper)
        monkeypatch.setattr(classifier, name, wrapper, raising=False)
        monkeypatch.setattr(curve, name, wrapper, raising=False)
    cases = [
        (classify_belyi, (9919, 1, 2, 9916), "DEFAULT", 0),
        (classify_belyi, (15, 4, 10, 1), "B.1", 0),
        (classify_belyi, (91, 9, 81, 1), "C.1", 0),
        (classify_belyi, (30, 2, 3, 25), "DEFAULT", 1),
        (classify_lefschetz, (43, 6), "L.3", 0),
        (classify_lefschetz, (43, 5), "L.4", 0),
    ]
    for classify, args, row, closed_forms in cases:
        calls.update(dict.fromkeys(calls, 0))
        assert classify(*args).row == row
        assert calls == {"canonical_triple": closed_forms, "involutory_units": 0,
                         "omega_units": 0, "units": 0}, args


def test_lefschetz_isomorphic_examples():
    assert lefschetz_isomorphic(11, 2, 4) is True
    assert lefschetz_isomorphic(7, 1, 2) is False
    with pytest.raises(DomainError):
        lefschetz_isomorphic(11, 2, 5)


@pytest.mark.parametrize("p", [-7, 1, 2, 3, 4, 9, 25])
def test_lefschetz_entry_points_reject_a_degree_with_one_text(p):
    calls = (lambda: classify_lefschetz(p, 1), lambda: lefschetz_canonical(p, 1),
             lambda: lefschetz_isomorphic(p, 1, 1))
    for call in calls:
        with pytest.raises(DomainError) as exc:
            call()
        assert str(exc.value) == f"degree must be a prime >= 5, got {p}"


def test_lefschetz_and_fermat_reports_read_degree_and_exponents_off_the_cover():
    assert classify_lefschetz(11, 7).triple == (3, 1, 7)  # over 0, -1 and infinity
    fermat = classify_fermat(5, 3)
    assert (fermat.n, fermat.triple) == (5, None)


def test_no_chain_below_genus_two():
    # A.2 at n = 4 and DEFAULT at n = 6 are the verdicts below genus 2 up to
    # n = 120; A.2 ships the chain step 12 from genus 2 on
    low = [belyi_verdict(4, 1, 1, 2), belyi_verdict(6, 1, 2, 3)]
    assert [(v.genus, v.row, v.chain) for v in low] == [(1, "A.2", ()), (1, "DEFAULT", ())]
    assert [step.row_id for step in belyi_verdict(6, 1, 1, 4).chain] == ["12"]


def test_lefschetz_isomorphic_is_equivalence():
    for p in [p for p in range(5, 101) if is_prime(p)]:
        half = (p - 1) // 2
        values = range(1, half)
        rel = {(a, b): lefschetz_isomorphic(p, a, b) for a in values for b in values}
        for a in values:
            assert rel[(a, a)]
            for b in values:
                assert rel[(a, b)] == rel[(b, a)]
        # transitivity: relation classes partition the range
        classes = {a: frozenset(b for b in values if rel[(a, b)]) for a in values}
        for a in values:
            for b in classes[a]:
                assert classes[b] == classes[a]


def test_lefschetz_isomorphism_classes_match_groups():
    # isomorphic curves must get identical verdicts
    for p in [7, 11, 13, 19]:
        half = (p - 1) // 2
        for a in range(1, half):
            for b in range(1, half):
                if lefschetz_isomorphic(p, a, b):
                    ra, rb = classify_lefschetz(p, a), classify_lefschetz(p, b)
                    assert ra.group == rb.group


# -- Fermat curves ----------------------------------------------------------


FERMAT_INSTANCES = [
    (4, 4, "F.1", 96, "(Z4+Z4):S3", (4, 4, 4)),
    (5, 4, "F.2", 20, "Z4+Z5", (4, 5, 20)),
    (8, 4, "F.3", 64, "(central Z4):D16", (4, 8, 8)),
    (5, 2, "F.4", 10, "Z10", (2, 5, 10)),
    (6, 2, "F.5", 24, "(Z2+Z6):Z2", (2, 6, 6)),
    (7, 2, "F.4", 14, "Z14", (2, 7, 14)),
    (6, 3, "F.6", 36, "(Z3+Z6):Z2", (3, 6, 6)),
    (5, 3, "F.7", 15, "Z15", (3, 5, 15)),
    (4, 3, "F.8", 48, "(central Z4):A4", (3, 4, 12)),
]


@pytest.mark.parametrize("n,d,row,order,structure,periods", FERMAT_INSTANCES)
def test_fermat_instances(n, d, row, order, structure, periods):
    r = classify_fermat(n, d)
    assert (r.row, r.group.order, r.group.structure) == (row, order, structure)
    assert r.signature.periods == periods
    assert r.base_order == d * n
    assert r.kind == "fermat" and r.canonical is None


def test_fermat_below_hyperbolic_range():
    for n, d in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        with pytest.raises(DomainError, match="below hyperbolic range"):
            classify_fermat(n, d)
    with pytest.raises(DomainError):
        classify_fermat(4, 5)  # d > n
    with pytest.raises(DomainError):
        classify_fermat(6, 1)


def test_fermat_order_law():
    for n in range(2, 16):
        for d in range(2, n + 1):
            try:
                r = classify_fermat(n, d)
            except DomainError:
                continue
            total = r.base_order
            for step in r.chain:
                total *= step.index
            assert r.group.order == total
            assert r.group.order <= 84 * (r.genus - 1)


def test_fermat_diagonal_is_quadratic_growth():
    for n in [4, 5, 6, 7, 10]:
        r = classify_fermat(n, n)
        assert r.row == "F.1"
        assert r.group.order == 6 * n * n
        assert r.chain[0].row_id == "2" and r.chain[0].index == 6


def test_fermat_quadratic_matches_triple_classifier():
    # y^n + x^2 = 1 branches over three points, so both classifiers apply
    for n in range(5, 16):
        rf = classify_fermat(n, 2)
        rb = classify_cover(parse_curve(f"y^{n} + x^2 = 1"))
        assert rf.group.order == rb.group.order
        if n % 2:
            assert rf.group.structure == rb.group.structure
        else:
            # same order-4n group printed in two frames; compare fingerprints
            fa = fingerprint(rf.group.presentation)
            fb = fingerprint(rb.group.presentation)
            assert fa == fb


def test_fermat_coprime_matches_triple_classifier():
    # for gcd(d, n) = 1, y^n + x^d = 1 is the cyclic dn-fold cover with the
    # triple (n, d, dn - n - d), so both classifiers apply; this ties F.8's
    # typed order 48 to D.1's
    rows = {}
    for n in range(3, 61):
        for d in range(2, n):
            if gcd(d, n) != 1 or (d - 1) * (n - 1) < 4:  # genus (d-1)(n-1)/2 below 2
                continue
            rf = classify_fermat(n, d)
            rb = classify_belyi(d * n, n, d, d * n - n - d)
            assert (rf.group.order, rf.genus, rf.chain, rf.signature) == (
                rb.group.order, rb.genus, rb.chain, rb.signature
            ), (n, d)
            rows[rf.row, rb.row] = rows.get((rf.row, rb.row), 0) + 1
    assert set(rows) == {("F.2", "DEFAULT"), ("F.4", "DEFAULT"), ("F.7", "DEFAULT"),
                         ("F.8", "D.1")}
    assert rows["F.8", "D.1"] == 1
    assert sum(rows.values()) == 1041


# -- serialization ----------------------------------------------------------


def test_report_json_shape():
    out = report_to_json_dict(classify_belyi(7, 1, 2, 4))
    assert list(out) == ["input", "canonical_triple", "genus", "signature", "row",
                         "order", "structure", "chain", "base_order"]
    assert out["canonical_triple"] == [1, 2, 4]
    assert out["signature"] == [7, 7, 7]
    assert out["chain"] == [{"row": "4", "signature": [2, 3, 7], "index": 24}]
    assert out["order"] == 168 and out["base_order"] == 7
    json.dumps(out)


def test_report_json_presentation_and_notes():
    out = report_to_json_dict(classify_belyi(15, 1, 4, 10))
    assert "presentation" in out
    assert out["presentation"].startswith("<u,v |")
    out = report_to_json_dict(classify_belyi(4, 1, 1, 2))
    assert "notes" in out and out["chain"] == []
    out = report_to_json_dict(classify_fermat(5, 4))
    assert out["canonical_triple"] is None
    assert out["order"] == 20 and out["structure"] == "Z4+Z5"
    json.dumps(out)


def test_group_descriptor_validation():
    with pytest.raises(DomainError):
        GroupDescriptor(0, "CYCLIC", (0,))
    with pytest.raises(DomainError):
        GroupDescriptor(6, "CYCLIC", (5,))
    with pytest.raises(DomainError):
        GroupDescriptor(6, "DIHEDRAL", (3,))
    # a cyclic group is written from its order, so it needs no params
    assert GroupDescriptor(12, "CYCLIC", ()).structure == "Z12"
    # params that do not fill the kind's format are refused up front
    with pytest.raises(DomainError, match="do not fill"):
        GroupDescriptor(48, "NAMED", ())
    with pytest.raises(DomainError, match="do not fill"):
        GroupDescriptor(96, "DIRECT_SUM_SEMIDIRECT", (4, "S3"))


def test_presentation_builders_print_their_text():
    # each builder returns the text presentation_to_text prints for it
    texts = [classifier.octahedral_times_c4_presentation()]
    for n in range(2, 120):
        texts += [classifier.cyclic_presentation(n), classifier.fermat_quadratic_presentation(n),
                  classifier.fermat_cubic_presentation(n)]
        if n % 2 == 0 and n >= 4:
            texts.append(classifier.central_dihedral_presentation(n))
        if n % 2 == 0 and n >= 6:
            texts.append(classifier.kulkarni_presentation(n))
    for n in range(2, 40):
        for k in range(1, n):
            texts += [classifier.twisted_c2_presentation(n, k),
                      classifier.twisted_c3_presentation(n, k)]
        for d in range(2, n + 1):
            texts += [classifier.abelian_presentation(d, n),
                      classifier.fermat_divisor_presentation(d, n)]
    for text in texts:
        assert presentation_to_text(parse_presentation(text)) == text


def test_classification_builds_no_presentation(monkeypatch):
    # reports carry presentation text; a Presentation is built only on request
    built = []
    check = Presentation.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Presentation, "__post_init__", counting)
    reports = [classify_belyi(n, *t) for n, t in [
        (9, (1, 1, 7)), (10, (1, 1, 8)), (15, (1, 4, 10)), (16, (1, 6, 9)), (13, (1, 3, 9)),
        (7, (1, 2, 4)), (8, (1, 2, 5)), (11, (1, 2, 8)), (10007, (1, 2, 10004)),
    ]]
    reports += [classify_lefschetz(p, a) for p, a in [(7, 2), (13, 3), (11, 1), (11, 2)]]
    reports += [classify_fermat(n, d) for n, d in [
        (5, 2), (6, 2), (6, 3), (4, 3), (5, 3), (5, 5), (5, 4), (8, 4),
    ]]
    for r in reports:
        report_to_json_dict(r)
    assert built == []
    assert classify_belyi(15, 1, 4, 10).group.presentation is not None
    assert len(built) == 1


def test_shared_descriptors_stay_values():
    # group descriptors, signatures and chains that depend only on the
    # degree or the periods are built once and shared between reports; each
    # report still reads as its own
    cases = [(7, (1, 2, 4)), (9, (1, 1, 7)), (15, (1, 4, 10)), (16, (1, 6, 9)),
             (30, (2, 3, 25)), (9919, (1, 2, 9916))]
    for n, triple in cases:
        first, second = classify_belyi(n, *triple), classify_belyi(n, *triple)
        assert first == second
        assert json.dumps(report_to_json_dict(first)) == json.dumps(report_to_json_dict(second))
    for n in list(range(4, 40)) + list(range(39, 3, -1)):
        defaults = [classify_belyi(n, *t) for t in admissible_triples(n)]
        defaults = [r for r in defaults if r.row == "DEFAULT"]
        for r in defaults:
            assert r.group.order == n and r.group.params == (n,)
            assert r.group.structure == f"Z{n}"
            assert r.group.presentation_text == f"<a | a^{n}>"
            assert r.base_order == n and r.chain == ()


# -- the lows key -------------------------------------------------------------


def _lows_of(n, triple):
    """The sorted lows min(x, n-1-x) of the leads x = s/k, over the unit
    entries k of the triple and the entry s after each, inverted by pow."""
    lows = []
    for k, s in zip(triple, triple[1:] + triple[:1]):
        if gcd(n, k) == 1:
            x = s * pow(k, -1, n) % n
            lows.append(min(x, n - 1 - x))
    return tuple(sorted(lows))


@lru_cache(maxsize=16)
def _walk_by_lows(n):
    """The walk of degree n as {triple: verdict}, and its triples by lows."""
    verdicts, by_lows = {}, {}
    for triple, verdict in belyi_verdicts(n):
        verdicts[triple] = verdict
        by_lows.setdefault(_lows_of(n, triple), []).append(triple)
    return verdicts, by_lows


@st.composite
def _lows_case(draw):
    """An admissible triple at a degree from 4 to 10^4, with a unit u.  Half
    the degrees are at most 60, and many are multiples of 6, 30, 210 or
    2310; each of the first two entries is a multiple of one of the
    degree's primes two times in three, so that many triples have one unit
    entry or none."""
    if draw(st.booleans(), label="walked degree"):
        n = draw(st.one_of(st.integers(min_value=4, max_value=60),
                           st.sampled_from([12, 24, 30, 36, 42, 48, 60])), label="n")
    else:
        n = draw(st.one_of(st.integers(min_value=61, max_value=10**4),
                           st.integers(min_value=1, max_value=47).map(lambda k: 210 * k),
                           st.integers(min_value=1, max_value=4).map(lambda k: 2310 * k)),
                 label="n")
    primes = [q for q, _ in factorize(n) if q < n]
    entries = []
    for label in ("a", "b"):
        p = draw(st.sampled_from([1, *primes, *primes]), label=f"{label} factor")
        entries.append(p * draw(st.integers(min_value=1, max_value=(n - 1) // p), label=label))
    a, b = entries
    c = (-a - b) % n
    assume(c != 0 and gcd(n, a, b, c) == 1)
    u = draw(st.integers(min_value=1, max_value=n - 1), label="unit")
    while gcd(u, n) != 1:
        u += 1
    return n, (a, b, c), u


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lows_case())
@example((30, (2, 3, 25), 7))  # no unit entry
@example((12, (2, 3, 7), 5))  # one unit entry
@example((2310, (2, 3, 2305), 13))  # no unit entry, past the walked degrees
@example((8, (1, 2, 5), 3))
def test_the_lows_key_is_a_class_invariant(case):
    # the verdict is the same on every permutation and unit rescaling of a
    # triple, and the walk's, which it keys on the lows, agrees with it;
    # within one walk, equal non-empty lows give one verdict object
    n, triple, u = case
    verdict = belyi_verdict(n, *triple)
    for perm in permutations(triple):
        assert belyi_verdict(n, *perm) == verdict, (n, perm)
    assert belyi_verdict(n, *(u * k % n for k in triple)) == verdict, (n, triple, u)
    if n > 60:
        return
    verdicts, by_lows = _walk_by_lows(n)
    assert verdicts[triple] == verdict, (n, triple)
    lows = _lows_of(n, triple)
    if lows:
        assert all(verdicts[t] is verdicts[triple] for t in by_lows[lows]), (n, triple)
