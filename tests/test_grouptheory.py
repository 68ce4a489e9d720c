import copy
import json
import random
import time
import tracemalloc
from itertools import islice, product
from math import factorial, gcd, prod

import pytest

from hypothesis import assume, example, given, seed, settings, strategies as st

from cyclicaut.grouptheory import (
    AbelianInvariants,
    BudgetExceeded,
    Fingerprint,
    PermutationSet,
    Presentation,
    abelianization,
    coset_enumerate,
    fingerprint,
    parse_permutations,
    parse_presentation,
    perm_order,
    presentation_to_text,
    smith_normal_form,
)
from cyclicaut import grouptheory
from cyclicaut.classifier import classify_fermat
from cyclicaut.numtheory import DomainError

# relators whose expansion passes MAX_RELATOR_LETTERS: a huge power, a power
# of a power, and 23 nested commutators of about 2.5e7 letters
OVERLONG_RELATORS = (
    "a^99999999999",
    "(a^100000)^100000",
    "[" * 23 + "a" + ",a]" * 23,
)


# ---------------------------------------------------------------------------
# parsing


def test_parse_basic():
    p = parse_presentation("<a,b | a^2, b^3, (a*b)^7>")
    assert p.generator_count == 2
    assert p.names == ("a", "b")
    assert p.relators == ((1, 1), (2, 2, 2), (1, 2) * 7)


def test_parse_whitespace_and_star_are_interchangeable():
    p1 = parse_presentation("<u,v | u^4 v  u^-1, v^2>")
    p2 = parse_presentation("<u,v | u^4*v*u^-1, v^2>")
    assert p1.relators == p2.relators == ((1, 1, 1, 1, 2, -1), (2, 2))


def test_parse_commutator_and_negative_powers():
    p = parse_presentation("<a,b | [a,b], a^-2>")
    assert p.relators == ((1, 2, -1, -2), (-1, -1))
    q = parse_presentation("<a,b | (a*b^-1)^-2>")
    assert q.relators == ((2, -1, 2, -1),)


def test_parse_json_form():
    p = parse_presentation('{"generators": 2, "relators": [[1,1],[2,2,2],[1,2,1,2]]}')
    assert p.generator_count == 2
    assert coset_enumerate(p) == 6


def test_parse_errors_carry_position():
    with pytest.raises(DomainError, match="position"):
        parse_presentation("<a,b | a^2, b@3>")
    with pytest.raises(DomainError, match="unknown generator"):
        parse_presentation("<a | a*c>")
    with pytest.raises(DomainError, match="trailing"):
        parse_presentation("<a | a^2> junk")
    with pytest.raises(DomainError):
        parse_presentation("no brackets")
    with pytest.raises(DomainError, match="position 5007: integer of 5000 digits"):
        parse_presentation("<a | a^" + "9" * 5000 + ">")
    with pytest.raises(DomainError, match="position 7: expected an integer"):
        parse_presentation("<a | a^\u00b2>")  # a digit, but not a decimal one


@pytest.mark.parametrize("word", OVERLONG_RELATORS)
def test_overlong_relator_is_a_domain_error(word):
    with pytest.raises(DomainError, match="more than 10000000 letters"):
        parse_presentation(f"<a | {word}>")


def test_nesting_depth_is_bounded():
    depth = grouptheory.MAX_NESTING_DEPTH
    deepest = "<a | " + "(" * depth + "a" + ")" * depth + ">"
    assert parse_presentation(deepest).relators == ((1,),)
    # one level more, by a parenthesis or a commutator, is refused at its opener
    position = 5 + depth
    for opener in "([":
        text = "<a | " + "(" * depth + opener + "a" + ")" * (depth + 1) + ">"
        with pytest.raises(
            DomainError,
            match=f"position {position}: subwords nested deeper than {depth}$",
        ):
            parse_presentation(text)


def test_relator_letter_bound_is_checked_before_each_expansion(monkeypatch):
    monkeypatch.setattr(grouptheory, "MAX_RELATOR_LETTERS", 100)
    assert len(parse_presentation("<a | a^-100>").relators[0]) == 100
    assert len(parse_presentation("<a,b | [a^25,b^25]>").relators[0]) == 100
    assert len(parse_presentation("<a | a^60*a^40>").relators[0]) == 100
    assert parse_presentation("<a | a^60, a^40>").relators == ((1,) * 60, (1,) * 40)
    # the bound covers all relators together
    for word in ("a^60*a^41", "a^60 a^40 a", "(a^11)^10", "a^60, a^41", "a^50, a, a^50"):
        with pytest.raises(DomainError, match="more than 100 letters"):
            parse_presentation(f"<a | {word}>")

    # a power or commutator past the bound stops before any word is inverted
    def no_inverse(word):
        raise AssertionError(f"a word of {len(word)} letters was inverted")

    monkeypatch.setattr(grouptheory, "inverse_word", no_inverse)
    for word in ("a^-101", "(a^11)^-10", "[a^25,a^26]"):
        with pytest.raises(DomainError, match="more than 100 letters"):
            parse_presentation(f"<a | {word}>")


def test_text_round_trip():
    for text in (
        "<a | a^5>",
        "<u,v | u^4, v^8, (u*v)^2, u^2*v*u^2*v^3>",
        "<x,y | x^2, y^3, x*(x*y)^3*x^-1*(x*y)^-3>",
    ):
        p = parse_presentation(text)
        again = parse_presentation(presentation_to_text(p))
        assert again.relators == p.relators
        assert again.names == p.names


def test_presentation_validation():
    with pytest.raises(DomainError):
        Presentation(0, ())
    with pytest.raises(DomainError):
        Presentation(1, ((),))
    with pytest.raises(DomainError):
        Presentation(1, ((2,),))
    with pytest.raises(DomainError):
        Presentation(2, ((1,),), names=("a", "a"))


@pytest.mark.parametrize(
    "relators,bad",
    [
        ([[1, 2, -3, 0]], -3),
        ([[1, -2], [2, 0, 5]], 0),
        ([[-1, -1], [2, 1, 3, -4]], 3),
        ([[2] * 1000 + [10**20]], 10**20),
    ],
)
def test_json_relator_letter_error_names_the_first_bad_letter(relators, bad):
    text = json.dumps({"generators": 2, "relators": relators})
    with pytest.raises(DomainError, match=f"^relator letter {bad} out of range$"):
        parse_presentation(text)


@pytest.mark.parametrize("relators", [[["a"]], [[1.0]], [[True, 1]], [1], [[1, None]]])
def test_json_relator_letters_must_be_integers(relators):
    text = json.dumps({"generators": 2, "relators": relators})
    with pytest.raises(DomainError, match="relators must be lists of integers"):
        parse_presentation(text)


# ---------------------------------------------------------------------------
# coset enumeration


def test_coset_enumerate_cyclic():
    assert coset_enumerate(parse_presentation("<a | a^5>")) == 5


def test_coset_enumerate_known_orders():
    assert coset_enumerate(parse_presentation("<u,v | u^2, v^7, (u*v)^2>")) == 14
    assert coset_enumerate(parse_presentation("<x,y | x^2, y^3, (x*y)^4>")) == 24
    assert coset_enumerate(parse_presentation("<x,y | x^2, y^3, (x*y)^5>")) == 60
    assert coset_enumerate(parse_presentation("<x,y | x^2, y^2, (x*y)^2>")) == 4


@pytest.mark.parametrize(
    "text,order",
    [
        ("<u,v | u^4, v^8, (u*v)^2, u^2*v*u^2*v^3>", 32),
        ("<u,v | u^4, v^16, (u*v)^2, u^2*v*u^2*v^7>", 64),
        ("<u,v | u^4, v^6, (u*v)^2, [u^2,v]>", 24),
        ("<u,v | u^2, v^15, u*v*u*v^-4>", 30),
        ("<s,t | s^3, t^13, s*t*s^-1*t^-3>", 39),
        ("<s,t | s^4, t^5, [s,t]>", 20),
        ("<s,t,u | s^4, t^16, u^2, [s,t], [s,u], (u*t)^2*s>", 128),
        ("<a,b,u | a^6, b^6, (a*b)^2, [a,b], u^2, u*a*u*b^-1, u*b*u*a^-1>", 24),
        ("<a,b,u | a^6, b^6, (a*b)^3, [a,b], u^2, u*a*u*b^-1, u*b*u*a^-1>", 36),
        ("<x,y | x^2, y^3, x*(x*y)^3*x^-1*(x*y)^-3>", 48),
    ],
)
def test_coset_enumerate_catalog(text, order):
    assert coset_enumerate(parse_presentation(text)) == order


def test_coset_enumerate_budget_on_hyperbolic_triangle():
    with pytest.raises(BudgetExceeded) as exc:
        coset_enumerate(parse_presentation("<x,y | x^2, y^3, (x*y)^7>"), max_cosets=10_000)
    assert exc.value.budget == 10_000


def test_coset_enumerate_budget_on_free_group():
    with pytest.raises(BudgetExceeded):
        coset_enumerate(parse_presentation("<a | >"), max_cosets=100)


def test_coset_enumerate_deterministic():
    p = parse_presentation("<x,y | x^2, y^2, (x*y)^12>")
    assert coset_enumerate(p) == coset_enumerate(p) == 24


# counts of HLT scanning every relator at every coset, which skipping the
# scans known to close must keep:
# (text, max_cosets, cosets defined, merges, order or None at a budget stop).
# They are pinned on the bare HLT loop, which coset_enumerate runs where it
# makes a table: it makes none for Z100xZ100, which is abelian, nor for the
# (2,3,7) triangle group, which it proves infinite first.  The last two
# repeat a relator, which _powers drops; kept, its scans change no count
# (see test_a_repeated_relator_changes_no_count).
PINNED_COUNTS = [
    ("<u,v | u^2, v^1000, (u*v)^2>", 1_000_000, 2996, 997, 2000),
    ("<a,b | a^100, b^100, [a,b]>", 1_000_000, 19603, 9604, 10000),
    ("<x,y | x^2, y^3, (x*y)^7, [x,y]^4>", 1_000_000, 668, 501, 168),
    ("<x,y | x^2, y^3, (x*y)^7>", 2000, 2296, 309, None),
    ("<u,v | u^2, v^1000, (u*v)^2, v^1000, u^2>", 1_000_000, 2996, 997, 2000),
    ("<x,y | x^2, y^3, (x*y)^7, x^2>", 2000, 2296, 309, None),
]


def _tables_made(monkeypatch) -> list:
    """Every coset table that enumerations make from here on, in order."""
    tables = []

    class Kept(grouptheory._CosetTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(grouptheory, "_CosetTable", Kept)
    return tables


@pytest.mark.parametrize("text,budget,defined,merges,order", PINNED_COUNTS)
def test_skipped_scans_are_no_ops(monkeypatch, text, budget, defined, merges, order):
    tables = _tables_made(monkeypatch)
    pres = parse_presentation(text)
    outcome = order or ("BudgetExceeded", "coset enumeration", budget)
    assert _outcome(_hlt, pres, budget) == outcome
    (ct,) = tables
    assert (ct.defined, ct.merges) == (defined, merges)
    assert _outcome(coset_enumerate, pres, budget) == outcome


@pytest.mark.parametrize("text,budget,defined,merges,order", PINNED_COUNTS[:4])
def test_a_repeated_relator_changes_no_count(monkeypatch, text, budget, defined, merges, order):
    # every relator given twice, past the drop of repeats in _powers
    tables = _tables_made(monkeypatch)
    pres = parse_presentation(text)
    powers = grouptheory._powers(pres.relators)
    try:
        grouptheory._enumerate_hlt(pres.generator_count, powers * 2, budget)
    except BudgetExceeded:
        pass
    (ct,) = tables
    assert (ct.defined, ct.merges) == (defined, merges)


def _square_chain(count: int) -> Presentation:
    """<g1..g_count | g_i^2, g_i * g_(i+1)^-1>: the group of order 2, whose
    squares alone give a maximal minor of 2^count."""
    squares = tuple((i, i) for i in range(1, count + 1))
    return Presentation(count, squares + tuple((i, -i - 1) for i in range(1, count)))


@pytest.mark.parametrize(
    "pres,budget",
    [
        (parse_presentation("<a,b | [a,b]>"), 1_000_000),  # free abelian
        (parse_presentation("<a | >"), 1_000_000),
        (parse_presentation("<a,b | a^2>"), 1_000_000),
        (parse_presentation("<a,b | b^-6, b^5>"), 30),
        (parse_presentation("<a | a^2000000>"), 1_000_000),  # abelianization too large
        (parse_presentation("<a | a^100>"), 50),
        (parse_presentation("<a,b | a^40, b^40, [a,b]>"), 1000),
    ],
    ids=["[a,b]", "<a|>", "a^2", "b^-6,b^5", "a^2000000", "a^100", "Z40xZ40"],
)
def test_abelianization_too_large_stops_before_any_table(monkeypatch, pres, budget):
    tables = _tables_made(monkeypatch)
    with pytest.raises(BudgetExceeded) as exc:
        coset_enumerate(pres, max_cosets=budget)
    assert (exc.value.what, exc.value.budget) == ("coset enumeration", budget)
    assert tables == []


def _hlt(pres: Presentation, budget: int) -> int:
    """The bare HLT loop on pres, without the abelianization check before it."""
    return grouptheory._enumerate_hlt(
        pres.generator_count, grouptheory._powers(pres.relators), budget
    )


def _triangle(l: int, m: int, n: int) -> str:
    return f"<x,y | x^{l}, y^{m}, (x*y)^{n}>"


def _triangle_order(l: int, m: int, n: int) -> int | None:
    """2 / (1/l + 1/m + 1/n - 1), the order of a spherical triangle group,
    or None when 1/l + 1/m + 1/n <= 1 and the group is infinite."""
    excess = m * n + l * n + l * m - l * m * n
    return 2 * l * m * n // excess if excess > 0 else None


TRIANGLE_PERIODS = list(product(range(2, 8), repeat=3))
INFINITE_TRIANGLES = [p for p in TRIANGLE_PERIODS if _triangle_order(*p) is None]


@pytest.mark.parametrize(
    "text",
    [
        "<x,y | x^2, y^3, (x*y)^7>",
        "<x,y | x^4, y^8, (x*y)^8>",
        "<x,y | x^3, y^3, (x*y)^4>",
        "<x,y | x^2, y^3, (x*y)^6>",  # Euclidean
        "<x,y | x^2, y^4, (x*y)^4>",
        "<x,y | x^3, y^3, (x*y)^3>",
        "<x,y | x^2, y^3, (y*x)^7>",  # rotated
        "<x,y | x^2, y^3, (x*y)^-7>",  # inverted
        "<x,y | x^-2, y^-3, (y^-1*x^-1)^7>",
        "<x,y | x^2, y^3, (x^-1*y)^7>",  # sign-flipped
        "<x,y | x^2, y^3, (x*y^-1)^7>",
        "<x,y | x^2, y^-3, (y^-1*x)^6>",
        "<x,y | (x*y)^7, y^3, x^2>",  # listed in another order
        "<x,y | y^3, (y*x)^7, x^2>",
        "<a,b | b^5, (b*a^-1)^4, a^-3>",
        "<x,y | x^2, y^3, (x*y^2)^7>",  # a power in the root
        "<x,y | x^4, y^3, (x^3*y)^4>",
        "<x,y | x^2, y^3, (y*x*y)^7>",  # rotated mid-run
        "<x,y | x^2, y^-3, (y^-2*x^-1)^-7>",
    ],
)
def test_infinite_triangle_groups_stop_before_any_table(monkeypatch, text):
    tables = _tables_made(monkeypatch)
    with pytest.raises(BudgetExceeded) as exc:
        coset_enumerate(parse_presentation(text))
    assert (exc.value.what, exc.value.budget) == ("coset enumeration", 1_000_000)
    assert tables == []


def test_a_repeated_relator_is_dropped_before_the_triangle_test(monkeypatch):
    # x^2 twice is one relator; the bare HLT loop ran to the default budget
    # on this presentation in 4.7 s
    pres = parse_presentation("<x,y | x^2, y^3, (x*y)^7, x^2>")
    assert len(grouptheory._powers(pres.relators)) == 3
    tables = _tables_made(monkeypatch)
    with pytest.raises(BudgetExceeded):
        coset_enumerate(pres)
    assert tables == []


def test_triangle_groups_skip_the_table_exactly_when_infinite(monkeypatch):
    tables = _tables_made(monkeypatch)
    for periods in TRIANGLE_PERIODS:
        made = len(tables)
        pres = parse_presentation(_triangle(*periods))
        order = _triangle_order(*periods)
        if order is None:
            with pytest.raises(BudgetExceeded):
                coset_enumerate(pres)
            assert len(tables) == made, periods
        else:
            assert coset_enumerate(pres) == order, periods
            assert len(tables) == made + 1, periods


def test_a_unit_power_in_the_root_keeps_the_triangle_group(monkeypatch):
    # x -> x^e, y -> y^f is an automorphism of Z_l * Z_m for units e mod l
    # and f mod m, so (x^e*y^f)^n presents the group (x*y)^n does
    tables = _tables_made(monkeypatch)
    for l, m, n in product(range(2, 6), repeat=3):
        order = _triangle_order(l, m, n)
        for e, f in product(range(1, l), range(1, m)):
            if gcd(e, l) != 1 or gcd(f, m) != 1:
                continue
            made = len(tables)
            pres = parse_presentation(f"<x,y | x^{l}, y^{m}, (x^{e}*y^{f})^{n}>")
            if order is None:
                with pytest.raises(BudgetExceeded):
                    coset_enumerate(pres)
                assert len(tables) == made, (l, m, n, e, f)
            else:
                assert coset_enumerate(pres) == order, (l, m, n, e, f)
                assert len(tables) == made + 1, (l, m, n, e, f)


@pytest.mark.parametrize("periods", INFINITE_TRIANGLES[:: len(INFINITE_TRIANGLES) // 20])
def test_the_bare_loop_also_stops_on_infinite_triangle_groups(periods):
    with pytest.raises(BudgetExceeded):
        _hlt(parse_presentation(_triangle(*periods)), 5000)


@pytest.mark.parametrize(
    "text,order",
    [
        ("<x,y | x^2, y^3, (x*y)^7, [x,y]^4>", 168),  # an extra relator
        ("<x,y | x^-2, y^3, (y*x^-1)^5>", 60),  # spherical
        ("<x,y | x^2, y^3, (x*y^2)^3>", 12),  # spherical, a power in the root
        ("<x,y | x^2, y^3, (y^2*x)^5>", 60),
        ("<x,y | x^2, y^3, (x*y*x*y^2)^7>", None),  # four runs
        ("<x,y | x^4, y^3, (x^2*y)^2>", None),  # gcd(3, 2) = 1: no quotient found
        ("<x,y,z | x^2, y^3, z^5, x*y*z>", 60),  # eliminated, spherical
        ("<x,y,z | x^2, y^3, z^4, x*y*z>", 24),
        ("<x,y,z | x^2, y^3, z^7, x*y*z^2>", None),  # no generator to eliminate
    ],
)
def test_near_miss_triangles_still_build_a_table(monkeypatch, text, order):
    tables = _tables_made(monkeypatch)
    assert _outcome(coset_enumerate, parse_presentation(text), 2000) == (
        order or ("BudgetExceeded", "coset enumeration", 2000)
    )
    assert len(tables) == 1


@pytest.mark.parametrize(
    "text",
    [
        "<x,y | x^4, y^3, (x^2*y)^3>",  # adding x^2 gives Z_2 * Z_3
        "<x,y | x^6, y^4, (x^2*y^2)^5>",  # adding x^2 gives Z_2 * Z_2
        "<x,y,z | x^2, y^3, z^7, x*y*z>",  # z = (x*y)^-1 gives (2,3,7)
    ],
)
def test_infinite_forms_stop_before_the_table(monkeypatch, text):
    tables = _tables_made(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        coset_enumerate(parse_presentation(text))
    assert time.perf_counter() - start < 0.1
    assert (exc.value.what, exc.value.budget) == ("coset enumeration", 1_000_000)
    assert tables == []


def test_free_product_quotients_agree_with_the_table():
    # a group the free-product test calls infinite never gets an order from
    # the bare loop; the loop stops on its budget on each of them
    claimed = 0
    for l, m, n in product(range(2, 7), range(2, 5), range(2, 4)):
        for e, f in product(range(1, l), range(1, m)):
            if gcd(e, l) == gcd(f, m) == 1:
                continue  # the triangle test's
            pres = parse_presentation(f"<x,y | x^{l}, y^{m}, (x^{e}*y^{f})^{n}>")
            powers = grouptheory._powers(pres.relators)
            if grouptheory._infinite_triangle(powers):
                claimed += 1
                with pytest.raises(BudgetExceeded):
                    _hlt(pres, 500)
    assert claimed > 30


def test_eliminating_a_generator_keeps_the_group():
    # z = (x*y)^-1, or z = x*y from x*y*z^-1, turns the three-generator
    # form into a two-generator one with the same order
    pres = parse_presentation("<x,y,z | x^2, y^3, z^7, x*y*z>")
    assert grouptheory._two_generator_form(3, grouptheory._powers(pres.relators)) == [
        ((1,), 2), ((2,), 3), ((-2, -1), 7)]
    pres = parse_presentation("<x,y,z | z^7, x^2, y^3, x*y*z^-1>")
    assert grouptheory._two_generator_form(3, grouptheory._powers(pres.relators)) == [
        ((1, 2), 7), ((1,), 2), ((2,), 3)]
    for l, m, n in product(range(2, 5), repeat=3):
        order = _triangle_order(l, m, n)
        if order is None:
            continue
        for rel in ("x*y*z", "x*y*z^-1", "z*x^-1*y"):
            pres = parse_presentation(f"<x,y,z | x^{l}, y^{m}, z^{n}, {rel}>")
            two = grouptheory._two_generator_form(3, grouptheory._powers(pres.relators))
            assert grouptheory._enumerate_hlt(2, two, 2000) == _hlt(pres, 2000), (l, m, n, rel)
            assert coset_enumerate(pres) == order, (l, m, n, rel)
    # no relator of three distinct generators, or not three generators
    for text in ("<x,y,z | x^2, y^3, z^7, x*y*z^2>", "<x,y,z | x*y*x>", "<x,y | x*y*x^-1>"):
        pres = parse_presentation(text)
        powers = grouptheory._powers(pres.relators)
        assert grouptheory._two_generator_form(pres.generator_count, powers) is None


def _relation_matrix(pres: Presentation) -> list[list[int]]:
    """The relation matrix of pres over the generators its rows touch."""
    rows = grouptheory._exponent_sums(grouptheory._powers(pres.relators))
    return grouptheory._relation_matrix(rows, sorted({j for row in rows for j in row}))


def test_relation_matrix_sums_roots_and_eliminates_to_a_maximal_minor():
    triangle = parse_presentation("<x,y | x^2, y^3, (x*y)^7, [x,y]>")
    rows = _relation_matrix(triangle)
    assert rows == [[2, 0], [0, 3], [7, 7]]  # the zero row of [x,y] is dropped
    assert grouptheory._eliminate(rows) == (2, 6)  # rank 2, from the first two rows
    # a long power is summed from its root
    assert _relation_matrix(parse_presentation("<a,b | (a*b^-1*a)^500000>")) == [
        [1_000_000, -500_000]
    ]
    # the second row depends on the first, whose least entry is the minor
    assert grouptheory._eliminate([[6, 4], [3, 2]]) == (1, 4)
    assert grouptheory._eliminate([[0, 0], [0, 0]]) == (0, 1)
    # rows with a unit entry are taken first, so the squares of the chain
    # give the minor 2, not 2^12
    assert grouptheory._eliminate(_relation_matrix(_square_chain(12))) == (12, 2)


def test_blocks_share_no_generator_and_chain_their_factors():
    pres = parse_presentation("<a,b,c,d | a^4, b^6, c*d^2, d^10, [a,b]>")
    rows = grouptheory._exponent_sums(grouptheory._powers(pres.relators))
    assert [gens for _, gens in grouptheory._blocks(rows)] == [[0], [1], [2, 3]]
    # Z_4 + Z_6 + Z_10 is Z_2 + Z_2 + Z_60
    assert abelianization(parse_presentation("<a,b,c | a^4, b^6, c^10>")) == AbelianInvariants(
        (2, 2, 60), 0)


def test_abelianization_bounds_the_steps_of_each_block(monkeypatch):
    # a^4, b^6 and a*b are one block of 3 rows over 2 generators, 3 * 2 * 2
    # steps; a^4 and b^6 alone are two blocks of one step each
    joined = parse_presentation("<a,b | a^4, b^6, a*b>")
    monkeypatch.setattr(grouptheory, "MAX_ELIMINATION_STEPS", 12)
    assert abelianization(joined) == AbelianInvariants((2,), 0)
    monkeypatch.setattr(grouptheory, "MAX_ELIMINATION_STEPS", 11)
    with pytest.raises(BudgetExceeded, match="abelianization exceeded budget 11"):
        abelianization(joined)
    monkeypatch.setattr(grouptheory, "MAX_ELIMINATION_STEPS", 1)
    assert abelianization(parse_presentation("<a,b | a^4, b^6>")) == AbelianInvariants((2, 12), 0)


def test_a_large_minor_with_a_small_abelianization_still_enumerates(monkeypatch):
    # no row has a unit entry and the first two give the minor 1600, past
    # the budget, but the abelianization is Z_2 x Z_2, and the group, the
    # dihedral group of order 80, is not abelian, so the table decides
    pres = parse_presentation("<x,y | x^40, y^40, (x*y)^2, y^2>")
    assert grouptheory._eliminate(_relation_matrix(pres)) == (2, 1600)
    assert abelianization(pres) == AbelianInvariants((2, 2), 0)
    tables = _tables_made(monkeypatch)
    assert coset_enumerate(pres, max_cosets=1000) == 80
    assert len(tables) == 1


@pytest.mark.parametrize("count,budget,checked", [(12, 1_000_000, True), (30, 1000, False)])
def test_a_check_dearer_than_the_budget_is_left_to_the_table(monkeypatch, count, budget, checked):
    # 2 * count - 1 relators over count generators: the elimination may take
    # (2 * count - 1) * count^2 steps, 3,312 for 12 and 53,100 for 30
    calls = []
    eliminate = grouptheory._eliminate
    monkeypatch.setattr(grouptheory, "_eliminate", lambda rows: calls.append(1) or eliminate(rows))
    tables = _tables_made(monkeypatch)
    assert coset_enumerate(_square_chain(count), max_cosets=budget) == 2
    assert (len(calls), len(tables)) == (int(checked), 1)


def test_the_check_counts_sparse_rows_before_any_dense_row(monkeypatch):
    def no_matrix(*args):
        raise AssertionError("a dense relation matrix was built")

    monkeypatch.setattr(grouptheory, "_relation_matrix", no_matrix)
    # 3,000 single-letter relators over 3,000 generators: 3,000 distinct rows
    # over 3,000 generators cost more than the budget, and the table closes
    # at once
    letters = tuple((i,) for i in range(1, 3001))
    assert coset_enumerate(Presentation(3000, letters), max_cosets=1000) == 1
    # a generator with no nonzero exponent sum leaves the group infinite
    tables = _tables_made(monkeypatch)
    squares = tuple((i, i) for i in range(1, 3000)) + ((3000, -3000),)
    with pytest.raises(BudgetExceeded):
        coset_enumerate(Presentation(3000, squares), max_cosets=1000)
    assert tables == []


@st.composite
def _presentations_and_budgets(draw) -> tuple[Presentation, int]:
    """Up to three generators and four relators, each a short word or a
    power of one, and a budget of up to 300 cosets."""
    count = draw(st.integers(min_value=1, max_value=3), label="generators")
    letters = st.sampled_from([s * x for x in range(1, count + 1) for s in (1, -1)])
    words = st.tuples(
        st.lists(letters, min_size=1, max_size=5), st.integers(min_value=1, max_value=40)
    ).map(lambda pair: tuple(pair[0]) * pair[1])
    relators = draw(st.lists(words, max_size=4), label="relators")
    budget = draw(st.integers(min_value=1, max_value=300), label="budget")
    return Presentation(count, tuple(relators)), budget


def _outcome(enumerate_, pres: Presentation, budget: int):
    try:
        return enumerate_(pres, budget)
    except BudgetExceeded as exc:
        return "BudgetExceeded", exc.what, exc.budget


# the (2,3,7) triangle group, infinite with a trivial abelianization
TRIANGLE_CASE = (parse_presentation("<x,y | x^2, y^-3, (y*x)^7>"), 300)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_presentations_and_budgets())
@example(TRIANGLE_CASE)
def test_abelianization_check_ends_like_the_bare_loop(case):
    # the check before the table only ever stops where HLT would stop too,
    # and every order it gives, from the table or from the abelianization,
    # is the one HLT reaches with room to spare
    pres, budget = case
    outcome = _outcome(coset_enumerate, pres, budget)
    if isinstance(outcome, int):
        assert outcome == _hlt(pres, 1_000_000)
    else:
        assert outcome == _outcome(_hlt, pres, budget)


def _commutator_rotations(i: int, j: int) -> set[tuple[int, ...]]:
    """Every rotation of [x_i, x_j] and of its inverse."""
    words = ((i, j, -i, -j), (j, i, -j, -i))
    return {w[r:] + w[:r] for w in words for r in range(4)}


def _has_every_commutator(pres: Presentation) -> bool:
    """Reference: for every pair of generators, a relator is a rotation of
    their commutator or of its inverse."""
    relators = set(pres.relators)
    g = pres.generator_count
    return all(
        relators & _commutator_rotations(i, j)
        for i in range(1, g + 1)
        for j in range(i + 1, g + 1)
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_presentations_and_budgets())
@example(TRIANGLE_CASE)
def test_the_check_stops_exactly_on_a_large_abelianization(case):
    # wherever the blocks' steps fit the gate, no table is built exactly
    # where the check before it stops, on an infinite abelianization, one
    # above the budget or an infinite triangle group, or where a commutator
    # of every pair of generators makes the group abelian: there the order
    # is the abelianization's
    pres, budget = case
    powers = grouptheory._powers(pres.relators)
    blocks = grouptheory._blocks(grouptheory._exponent_sums(powers))
    steps = sum(grouptheory._elimination_steps(*block) for block in blocks)
    assume(steps <= min(budget, grouptheory.MAX_ELIMINATION_STEPS))
    ab = abelianization(pres)
    too_large = ab.free_rank > 0 or ab.order() > budget
    too_large |= pres.generator_count == 2 and grouptheory._infinite_triangle(powers)
    abelian = _has_every_commutator(pres)
    with pytest.MonkeyPatch.context() as mp:
        tables = _tables_made(mp)
        outcome = _outcome(coset_enumerate, pres, budget)
    assert (tables == []) == (too_large or abelian)
    if too_large:
        assert outcome == ("BudgetExceeded", "coset enumeration", budget)
    elif abelian:
        assert outcome == ab.order()


@st.composite
def _abelian_presentations(draw) -> Presentation:
    """One to three generators, each with a power of it, the commutator of
    every pair in a drawn rotation and sense, and up to two more relators,
    each with a cancelling pair of letters in it, all in a drawn order."""
    count = draw(st.integers(min_value=1, max_value=3), label="generators")
    signs = st.sampled_from((1, -1))
    exponents = st.integers(min_value=1, max_value=12)
    relators = [(draw(signs) * x,) * draw(exponents) for x in range(1, count + 1)]
    for i in range(1, count + 1):
        for j in range(i + 1, count + 1):
            word = (i, j, -i, -j) if draw(st.booleans()) else (j, i, -j, -i)
            r = draw(st.integers(min_value=0, max_value=3))
            relators.append(word[r:] + word[:r])
    letters = st.sampled_from([s * x for x in range(1, count + 1) for s in (1, -1)])
    for _ in range(draw(st.integers(min_value=0, max_value=2), label="extra relators")):
        word = draw(st.lists(letters, max_size=5))
        x = draw(letters)
        at = draw(st.integers(min_value=0, max_value=len(word)))
        relators.append(tuple(word[:at] + [x, -x] + word[at:]))
    return Presentation(count, tuple(draw(st.permutations(relators))))


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(_abelian_presentations())
def test_abelian_presentations_are_answered_without_a_table(pres):
    assert _has_every_commutator(pres)
    with pytest.MonkeyPatch.context() as mp:
        tables = _tables_made(mp)
        order = coset_enumerate(pres)
    assert tables == []
    assert order == _hlt(pres, 1_000_000)


@pytest.mark.parametrize(
    "text,budget,outcome",
    [
        # no relator makes a and c commute: they generate an infinite
        # dihedral group, though the abelianization is Z_2^3
        (
            "<a,b,c | a^2, b^2, c^2, [a,b], [b,c]>",
            2000,
            ("BudgetExceeded", "coset enumeration", 2000),
        ),
        # a commutator-shaped word on one generator, and words of four
        # letters that invert one of a and b but not the other: each
        # presents S_3, whose abelianization is Z_2
        ("<a,b | a^2, b^3, (a*b)^2, a*a*a^-1*a^-1>", 1_000_000, 6),
        ("<a,b | a^2, b^3, a*b*a^-1*b>", 1_000_000, 6),
        ("<a,b | a^3, b^2, a*b*a*b^-1>", 1_000_000, 6),
    ],
    ids=["missing [a,c]", "a*a*a^-1*a^-1", "a*b*a^-1*b", "a*b*a*b^-1"],
)
def test_presentations_short_of_a_commutator_still_build_a_table(
    monkeypatch, text, budget, outcome
):
    tables = _tables_made(monkeypatch)
    assert _outcome(coset_enumerate, parse_presentation(text), budget) == outcome
    assert len(tables) == 1


# no scan here is proven open by a scan before it in the pass, so this case
# skips nothing and checks the table only
_NO_SKIP_EXPECTED = "<a,b | (a*a^-1*a^-1)^4, (b*a*b^-1)^8>"


@pytest.mark.parametrize(
    "text,budgets",
    [
        ("<x,y | x^2, y^3, (x*y)^7, [x,y]^4>", range(150, 351, 3)),
        ("<a,b | b^-6, b^5>", [30]),
        (_NO_SKIP_EXPECTED, [100]),
        ("<a | a^100>", [50]),
    ],
)
def test_lookahead_skips_only_scans_that_change_nothing(monkeypatch, text, budgets):
    # each lookahead pass leaves the table, the merges and the closed marks
    # of a pass that scans every relator not known to close at every coset,
    # with fewer scans
    lookahead, scan = grouptheory._CosetTable.lookahead, grouptheory._CosetTable.scan
    scans, skipped = [0], [0]

    def counted(self, alpha, r, fill):
        scans[0] += 1
        return scan(self, alpha, r, fill)

    def checked(self):
        reference = copy.deepcopy(self)
        start = scans[0]
        for beta in range(1, reference.size):
            for r, bit in enumerate(reference.bits):
                if reference.parent[beta] == beta and not reference.closed[beta] & bit:
                    reference.scan(beta, r, False)
        middle = scans[0]
        lookahead(self)
        skipped[0] += (middle - start) - (scans[0] - middle)
        assert (self.cols, self.parent, self.alive, self.closed) == (
            reference.cols, reference.parent, reference.alive, reference.closed
        )

    monkeypatch.setattr(grouptheory._CosetTable, "scan", counted)
    monkeypatch.setattr(grouptheory._CosetTable, "lookahead", checked)
    pres = parse_presentation(text)
    for budget in budgets:
        # the bare HLT loop: coset_enumerate stops the last three before any
        # table is built, since their abelianizations are infinite or
        # outgrow the budget
        try:
            _hlt(pres, budget)
        except BudgetExceeded:
            pass
    assert skipped[0] > 0 or text == _NO_SKIP_EXPECTED


@st.composite
def _powers_and_budgets(draw) -> tuple[Presentation, int]:
    """Two to four relators root^k over two or three generators, each root of
    at most four letters and each k at most 40, and a budget of 20 to 400."""
    count = draw(st.integers(min_value=2, max_value=3), label="generators")
    letters = st.sampled_from([s * x for x in range(1, count + 1) for s in (1, -1)])
    powers = draw(
        st.lists(
            st.tuples(st.lists(letters, min_size=1, max_size=4), st.integers(1, 40)),
            min_size=2,
            max_size=4,
        ),
        label="powers",
    )
    budget = draw(st.integers(min_value=20, max_value=400), label="budget")
    return Presentation(count, tuple(tuple(root) * k for root, k in powers)), budget


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_powers_and_budgets())
@example((Presentation(2, ((1,) * 4, (1,) * 3)), 20))
def test_lookahead_skips_are_exact_on_random_powers(case):
    # the bare HLT loop ends alike, and defines and merges alike, whether or
    # not its lookahead passes record scans proven open (the example needs a
    # deduction within a pass to void the proofs made before it)
    pres, budget = case
    runs = []
    for prove in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            if not prove:
                mp.setattr(grouptheory._CosetTable, "_prove_open", lambda *args: None)
            tables = _tables_made(mp)
            outcome = _outcome(_hlt, pres, budget)
        (ct,) = tables
        runs.append((outcome, ct.defined, ct.merges))
    assert runs[0] == runs[1]


def test_one_lookahead_pass_reaches_the_f6_order():
    # HLT alone peaks at 40,804 live cosets on F.6 at n = 201; a lookahead
    # pass at the budget collapses the table, and the enumeration ends in it
    report = classify_fermat(201, 3)
    assert report.row == "F.6"
    assert coset_enumerate(report.group.presentation, max_cosets=20_000) == 1206


@pytest.mark.parametrize(
    "budget,outcome", [(176, 168), (170, ("BudgetExceeded", "coset enumeration", 170))]
)
def test_lookahead_passes_reach_psl27_within_a_tight_budget(budget, outcome):
    # at 176 three passes each leave HLT the 5% headroom it needs to go on;
    # at 170 the third leaves less, and the enumeration stops
    pres = parse_presentation("<x,y | x^2, y^3, (x*y)^7, [x,y]^4>")
    assert _outcome(coset_enumerate, pres, budget) == outcome


@pytest.mark.parametrize(
    "text,order",
    [("<u,v | u^2, v^1000, (u*v)^2>", 2000), ("<a,b | a^100, b^100, [a,b]>", 10000)],
    ids=["D1000", "Z100xZ100"],
)
def test_scans_cost_index_times_root(monkeypatch, text, order):
    # each power is scanned from a few cosets of each cycle of its root, not
    # from every coset, and a merged coset keeps what was known of both: a
    # scan, or the walk that marks a closed power, reads at most its
    # relator's letters
    letters = [0]
    scan, mark = grouptheory._CosetTable.scan, grouptheory._CosetTable._mark

    def counted_scan(self, alpha, r, fill):
        letters[0] += len(self.fwd[r])
        return scan(self, alpha, r, fill)

    def counted_mark(self, alpha, r):
        letters[0] += len(self.fwd[r])
        return mark(self, alpha, r)

    monkeypatch.setattr(grouptheory._CosetTable, "scan", counted_scan)
    monkeypatch.setattr(grouptheory._CosetTable, "_mark", counted_mark)
    pres = parse_presentation(text)
    # the bare HLT loop: coset_enumerate makes no table for Z100xZ100,
    # which is abelian
    assert _hlt(pres, 1_000_000) == order
    roots = grouptheory._CosetTable(
        pres.generator_count, grouptheory._powers(pres.relators), 1
    ).roots
    assert letters[0] <= 3 * order * sum(map(len, roots))


def test_table_holds_under_90_bytes_per_coset():
    # <a | a^40000> defines one long chain of cosets up to the budget, and
    # the lookahead pass before the stop proves every one of them open, so
    # the growth of the peak between two budgets is what a coset costs
    # (the bare HLT loop: coset_enumerate stops at once, as Z_40000 outgrows
    # both budgets)
    pres = parse_presentation("<a | a^40000>")
    peaks = []
    for budget in (10_000, 20_000):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                _hlt(pres, budget)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 90 * 10_000


def test_each_relator_is_split_into_its_power_once(monkeypatch):
    # the relation matrix and the coset table read the one split: finding
    # the root of v^2000000 took 85 ms, and was done twice
    words = []
    root_length = grouptheory._root_length

    def counted(word):
        words.append(word)
        return root_length(word)

    monkeypatch.setattr(grouptheory, "_root_length", counted)
    pres = parse_presentation("<u,v | u^2, v^2000, (u*v)^2>")
    assert coset_enumerate(pres) == 4000
    assert words == list(pres.relators)


def _letter_column(x: int) -> int:
    """The column letter x reads: 2(x - 1) for generator x, 2(x - 1) + 1 for its inverse."""
    return 2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1


@st.composite
def _relator_words(draw) -> tuple[int, tuple[int, ...]]:
    """A generator count and a word over it: a root repeated, then perhaps a
    few letters more, so that proper powers and primitive words both occur."""
    count = draw(st.integers(min_value=1, max_value=4), label="generators")
    letters = st.sampled_from([s * x for x in range(1, count + 1) for s in (1, -1)])
    root = draw(st.lists(letters, min_size=1, max_size=6), label="root")
    k = draw(st.integers(min_value=1, max_value=12), label="k")
    tail = draw(st.lists(letters, max_size=2), label="tail")
    return count, tuple(root) * k + tuple(tail)


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(_relator_words())
def test_columns_and_roots_match_their_letter_by_letter_definitions(case):
    count, word = case
    # the root: the shortest prefix that word repeats
    m = next(d for d in range(1, len(word) + 1) if word == word[:d] * (len(word) // d))
    assert grouptheory._root_length(word) == m
    ct = grouptheory._CosetTable(count, grouptheory._powers([word]), 1)

    def read(columns, letters, inverted):
        return len(columns) == len(letters) and all(
            col is ct.cols[_letter_column(x) ^ inverted] for col, x in zip(columns, letters)
        )

    assert read(ct.fwd[0], word, 0) and read(ct.bwd[0], word, 1)
    assert read(ct.roots[0], word[:m], 0)
    assert ct.bits == [1 if m < len(word) else 0]


def _small_presentations(rng: random.Random):
    """Relators of two generators: a power of each, of exponent 2 to 7, and
    a random word of 2 to 8 letters."""
    while True:
        word = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(2, 8)))
        yield (1,) * rng.randint(2, 7), (2,) * rng.randint(2, 7), word


def test_orders_match_sympy_coset_enumeration():
    # seeded presentations of order 4 to 60 here, enumerated again by
    # sympy's HLT; a budget stop on either side gives no verdict
    free_groups = pytest.importorskip("sympy.combinatorics.free_groups")
    from sympy.combinatorics.coset_table import coset_enumeration_r
    from sympy.combinatorics.fp_groups import FpGroup

    free, a, b = free_groups.free_group("a, b")
    element = {1: a, -1: a**-1, 2: b, -2: b**-1}
    compared = 0
    for relators in islice(_small_presentations(random.Random(20261019)), 400):
        try:
            order = coset_enumerate(Presentation(2, relators), max_cosets=2000)
        except BudgetExceeded:
            continue
        if not 4 <= order <= 60:
            continue
        words = [prod((element[x] for x in w), start=free.identity) for w in relators]
        try:
            table = coset_enumeration_r(FpGroup(free, words), [], max_cosets=1000)
        except ValueError:  # sympy's budget stop
            continue
        table.compress()
        assert len(table.table) == order, relators
        compared += 1
        if compared == 30:
            break
    assert compared == 30


def _relators(*words: str) -> str:
    return "<x,y | " + ", ".join(words) + ">"


CLOSED_FORMS = {
    **{f"Z{m}xZ{n}": (f"<a,b | a^{m}, b^{n}, [a,b]>", m * n)
       for m, n in ((1, 1), (2, 3), (4, 6), (7, 7), (12, 5), (30, 30))},
    **{f"D{n}": (f"<u,v | u^2, v^{n}, (u*v)^2>", 2 * n) for n in (1, 2, 3, 8, 97, 360)},
    **{f"(2,2,{m})": (_relators("x^2", "y^2", f"(x*y)^{m}"), 2 * m) for m in (2, 5, 64)},
    "(2,3,3)": (_relators("x^2", "y^3", "(x*y)^3"), 12),
    "(2,3,4)": (_relators("x^2", "y^3", "(x*y)^4"), 24),
    "(2,3,5)": (_relators("x^2", "y^3", "(x*y)^5"), 60),
    # powers of long roots: [x,y] = (x*y)^2 for involutions, and
    # x*y*x*y^-1 = x*y*x*y when y is one
    "[x,y]^k": (_relators("x^2", "y^2", "[x,y]^25"), 100),
    "(x*y*x*y^-1)^k": (_relators("x^2", "y^2", "(x*y*x*y^-1)^9"), 36),
    "(x*y)^k written out": (_relators("x^2", "y^3", "x*y*x*y*x*y*x*y*x*y"), 60),
    "commuting, [x,y]^k": (_relators("x^4", "y^6", "[x,y]^1", "[x,y]^3"), 24),
    # the same relators rotated or inverted
    "D360 rotated": ("<u,v | u^2, v^360, v*u*v*u>", 720),
    "D360 inverted": ("<u,v | u^-2, v^-360, (u*v)^-2>", 720),
    "(2,3,5) rotated": (_relators("x^2", "y^3", "(y*x)^5"), 60),
    "(2,3,5) inverted": (_relators("x^-2", "y^-3", "(y^-1*x^-1)^5"), 60),
    "[x,y]^k rotated": (_relators("x^2", "y^2", "(y*x^-1*y^-1*x)^25"), 100),
    "Z12xZ5 rotated": ("<a,b | a^12, b^5, b*a^-1*b^-1*a>", 60),
}


@pytest.mark.parametrize("text,order", CLOSED_FORMS.values(), ids=CLOSED_FORMS)
def test_coset_enumerate_closed_forms(text, order):
    assert coset_enumerate(parse_presentation(text)) == order


def _closed_table(pres: Presentation) -> "grouptheory._CosetTable":
    """The final coset table of the bare HLT loop on pres (coset_enumerate
    makes none for an abelian presentation)."""
    tables = []
    validate = grouptheory._validate_closed_table

    def keep(ct):
        validate(ct)
        tables.append(ct)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grouptheory, "_validate_closed_table", keep)
        _hlt(pres, 1_000_000)
    return tables[0]


def _with_relators(ct, generator_count: int, relators) -> "grouptheory._CosetTable":
    """The cosets of a closed table, with other relators to be checked against."""
    other = grouptheory._CosetTable(generator_count, grouptheory._powers(relators), 1)
    for mine, theirs in zip(other.cols, ct.cols):
        mine[:] = theirs
    other.parent, other.size = ct.parent, ct.size
    return other


def test_final_check_rejects_a_cycle_not_dividing_the_exponent():
    ct = _closed_table(parse_presentation("<a | a^6>"))
    assert len(ct.live_cosets()) == 6
    # a has one cycle, of length 6
    with pytest.raises(AssertionError, match="relator does not close"):
        grouptheory._validate_closed_table(_with_relators(ct, 1, [(1,) * 4]))
    grouptheory._validate_closed_table(_with_relators(ct, 1, [(1,) * 12, (-1,) * 6]))


def _closes_letter_by_letter(ct) -> bool:
    """Reference: every relator, walked letter by letter from every live coset."""
    for k in ct.live_cosets():
        for word in ct.fwd:
            cur = k
            for col in word:
                cur = col[cur]
            if cur != k:
                return False
    return True


REFERENCE_TABLES = {
    text: _closed_table(parse_presentation(text))
    for text in ("<a,b | a^6, b^4, [a,b]>", "<x,y | x^2, y^3, (x*y)^4>", "<u,v | u^2, v^9, (u*v)^2>")
}


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(REFERENCE_TABLES)),
    st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=12),
)
def test_final_check_matches_letter_by_letter_reference(text, root, k):
    ct = _with_relators(REFERENCE_TABLES[text], 2, [tuple(root) * k])
    try:
        grouptheory._validate_closed_table(ct)
        verdict = True
    except AssertionError:
        verdict = False
    assert verdict == _closes_letter_by_letter(ct)


# ---------------------------------------------------------------------------
# Smith normal form and abelianization


def test_snf_examples():
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[6, 10], [15, 4]]) == [1, 126]
    assert smith_normal_form([[4, 0], [0, 8], [8, 8]]) == [4, 8]


def test_snf_divisibility_chain():
    diag = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    for a, b in zip(diag, diag[1:]):
        if a and b:
            assert b % a == 0


@st.composite
def _snf_matrices(draw) -> tuple[list[list[int]], int]:
    """A matrix of up to 8 x 8 with entries up to 10^6 in size, and a bound
    on its rank: rank-deficient by construction (a product through fewer
    columns) half the time, with some rows and columns zeroed, and often
    scaled so that no entry is a unit modulo a maximal minor."""
    m = draw(st.integers(min_value=1, max_value=8), label="rows")
    n = draw(st.integers(min_value=1, max_value=8), label="columns")
    bound = draw(st.sampled_from([9, 50, 10**6]), label="entry bound")
    entries = st.integers(min_value=-bound, max_value=bound)

    def matrix(rows: int, cols: int) -> list[list[int]]:
        row = st.lists(entries, min_size=cols, max_size=cols)
        return draw(st.lists(row, min_size=rows, max_size=rows))

    rank = min(m, n)
    if draw(st.booleans(), label="rank-deficient"):
        rank = draw(st.integers(min_value=0, max_value=rank - 1), label="inner")
        left, right = matrix(m, rank), matrix(rank, n)
        a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
        a = [row or [0] * n for row in a]
    else:
        a = matrix(m, n)
    factor = draw(st.sampled_from([1, 1, 2, 6, 12]), label="common factor")
    a = [[factor * v for v in row] for row in a]
    for i in draw(st.sets(st.integers(min_value=0, max_value=m - 1), max_size=2), label="zero rows"):
        a[i] = [0] * n
    for j in draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2), label="zero cols"):
        for row in a:
            row[j] = 0
    return a, rank


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_snf_matrices())
def test_snf_matches_reference_implementation(case):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as ref_snf

    rows, rank = case
    got = smith_normal_form(rows)
    ref = ref_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    want = [abs(int(ref[i, i])) for i in range(min(ref.shape))]
    # reference may order zero entries differently; compare multisets and chain
    assert sorted(got) == sorted(want)
    assert len(got) == min(len(rows), len(rows[0]))
    nonzero = [d for d in got if d]
    assert got == nonzero + [0] * (len(got) - len(nonzero))
    assert len(nonzero) <= rank
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def test_abelianization_examples():
    triangle_448 = parse_presentation("<x,y | x^4, y^8, (x*y)^8>")
    triangle_555 = parse_presentation("<x,y | x^5, y^5, (x*y)^5>")
    assert abelianization(triangle_448) == AbelianInvariants((4, 8), 0)
    assert abelianization(triangle_555) == AbelianInvariants((5, 5), 0)
    assert abelianization(parse_presentation("<a,b | [a,b]>")) == AbelianInvariants((), 2)
    assert abelianization(parse_presentation("<a | a^5>")) == AbelianInvariants((5,), 0)


def test_abelianization_no_relators():
    assert abelianization(parse_presentation("<a,b | >")) == AbelianInvariants((), 2)


@st.composite
def _presentations_with_unused_generators(draw) -> Presentation:
    """Up to six generators, some in no relator, and relators that are short
    words, powers of them and commutators, some of them repeated."""
    count = draw(st.integers(min_value=1, max_value=6), label="generators")
    used = draw(st.lists(st.integers(min_value=1, max_value=count), min_size=1, unique=True),
                label="used")
    letters = st.sampled_from([s * x for x in used for s in (1, -1)])
    powers = st.tuples(
        st.lists(letters, min_size=1, max_size=4), st.integers(min_value=1, max_value=12)
    ).map(lambda pair: tuple(pair[0]) * pair[1])
    commutators = st.tuples(letters, letters).map(lambda xy: (xy[0], xy[1], -xy[0], -xy[1]))
    relators = draw(st.lists(st.one_of(powers, commutators), max_size=5), label="relators")
    if relators:
        relators += draw(st.lists(st.sampled_from(relators), max_size=3), label="repeats")
    return Presentation(count, tuple(draw(st.permutations(relators), label="order")))


@st.composite
def _disjoint_blocks(draw) -> Presentation:
    """Two or three presentations of the strategy above on disjoint
    generators, so that their relation matrices are blocks of one."""
    parts = draw(st.lists(_presentations_with_unused_generators(), min_size=2, max_size=3),
                 label="blocks")
    relators: list[tuple[int, ...]] = []
    offset = 0
    for part in parts:
        relators += (tuple(x + offset if x > 0 else x - offset for x in word)
                     for word in part.relators)
        offset += part.generator_count
    return Presentation(offset, tuple(relators))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_presentations_with_unused_generators(), _disjoint_blocks()))
@example(parse_presentation("<a,b | a^4, b^6>"))
@example(parse_presentation("<a,b,c,d | a^4, b^6*c^6, [b,c], d^10>"))
def test_abelianization_reads_the_full_relation_matrix(pres):
    # the relation matrix keeps only distinct nonzero rows over the
    # generators that occur, split into blocks that share no generator; the
    # invariants are those of every row over every generator
    rows = []
    for word in pres.relators:
        row = [0] * pres.generator_count
        for x in word:
            row[abs(x) - 1] += 1 if x > 0 else -1
        rows.append(row)
    nonzero = [d for d in smith_normal_form(rows) if d]
    want = AbelianInvariants(tuple(d for d in nonzero if d > 1), pres.generator_count - len(nonzero))
    assert abelianization(pres) == want


# ---------------------------------------------------------------------------
# permutations


def test_parse_permutations_and_order():
    s4 = parse_permutations("(1,2);(1,2,3,4)")
    assert s4.degree == 4
    assert perm_order(s4) == 24
    z6 = parse_permutations("(1,2,3,4,5,6)")
    assert perm_order(z6) == 6


def test_parse_permutations_explicit_degree_and_identity():
    p = parse_permutations("(); (1,2)", degree=5)
    assert p.degree == 5
    assert p.generators[0] == tuple(range(5))
    assert perm_order(p) == 2


def test_parse_permutations_skips_empty_generators():
    # a generator with no cycle is skipped; () is the identity
    assert parse_permutations("(1,2);;(2,3)").generators == ((1, 0, 2), (0, 2, 1))
    assert parse_permutations(" ; (1,2) ;\t; ").generators == ((1, 0),)
    assert parse_permutations("( );(1,2)").generators == ((0, 1), (1, 0))
    with pytest.raises(DomainError, match="no permutations"):
        parse_permutations(" ; ;")


@pytest.mark.parametrize(
    "text,message",
    [
        ("(1,2_0)", "position 4: expected ')'"),
        ("(+1,2)", "position 1: expected an integer"),
        ("(1,2)x", "position 5: expected ';'"),
        ("(1, 2 3)", "position 6: expected ')'"),
        ("(1,2)(3", "position 7: expected ')'"),
        ("(0,1)", "at least 1"),
        ("(1," + "9" * 5000 + ")", "integer of 5000 digits is too long"),
    ],
    ids=["underscore", "plus", "trailing", "space", "unterminated", "zero", "5000-digits"],
)
def test_parse_permutations_reads_unsigned_integers_only(text, message):
    # int() read "2_0" as 20 and "+1" as 1
    with pytest.raises(DomainError, match="permutation syntax error") as exc:
        parse_permutations(text, degree=5)
    assert message in str(exc.value)


def test_parse_permutations_errors():
    with pytest.raises(DomainError):
        parse_permutations("")
    with pytest.raises(DomainError):
        parse_permutations("(1,1)")
    with pytest.raises(DomainError):
        parse_permutations("(1,2", degree=3)
    with pytest.raises(DomainError):
        parse_permutations("(1,9)", degree=3)
    top = grouptheory.MAX_PERMUTATION_DEGREE
    assert parse_permutations("(1,2)", degree=top).degree == top
    for text, degree in [("(1,2)", top + 1), (f"(1,{top + 1})", None)]:
        with pytest.raises(DomainError, match="degree"):
            parse_permutations(text, degree=degree)
    with pytest.raises(DomainError):
        PermutationSet(top + 1, (tuple(range(top + 1)),))


def test_parse_permutations_drops_repeats_before_building_images():
    # 20,000 copies of one transposition at degree 1000 build one image of
    # 1000 points, not 20 million
    gens = parse_permutations(";".join(["(1,2)"] * 20_000), degree=1000).generators
    assert len(gens) == 1 and gens[0][:3] == (1, 0, 2)
    # rotated cycles, cycles in another order, 1-cycles and a second
    # identity are repeats; the first identity stays, in its place
    text = "(); (1,2)(3,4,5); (4,5,3)(2,1); (1,2)(3,4,5)(6); ()"
    gens = parse_permutations(text, degree=6).generators
    assert gens == (tuple(range(6)), (1, 0, 3, 4, 2, 5))


def test_parse_permutations_bounds_distinct_generators_times_degree(monkeypatch):
    monkeypatch.setattr(grouptheory, "MAX_GENERATOR_POINTS", 12)
    assert len(parse_permutations("(1,2);(2,3);(1,2)", degree=6).generators) == 2

    def no_range(*args):
        raise AssertionError("an image was built")

    monkeypatch.setattr(grouptheory, "range", no_range, raising=False)
    with pytest.raises(DomainError, match="3 distinct generators of degree 6"):
        parse_permutations("(1,2);(2,3);(1,2);(3,4)", degree=6)


def test_perm_order_budget():
    s4 = parse_permutations("(1,2);(1,2,3,4)")
    with pytest.raises(BudgetExceeded):
        perm_order(s4, max_size=10)
    with pytest.raises(DomainError):
        perm_order(s4, max_size=0)


def _symmetric(n: int) -> str:
    """S_n, generated by an n-cycle and a transposition."""
    return "(" + ",".join(str(i) for i in range(1, n + 1)) + ")" + (";(1,2)" if n > 1 else "")


def _dihedral(n: int) -> str:
    """The dihedral group of order 2n, by a rotation and a reflection of an n-gon."""
    reflection = "".join(f"({i},{n + 2 - i})" for i in range(2, n) if i < n + 2 - i)
    return "(" + ",".join(str(i) for i in range(1, n + 1)) + ");" + reflection


G96 = (
    "(1,4)(2,7)(3,10)(5,8)(6,11)(9,12);"
    "(1,10,9,5)(2,4,11,3,7,12,6,8);"
    "(1,2,3)(4,5,6)(7,8,9)(10,11,12)"
)

PINNED_ORDERS = {
    **{f"S{n}": (_symmetric(n), factorial(n)) for n in range(1, 11)},
    "A7": ("(1,2,3,4,5,6,7);(2,3)(5,6)", 2520),
    "PSL(2,7)": ("(1,2,3,4,5,6,7);(2,3)(4,7)", 168),
    "M11": ("(1,2,3,4,5,6,7,8,9,10,11);(3,7,11,8)(4,10,5,6)", 7920),
    # Schreier trees as deep as half the degree
    "D64": (_dihedral(64), 128),
    # a residue opens a level that must be completed before the one above
    "S4 by transpositions": ("(2,4);(1,3);(1,2)", 24),
    # a scan that stops at a residue must resume at the next generator of
    # the same orbit point, not at the next point
    "S5 x C2": ("(1,2);(1,4,2,7,3)(5,6);(3,4)", 240),
}


@pytest.mark.parametrize("text,order", PINNED_ORDERS.values(), ids=PINNED_ORDERS)
def test_perm_order_pinned(text, order):
    g = parse_permutations(text)
    assert perm_order(g, max_size=order) == order
    if order > 1:
        with pytest.raises(BudgetExceeded):
            perm_order(g, max_size=order - 1)


@pytest.mark.parametrize(
    "text,order",
    [("(" + ",".join(str(i) for i in range(1, 1001)) + ")", 1000), (_dihedral(1000), 2000)],
    ids=["C1000", "D1000"],
)
def test_perm_order_deep_trees_cost_a_few_operations_per_point(monkeypatch, text, order):
    # Schreier trees of depth 999 and 500: each transversal element is built
    # once from its parent's, never by a walk back to the base point
    g = parse_permutations(text)
    calls = [0]
    for name in ("_compose", "_inverse"):

        def counted(*args, op=getattr(grouptheory, name)):
            calls[0] += 1
            return op(*args)

        monkeypatch.setattr(grouptheory, name, counted)
    assert perm_order(g) == order
    assert calls[0] <= 8 * g.degree


def test_order96_group_closure():
    g = parse_permutations(G96)
    assert perm_order(g) == perm_order(g, max_size=96) == 96
    with pytest.raises(BudgetExceeded):
        perm_order(g, max_size=95)


def _closure_order(perms: PermutationSet) -> int:
    """Reference order: every element, listed by breadth-first closure."""
    identity = tuple(range(perms.degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        found = []
        for e in frontier:
            for g in perms.generators:
                f = tuple(g[v] for v in e)
                if f not in seen:
                    seen.add(f)
                    found.append(f)
        frontier = found
    return len(seen)


@st.composite
def _generator_sets(draw) -> PermutationSet:
    """1-3 generators of degree at most 7: random permutations, identities and repeats."""
    degree = draw(st.integers(min_value=1, max_value=7), label="degree")
    gens: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(min_value=1, max_value=3), label="count")):
        kinds = ["random", "identity"] + (["repeat"] if gens else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "random":
            gens.append(tuple(draw(st.permutations(range(degree)))))
        elif kind == "identity":
            gens.append(tuple(range(degree)))
        else:
            gens.append(draw(st.sampled_from(gens)))
    return PermutationSet(degree, tuple(gens))


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(_generator_sets())
def test_perm_order_matches_closure(perms):
    order = _closure_order(perms)
    assert perm_order(perms, max_size=order) == order
    if order > 1:
        with pytest.raises(BudgetExceeded):
            perm_order(perms, max_size=order - 1)


def test_parse_permutations_composes_cycles_left_to_right():
    # the leftmost cycle acts first; cycles may share points
    assert parse_permutations("(1,2)(2,3)").generators == ((2, 0, 1),)  # (1,3,2)
    for text in ("(1,2,3)(1,3,2)", "(1,2)(1,2)", "(1,2)(2,3)(2,3)(1,2)"):
        assert perm_order(parse_permutations(text)) == 1, text
    assert perm_order(parse_permutations("(1,2)(2,3)(3,4)")) == 4


@st.composite
def _overlapping_cycle_products(draw) -> tuple[str, int, list[list[list[int]]]]:
    """1-3 generators of degree at most 7, each a product of 1-4 cycles drawn
    independently, so that cycles of one generator share points."""
    degree = draw(st.integers(min_value=1, max_value=7), label="degree")
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3), label="count")):
        cycles = []
        for _ in range(draw(st.integers(min_value=1, max_value=4), label="cycles")):
            points = draw(st.permutations(range(1, degree + 1)))
            cycles.append(points[: draw(st.integers(min_value=1, max_value=degree))])
        gens.append(cycles)
    text = ";".join(
        "".join("(" + ",".join(map(str, cycle)) + ")" for cycle in cycles) for cycles in gens
    )
    return text, degree, gens


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(_overlapping_cycle_products())
def test_perm_order_of_overlapping_cycles_matches_sympy(case):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    text, degree, gens = case
    # sympy multiplies left to right: p * q applies p first
    reference = combinatorics.PermutationGroup([
        prod((combinatorics.Permutation([[v - 1 for v in cycle]], size=degree)
              for cycle in cycles), start=combinatorics.Permutation(degree - 1))
        for cycles in gens
    ])
    assert perm_order(parse_permutations(text, degree)) == reference.order(), text


# ---------------------------------------------------------------------------
# fingerprints


def test_fingerprint_presentation():
    fp = fingerprint(parse_presentation("<u,v | u^4, v^8, (u*v)^2, u^2*v*u^2*v^3>"))
    assert fp == Fingerprint(32, (2, 4), False)
    ab = fingerprint(parse_presentation("<s,t | s^4, t^5, [s,t]>"))
    assert ab == Fingerprint(20, (20,), True)


def test_fingerprint_abelianizes_a_presentation_once(monkeypatch):
    calls, abelianizations = [], []
    snf, abelianize = grouptheory.smith_normal_form, grouptheory.abelianization
    monkeypatch.setattr(grouptheory, "smith_normal_form", lambda m: calls.append(1) or snf(m))
    monkeypatch.setattr(
        grouptheory, "abelianization", lambda pres: abelianizations.append(1) or abelianize(pres)
    )
    # two blocks, a^4 and b^6, each one Smith normal form in the check
    # before the table and one in fingerprint's abelianization
    pres = parse_presentation("<a,b | a^4, b^6, [a,b]>")
    assert fingerprint(pres) == Fingerprint(24, (2, 12), True)
    assert len(calls) == 2 + 2 and len(abelianizations) == 1
    # one block of 3 * 2 * 2 steps, dearer than a budget of 5: the check
    # before the table leaves it, and only fingerprint abelianizes it
    calls.clear()
    assert fingerprint(parse_presentation("<a,b | a^2, b^2, a*b>"), max_cosets=5) == Fingerprint(
        2, (2,), True
    )
    assert len(calls) == 1 and len(abelianizations) == 2


def test_fingerprint_permutations():
    assert fingerprint(parse_permutations(G96)) == Fingerprint(96, (2,), False)


@pytest.mark.parametrize("wrong", [95, 97])
def test_fingerprint_cross_checks_the_order(monkeypatch, wrong):
    # the closure walk counts the order again, apart from the stabilizer chain
    monkeypatch.setattr(grouptheory, "perm_order", lambda perms, max_size: wrong)
    with pytest.raises(AssertionError, match="closure walk visited 96"):
        fingerprint(parse_permutations(G96))


def test_fingerprint_stops_at_the_budget_before_walking(monkeypatch):
    def walk(perms, max_size):
        raise AssertionError("closure walk started")

    monkeypatch.setattr(grouptheory, "_perm_abelian_invariants", walk)
    with pytest.raises(BudgetExceeded):
        fingerprint(parse_permutations(_symmetric(12)), max_size=10**6)


def test_fingerprint_agrees_across_realizations():
    # symmetric group on four points, once presented and once permuted
    by_pres = fingerprint(parse_presentation("<x,y | x^2, y^3, (x*y)^4>"))
    by_perm = fingerprint(parse_permutations("(1,2);(1,2,3,4)"))
    assert by_pres == by_perm == Fingerprint(24, (2,), False)


def test_fingerprint_rejects_other_types():
    with pytest.raises(DomainError):
        fingerprint("not a group")
