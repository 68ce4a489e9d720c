import itertools
from fractions import Fraction
from math import gcd

import pytest

from cyclicaut.curve import CyclicCover, Signature, belyi_cover, parse_curve, signature_of
from cyclicaut.fuchsian import (
    CbMatch,
    cb_extendable,
    chain_steps,
    gs_extensions,
    gs_row,
    gs_table_json,
    harvey_admissible,
)
from cyclicaut.fuchsian import _TABLE, _bind, _parse_pattern
from cyclicaut.numtheory import DomainError, units


def _ext_summary(periods):
    pairs = gs_extensions(Signature(periods))
    return [(row.row_id, outer.periods, row.index) for row, outer in pairs]


# ---------------------------------------------------------------------------
# table queries


def test_gs_extensions_examples():
    assert _ext_summary((5, 10, 10)) == [("3", (2, 10, 10), 2), ("12", (2, 4, 10), 4)]
    assert _ext_summary((7, 7, 7)) == [
        ("1", (3, 3, 7), 3),
        ("2", (2, 3, 14), 6),
        ("3", (2, 7, 14), 2),
        ("4", (2, 3, 7), 24),
    ]
    assert _ext_summary((2, 3, 7)) == []
    # guard boundaries: rows 1 and 2 need t >= 4, row 3 needs t + m >= 7,
    # row 12 needs t >= 3 and row 14 needs t >= 4
    assert _ext_summary((3, 3, 3)) == []
    assert _ext_summary((4, 4, 4)) == [
        ("1", (3, 3, 4), 3),
        ("2", (2, 3, 8), 6),
        ("3", (2, 4, 8), 2),
    ]
    assert _ext_summary((3, 3, 4)) == [("3", (2, 3, 8), 2)]
    assert _ext_summary((2, 4, 4)) == []
    assert _ext_summary((3, 6, 6)) == [("3", (2, 6, 6), 2), ("12", (2, 4, 6), 4)]
    assert _ext_summary((2, 3, 6)) == []
    assert _ext_summary((2, 4, 8)) == [("14", (2, 3, 8), 3)]


def _match_by_every_ordering(row, periods):
    """A row's outer signature, trying every ordering of its inner pattern."""
    terms, guards = _parse_pattern(row.inner)
    outer_terms = _parse_pattern(row.outer)[0]
    if len(terms) != len(periods):
        return None
    for ordering in itertools.permutations(terms):
        env = _bind(ordering, periods)
        if env is not None and all(
            sum(c * env[v] for c, v in lhs) >= bound for lhs, bound in guards
        ):
            return Signature(tuple(c * env[v] for c, v in outer_terms))
    return None


def test_gs_row_match_agrees_with_every_ordering():
    # match tries each distinct ordering of the inner pattern once; dropping
    # the repeats may not change an answer
    tuples = itertools.chain(
        itertools.combinations_with_replacement(range(2, 21), 3),
        itertools.combinations_with_replacement(range(2, 11), 4),
    )
    for periods in tuples:
        for row in _TABLE:
            assert row.match(periods) == _match_by_every_ordering(row, periods), (row.row_id, periods)


def test_gs_extensions_literal_rows():
    assert _ext_summary((2, 7, 7)) == [("3", (2, 4, 7), 2), ("5", (2, 3, 7), 9)]
    assert _ext_summary((3, 3, 7)) == [("3", (2, 3, 14), 2), ("6", (2, 3, 7), 8)]
    assert ("7", (2, 3, 8), 12) in _ext_summary((4, 8, 8))
    assert ("8", (2, 3, 8), 10) in _ext_summary((3, 8, 8))
    assert ("9", (2, 3, 9), 12) in _ext_summary((9, 9, 9))
    assert ("10", (2, 4, 5), 6) in _ext_summary((4, 4, 5))


def test_gs_extensions_quadrilateral_rows():
    assert _ext_summary((3, 3, 3, 3)) == [("A", (2, 2, 2, 3), 4), ("B", (2, 2, 3, 3), 2)]
    assert _ext_summary((3, 3, 5, 5)) == [("B", (2, 2, 3, 5), 2)]
    assert _ext_summary((2, 2, 3, 3)) == [("B", (2, 2, 2, 3), 2)]
    assert _ext_summary((2, 2, 2, 2)) == []  # not hyperbolic, below the t+m bound


def test_is_finitely_maximal_examples():
    # a signature is finitely maximal exactly when no table row extends it
    assert gs_extensions(Signature((2, 3, 12))) == []
    for n in range(5, 20):
        assert gs_extensions(Signature((2, n, n))) != []
    assert gs_extensions(Signature((2, 4, 4))) == []  # vacuous: below row bounds
    for n in range(3, 12):
        expected = n == 4
        assert (gs_extensions(Signature((2, 4, 2 * n))) == []) is not expected


def test_gs_row_lookup():
    assert gs_row("12").index == 4
    assert gs_row("4").index == 24
    assert gs_row("B").normal
    assert not gs_row("14").normal
    with pytest.raises(DomainError):
        gs_row("99")


def test_gs_table_json_shape():
    rows = gs_table_json()
    assert len(rows) == 16
    assert [r["row_id"] for r in rows] == [
        "1", "2", "3", "A", "B", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14",
    ]
    normal_ids = {r["row_id"] for r in rows if r["normal"]}
    assert normal_ids == {"1", "2", "3", "A", "B"}


def test_gs_index_sweep():
    # instantiate parameterized rows across n, m <= 30 and check the published
    # inner/outer/index data stays consistent
    def extensions(*periods):
        pairs = gs_extensions(Signature(periods))
        return {row.row_id: (outer.periods, row.index) for row, outer in pairs}

    for t in range(4, 31):
        exts = extensions(t, t, t)
        assert exts["1"] == ((3, 3, t), 3)
        assert exts["2"] == ((2, 3, 2 * t), 6)
        assert exts["3"] == ((2, t, 2 * t), 2)
    for t in range(3, 31):
        for m in range(2, 31):
            if t == m or t + m < 7:
                continue
            assert extensions(t, t, m)["3"][0] == tuple(sorted((2, t, 2 * m)))
    for t in range(2, 31):
        assert extensions(t, 4 * t, 4 * t)["11"] == ((2, 3, 4 * t), 6)
    for t in range(3, 31):
        assert extensions(t, 2 * t, 2 * t)["12"] == ((2, 4, 2 * t), 4)
        assert extensions(3, t, 3 * t)["13"] == ((2, 3, 3 * t), 4)
    for t in range(4, 31):
        assert extensions(2, t, 2 * t)["14"] == ((2, 3, 2 * t), 3)


def _area(periods):
    """Hyperbolic area of a genus-0 signature over 2 pi: r - 2 - sum 1/p_i."""
    return len(periods) - 2 - sum(Fraction(1, p) for p in periods)


def test_gs_index_is_the_area_ratio():
    # by Riemann-Hurwitz a subgroup of index i has i times the area of the
    # group, so each row's typed index is the ratio of its patterns' areas;
    # this guards the 16 indices and 32 pattern texts against a slip
    triples = set(itertools.combinations_with_replacement(range(2, 31), 3))
    for t in range(2, 31):
        triples |= {(t, 4 * t, 4 * t), (t, 2 * t, 2 * t), (3, t, 3 * t), (2, t, 2 * t)}
    quadruples = itertools.combinations_with_replacement(range(2, 31), 4)
    matched = set()
    for periods in itertools.chain(sorted(triples), quadruples):
        sig = Signature(periods)
        for row, outer in gs_extensions(sig):
            assert row.index == _area(sig.periods) / _area(outer.periods), (row.row_id, periods)
            matched.add(row.row_id)
    assert matched == {row.row_id for row in _TABLE}


# ---------------------------------------------------------------------------
# lcm admissibility


def test_harvey_examples():
    assert harvey_admissible(Signature((7, 7, 7)), 7)
    assert not harvey_admissible(Signature((2, 4, 8)), 8)
    for n in range(3, 20):
        assert harvey_admissible(Signature((n, 2 * n, 2 * n)), 2 * n)


def test_harvey_wrong_target():
    assert not harvey_admissible(Signature((7, 7, 7)), 14)
    assert not harvey_admissible(Signature((3, 4, 12)), 24)
    assert harvey_admissible(Signature((3, 4, 12)), 12)


def test_harvey_holds_for_all_belyi_covers():
    for n in range(2, 31):
        for a in range(1, n):
            for b in range(a, n):
                c = (-a - b) % n
                if c < b or c == 0:
                    continue
                if gcd(n, a, b, c) != 1:
                    continue
                cover = belyi_cover(n, a, b, c)
                if cover.infinity_exponent == 0:
                    assert harvey_admissible(signature_of(cover), n)


# ---------------------------------------------------------------------------
# extension criteria


def test_cb_case3_triangle():
    matches = cb_extendable(belyi_cover(7, 1, 2, 4))
    assert [m.case for m in matches] == [3]
    assert matches[0].outer.periods == (3, 3, 7)
    assert matches[0].multiplier == 3


def test_cb_case5_triangle():
    assert cb_extendable(belyi_cover(12, 1, 3, 8)) == (CbMatch(5, Signature((2, 3, 12)), 4),)
    # the action rescaled by the unit 5: images (40, 15, 5) mod 12 by period
    assert [m.case for m in cb_extendable(belyi_cover(12, 4, 3, 5))] == [5]


def test_cb_case4_triangle():
    matches = cb_extendable(belyi_cover(5, 1, 1, 3))
    assert [m.case for m in matches] == [4]
    assert matches[0].outer.periods == (2, 5, 10)
    assert [m.case for m in cb_extendable(belyi_cover(15, 1, 4, 10))] == [4]


def test_cb_not_extendable():
    assert cb_extendable(belyi_cover(11, 2, 3, 6)) == ()


def test_cb_permutation_invariance():
    # the criteria read the action, not the order the branch points are listed in
    for triple in ((5, 1, 1, 3), (7, 1, 2, 4), (12, 1, 3, 8), (15, 1, 4, 10), (11, 2, 3, 6)):
        cover = belyi_cover(*triple)
        answers = {
            cb_extendable(CyclicCover(cover.n, tuple(cover.branches[i] for i in perm)))
            for perm in itertools.permutations(range(3))
        }
        assert answers == {cb_extendable(cover)}, triple


def test_cb_case3_reads_one_candidate_unit():
    # case 3 tests only the quotient images[1] / images[0] of the sorted
    # images; the scan over every unit of n is the reference
    for n in range(4, 61):
        order_three = [j for j in units(n) if j != 1 and j * j * j % n == 1]
        for a in range(1, n):
            for b in range(1, n):
                c = (-a - b) % n
                if c == 0 or gcd(n, a, b, c) != 1:
                    continue
                images = sorted((a, b, c))
                expected = all(gcd(n, k) == 1 for k in images) and any(
                    sorted(z * j % n for z in images) == images for j in order_three)
                cases = [m.case for m in cb_extendable(belyi_cover(n, a, b, c))]
                assert (3 in cases) == expected, (n, a, b, c)


def test_cb_period_count_validation():
    # four branch points, and two
    for text in ("y^5 = x(x-1)(x+1)(x-2)^2", "y^5 = x(x-1)^4"):
        with pytest.raises(DomainError, match="three-point cover"):
            cb_extendable(parse_curve(text))


# ---------------------------------------------------------------------------
# chains


# The two-step chains of Conder-Bujalance: (item, row ids, equivalent row).
# A chain applies where its equivalent row matches, and walks to that row's
# outer signature with the product of its steps' indices as that row's index.
CHAINS = (
    (1, ("1", "3"), "2"),
    (2, ("1", "6"), "4"),
    (3, ("1", "13"), "9"),
    (4, ("3", "3"), "12"),
    (5, ("3", "11"), "7"),
    (6, ("3", "14"), "2"),
    (7, ("3", "14"), "11"),
    (8, ("12", "14"), "7"),
)


def _chains(periods):
    """item -> steps of every chain whose equivalent row matches periods."""
    sig = Signature(periods)
    return {
        item: chain_steps(sig, rows)
        for item, rows, equivalent in CHAINS
        if gs_row(equivalent).match(periods) is not None
    }


def test_chains_all_equal_triple():
    chains = _chains((7, 7, 7))
    assert set(chains) == {1, 2, 6}
    assert [s.signature.periods for s in chains[2]] == [(3, 3, 7), (2, 3, 7)]
    assert chains[1][-1].signature == chains[6][-1].signature == Signature((2, 3, 14))


def test_chains_nine():
    chains = _chains((9, 9, 9))
    assert set(chains) == {1, 3, 6}
    assert chains[3][-1].signature == gs_row("9").match((9, 9, 9))


def test_chains_488():
    chains = _chains((4, 8, 8))
    assert set(chains) == {4, 5, 8}
    assert chains[5][-1].signature == chains[8][-1].signature == gs_row("7").match((4, 8, 8))
    assert [s.row_id for s in chains[8]] == ["12", "14"]


def test_chains_t_2t_2t():
    for t in (3, 5, 6):
        chains = _chains((t, 2 * t, 2 * t))
        assert 4 in chains
        assert chains[4][-1].signature.periods == (2, 4, 2 * t)


# One start signature per catalogue item, with its steps as (row, outer, index).
CHAIN_STEPS = {
    1: ((7, 7, 7), [("1", (3, 3, 7), 3), ("3", (2, 3, 14), 2)]),
    2: ((7, 7, 7), [("1", (3, 3, 7), 3), ("6", (2, 3, 7), 8)]),
    3: ((9, 9, 9), [("1", (3, 3, 9), 3), ("13", (2, 3, 9), 4)]),
    4: ((5, 10, 10), [("3", (2, 10, 10), 2), ("3", (2, 4, 10), 2)]),
    5: ((4, 8, 8), [("3", (2, 8, 8), 2), ("11", (2, 3, 8), 6)]),
    6: ((5, 5, 5), [("3", (2, 5, 10), 2), ("14", (2, 3, 10), 3)]),
    7: ((3, 12, 12), [("3", (2, 6, 12), 2), ("14", (2, 3, 12), 3)]),
    8: ((4, 8, 8), [("12", (2, 4, 8), 4), ("14", (2, 3, 8), 3)]),
}


@pytest.mark.parametrize("item", sorted(CHAIN_STEPS))
def test_chain_steps_pinned(item):
    periods, expected = CHAIN_STEPS[item]
    steps = _chains(periods)[item]
    assert [(s.row_id, s.signature.periods, s.index) for s in steps] == expected
    assert chain_steps(Signature(periods), [row for row, _, _ in expected]) == steps


def test_chains_indices_compose():
    # each chain ends where its equivalent row ends, at that row's index
    equivalents = {item: gs_row(row) for item, _, row in CHAINS}
    starts = [periods for periods, _ in CHAIN_STEPS.values()]
    for periods in starts + [(2, 8, 8), (6, 6, 6)]:
        for item, steps in _chains(periods).items():
            equivalent = equivalents[item]
            assert steps[-1].signature == equivalent.match(periods)
            prod = 1
            for step in steps:
                prod *= step.index
            assert prod == equivalent.index


def test_chains_triangle_only():
    # every chain's equivalent row is a triangle row, so none applies to a
    # quadrilateral signature
    assert _chains((2, 2, 3, 3)) == {}
    assert all(gs_row(equivalent).outer.count(",") == 2 for _, _, equivalent in CHAINS)
