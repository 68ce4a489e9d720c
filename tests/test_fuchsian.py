import itertools
from math import gcd

import pytest

from cyclicaut.curve import Signature, belyi_cover, canonical_triple, signature_of
from cyclicaut.fuchsian import (
    CbMatch,
    CbVerdict,
    ChainStep,
    ExtensionChain,
    GsExtension,
    SkepSpec,
    cb_extendable,
    chain_steps,
    extension_chains,
    gs_extensions,
    gs_row,
    gs_table_json,
    harvey_admissible,
    skep_of_cover,
)
from cyclicaut.numtheory import DomainError, gcd_many, lcm_many


def _ext_summary(periods):
    return [(e.row.row_id, e.outer.periods, e.index) for e in gs_extensions(Signature(0, periods))]


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
    assert gs_extensions(Signature(0, (2, 3, 12))) == []
    for n in range(5, 20):
        assert gs_extensions(Signature(0, (2, n, n))) != []
    assert gs_extensions(Signature(0, (2, 4, 4))) == []  # vacuous: below row bounds
    for n in range(3, 12):
        expected = n == 4
        assert (gs_extensions(Signature(0, (2, 4, 2 * n))) == []) is not expected


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
    for t in range(4, 31):
        exts = {e.row.row_id: e for e in gs_extensions(Signature(0, (t, t, t)))}
        assert exts["1"].outer.periods == (3, 3, t) and exts["1"].index == 3
        assert exts["2"].outer.periods == (2, 3, 2 * t) and exts["2"].index == 6
        assert exts["3"].outer.periods == (2, t, 2 * t) and exts["3"].index == 2
    for t in range(3, 31):
        for m in range(2, 31):
            if t == m or t + m < 7:
                continue
            exts = {e.row.row_id: e for e in gs_extensions(Signature(0, tuple(sorted((t, t, m)))))}
            assert exts["3"].outer.periods == tuple(sorted((2, t, 2 * m)))
    for t in range(2, 31):
        exts = {e.row.row_id: e for e in gs_extensions(Signature(0, (t, 4 * t, 4 * t)))}
        assert exts["11"].outer.periods == (2, 3, 4 * t) and exts["11"].index == 6
    for t in range(3, 31):
        exts = {e.row.row_id: e for e in gs_extensions(Signature(0, (t, 2 * t, 2 * t)))}
        assert exts["12"].outer.periods == (2, 4, 2 * t) and exts["12"].index == 4
        exts = {e.row.row_id: e for e in gs_extensions(Signature(0, (3, t, 3 * t)))}
        assert exts["13"].outer.periods == (2, 3, 3 * t) and exts["13"].index == 4
    for t in range(4, 31):
        exts = {e.row.row_id: e for e in gs_extensions(Signature(0, (2, t, 2 * t)))}
        assert exts["14"].outer.periods == (2, 3, 2 * t) and exts["14"].index == 3


# ---------------------------------------------------------------------------
# lcm admissibility


def test_harvey_examples():
    assert harvey_admissible(Signature(0, (7, 7, 7)), 7)
    assert not harvey_admissible(Signature(0, (2, 4, 8)), 8)
    for n in range(3, 20):
        assert harvey_admissible(Signature(0, (n, 2 * n, 2 * n)), 2 * n)


def test_harvey_wrong_target():
    assert not harvey_admissible(Signature(0, (7, 7, 7)), 14)
    assert not harvey_admissible(Signature(0, (3, 4, 12)), 24)
    assert harvey_admissible(Signature(0, (3, 4, 12)), 12)


def test_harvey_holds_for_all_belyi_covers():
    for n in range(2, 31):
        for a in range(1, n):
            for b in range(a, n):
                c = (-a - b) % n
                if c < b or c == 0:
                    continue
                if gcd_many([n, a, b, c]) != 1:
                    continue
                cover = belyi_cover(n, a, b, c)
                if cover.infinity_exponent == 0:
                    assert harvey_admissible(signature_of(cover), n)


# ---------------------------------------------------------------------------
# skeps


def test_skep_of_cover_orders_pairs():
    s = skep_of_cover(belyi_cover(12, 1, 3, 8))
    assert s.signature.periods == (3, 4, 12)
    assert s.images == (8, 3, 1)
    assert s.n == 12


def test_skep_validation():
    with pytest.raises(DomainError, match="period"):
        SkepSpec(Signature(0, (5, 5, 5)), 5, (1, 1, 2, 1))
    with pytest.raises(DomainError, match="order"):
        SkepSpec(Signature(0, (5, 5, 10)), 10, (2, 2, 6))
    with pytest.raises(DomainError, match="identity"):
        SkepSpec(Signature(0, (5, 5, 5)), 5, (1, 1, 1))


# ---------------------------------------------------------------------------
# extension criteria


def test_cb_case3_triangle():
    v = cb_extendable(skep_of_cover(belyi_cover(7, 1, 2, 4)))
    assert v.extendable and v.case == 3
    assert v.matches[0].outer.periods == (3, 3, 7)
    assert v.matches[0].multiplier == 3


def test_cb_case5_triangle():
    v = cb_extendable(skep_of_cover(belyi_cover(12, 1, 3, 8)))
    assert v.case == 5
    assert v.matches == (CbMatch(5, Signature(0, (2, 3, 12)), 4),)
    # a unit rescaling of the same action still matches
    v2 = cb_extendable(SkepSpec(Signature(0, (3, 4, 12)), 12, (40 % 12, 15 % 12, 5)))
    assert v2.case == 5


def test_cb_case4_triangle():
    v = cb_extendable(SkepSpec(Signature(0, (5, 5, 5)), 5, (1, 1, 3)))
    assert v.case == 4
    assert v.matches[0].outer.periods == (2, 5, 10)
    v2 = cb_extendable(skep_of_cover(belyi_cover(15, 1, 4, 10)))
    assert v2.case == 4


def test_cb_not_extendable():
    v = cb_extendable(skep_of_cover(belyi_cover(11, 2, 3, 6)))
    assert not v.extendable
    assert v.case is None
    assert v.matches == ()


def test_cb_quadrilateral_cases():
    v = cb_extendable(SkepSpec(Signature(0, (5, 5, 5, 5)), 5, (1, 4, 4, 1)))
    assert [m.case for m in v.matches] == [1, 2]
    assert v.matches[0].outer.periods == (2, 2, 2, 5)
    assert v.matches[0].multiplier == 4
    w = cb_extendable(SkepSpec(Signature(0, (3, 3, 6, 6)), 6, (2, 4, 1, 5)))
    assert [m.case for m in w.matches] == [2]
    assert w.matches[0].outer.periods == (2, 2, 3, 6)


def test_cb_permutation_invariance():
    base = SkepSpec(Signature(0, (5, 5, 5)), 5, (1, 1, 3))
    verdicts = set()
    for perm in itertools.permutations(range(3)):
        periods = tuple(base.signature.periods[i] for i in perm)
        images = tuple(base.images[i] for i in perm)
        verdicts.add(cb_extendable(SkepSpec(Signature(0, periods), 5, images)))
    assert len(verdicts) == 1


def test_cb_period_count_validation():
    with pytest.raises(DomainError):
        cb_extendable(SkepSpec(Signature(0, (5, 5, 5, 5, 5)), 5, (1, 1, 1, 1, 1)))


# ---------------------------------------------------------------------------
# chains


def test_chains_all_equal_triple():
    chains = {c.item: c for c in extension_chains(Signature(0, (7, 7, 7)))}
    assert set(chains) == {1, 2, 6}
    assert chains[2].live
    assert chains[2].equivalent_row_id == "4"
    assert [s.signature.periods for s in chains[2].steps] == [(3, 3, 7), (2, 3, 7)]
    assert not chains[1].live and chains[1].equivalent_row_id == "2"
    assert not chains[6].live and chains[6].equivalent_row_id == "2"


def test_chains_nine():
    chains = {c.item: c for c in extension_chains(Signature(0, (9, 9, 9)))}
    assert set(chains) == {1, 3, 6}
    assert not chains[3].live
    assert chains[3].equivalent_row_id == "9"


def test_chains_488():
    chains = {c.item: c for c in extension_chains(Signature(0, (4, 8, 8)))}
    assert set(chains) == {4, 5, 8}
    assert all(chains[i].live for i in (4, 5, 8))
    assert chains[5].equivalent_row_id == "7"
    assert chains[8].equivalent_row_id == "7"
    assert [s.row_id for s in chains[8].steps] == ["12", "14"]


def test_chains_t_2t_2t():
    for t in (3, 5, 6):
        chains = extension_chains(Signature(0, (t, 2 * t, 2 * t)))
        items = {c.item for c in chains}
        assert 4 in items
        ch = next(c for c in chains if c.item == 4)
        assert ch.live and ch.equivalent_row_id == "12"
        assert ch.steps[-1].signature.periods == (2, 4, 2 * t)


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
    chain = next(c for c in extension_chains(Signature(0, periods)) if c.item == item)
    assert [(s.row_id, s.signature.periods, s.index) for s in chain.steps] == expected
    assert chain_steps(Signature(0, periods), [row for row, _, _ in expected]) == chain.steps


def test_chains_indices_compose():
    for periods in ((7, 7, 7), (9, 9, 9), (4, 8, 8), (5, 10, 10), (2, 8, 8), (6, 6, 6)):
        for ch in extension_chains(Signature(0, periods)):
            prod = 1
            for step in ch.steps:
                prod *= step.index
            assert prod == gs_row(ch.equivalent_row_id).index


def test_chains_triangle_only():
    with pytest.raises(DomainError):
        extension_chains(Signature(0, (2, 2, 3, 3)))
