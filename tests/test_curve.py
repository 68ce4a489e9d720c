from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclicaut import curve
from cyclicaut.curve import (
    BranchPoint,
    CyclicCover,
    Signature,
    _build_cover,
    belyi_cover,
    canonical_triple,
    cover_to_json_dict,
    cycle_counts,
    fermat_cover,
    genus,
    is_irreducible,
    lefschetz_cover,
    monodromy_genus,
    parse_curve,
    signature_of,
    translation_cycles,
)
from cyclicaut.classifier import belyi_verdict, classify_cover
from cyclicaut.numtheory import DomainError, units
from test_classifier import triple_orbit


# ---------------------------------------------------------------------------
# branch points


def test_branch_point_normalization():
    assert BranchPoint.root_of_unity(0, 4) == BranchPoint.at(1)
    assert BranchPoint.root_of_unity(2, 4) == BranchPoint.at(-1)
    assert BranchPoint.root_of_unity(2, 8) == BranchPoint.root_of_unity(1, 4)
    assert BranchPoint.root_of_unity(4, 3) == BranchPoint.root_of_unity(1, 3)


def _from_label(text):
    """The point a label names: ``zeta_d^j`` or a rational."""
    if text.startswith("zeta_"):
        order, index = text[5:].split("^")
        return BranchPoint.root_of_unity(int(index), int(order))
    return BranchPoint.at(Fraction(text))


def test_branch_point_labels_round_trip():
    for pt in (
        BranchPoint.at(0),
        BranchPoint.at(-1),
        BranchPoint.at(Fraction(3, 2)),
        BranchPoint.root_of_unity(1, 5),
        BranchPoint.root_of_unity(3, 7),
    ):
        assert _from_label(pt.label()) == pt


def _equal_spellings(data, kind):
    """A branch point and other spellings of the same point."""
    k = data.draw(st.integers(min_value=1, max_value=12), label="scale")
    if kind == "rational":
        q = data.draw(st.fractions(min_value=-20, max_value=20, max_denominator=30), label="q")
        other = Fraction(q.numerator * k, q.denominator * k)
        pt = BranchPoint.at(q)
        return pt, [BranchPoint.at(other), _from_label(pt.label())]
    index = data.draw(st.integers(min_value=-60, max_value=60), label="index")
    order = data.draw(st.integers(min_value=1, max_value=24), label="order")
    pt = BranchPoint.root_of_unity(index, order)
    return pt, [
        BranchPoint.root_of_unity(index * k, order * k),
        BranchPoint.root_of_unity(index + k * order, order),
        _from_label(pt.label()),
    ]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_branch_point_hash_agrees_with_equality(data):
    kinds = st.sampled_from(["rational", "root"])
    pt, spellings = _equal_spellings(data, data.draw(kinds, label="kind"))
    for same in spellings:
        assert same == pt and hash(same) == hash(pt)
        assert len({pt, same}) == 1
    other, _ = _equal_spellings(data, data.draw(kinds, label="other kind"))
    assert len({pt, other}) == (1 if other == pt else 2)
    if other == pt:
        assert hash(other) == hash(pt)
    # a repeated point is refused, even where its exponent reduces to 0 mod n
    n = data.draw(st.integers(min_value=2, max_value=12), label="n")
    k = data.draw(st.integers(min_value=0, max_value=24), label="k")
    with pytest.raises(DomainError, match="non-distinct roots"):
        _build_cover(n, [(pt, k), (spellings[0], 1)])
    # the roots of unity of order 1 and 2 are the rationals 1 and -1
    assert BranchPoint.root_of_unity(0, 1) == BranchPoint.at(1)
    assert hash(BranchPoint.root_of_unity(0, 1)) == hash(BranchPoint.at(1))
    assert BranchPoint.root_of_unity(1, 2) == BranchPoint.at(-1)
    assert hash(BranchPoint.root_of_unity(1, 2)) == hash(BranchPoint.at(-1))
    with pytest.raises(DomainError, match="non-distinct roots"):
        parse_curve("y^3 = x^3 x(x-1)")  # x^3 is a cube, dropped, but x repeats it
    with pytest.raises(DomainError, match="non-distinct roots"):
        _build_cover(4, [(BranchPoint.root_of_unity(2, 4), 2), (BranchPoint.at(-1), 1)])


# ---------------------------------------------------------------------------
# parsing


def test_parse_belyi_form():
    c = parse_curve("y^7 = x(x-1)^2(x+1)^4")
    assert c.n == 7
    assert c.exponents() == (1, 2, 4)
    assert c.infinity_exponent == 0
    assert [pt.label() for pt, _ in c.branches] == ["0", "1", "-1"]


def test_parse_reduces_exponents_and_adds_infinity():
    c = parse_curve("y^5 = x^6(x-1)")
    assert c.n == 5
    assert c.exponents() == (1, 1)
    assert c.infinity_exponent == 3


def test_parse_fermat_form():
    c = parse_curve("y^4 + x^4 = 1")
    assert c.n == 4
    assert len(c.branches) == 4
    assert all(k == 1 for _, k in c.branches)
    assert c.infinity_exponent == 0
    assert c.constant == Fraction(-1)


def test_parse_constant_and_rational_roots():
    c = parse_curve("y^3 = -2 x (x-1/2)^2")
    assert c.constant == Fraction(-2)
    assert c.branches[1][0] == BranchPoint.at(Fraction(1, 2))
    assert c.exponents() == (1, 2)


def test_parse_nth_power_factor_drops():
    c = parse_curve("y^4 = x^4 (x-1)")
    assert c.exponents() == (1,)
    assert c.infinity_exponent == 3


def test_parse_errors():
    with pytest.raises(DomainError, match="position"):
        parse_curve("y^7 = x(x-1)^2 + 3")
    with pytest.raises(DomainError, match="non-distinct roots"):
        parse_curve("y^5 = x(x-1)(x-1)^2")
    with pytest.raises(DomainError, match="degree must be >= 2"):
        parse_curve("y^1 = x(x-1)")
    with pytest.raises(DomainError):
        parse_curve("z^5 = x")
    with pytest.raises(DomainError, match="position"):
        parse_curve("y^5 = x trailing$")
    # more digits than int() converts from text
    with pytest.raises(DomainError, match="integer of 5000 digits is too long"):
        parse_curve("y^7 = x^" + "9" * 5000 + "(x-1)")
    with pytest.raises(DomainError, match="integer of 5000 digits is too long"):
        parse_curve("y^7 = " + "9" * 5000 + "x(x-1)")
    with pytest.raises(DomainError, match="position 8: expected an integer"):
        parse_curve("y^7 = x^\u00b2(x-1)")  # a digit, but not a decimal one


def test_cover_validation():
    with pytest.raises(DomainError):
        CyclicCover(5, ())
    with pytest.raises(DomainError):
        CyclicCover(5, ((BranchPoint.at(0), 5),))
    with pytest.raises(DomainError, match="sum to 0"):
        CyclicCover(5, ((BranchPoint.at(0), 1),), 0)
    with pytest.raises(DomainError, match="non-distinct"):
        CyclicCover(5, ((BranchPoint.at(0), 2), (BranchPoint.at(0), 3)))


# ---------------------------------------------------------------------------
# irreducibility and genus


def test_is_irreducible():
    assert is_irreducible(belyi_cover(8, 1, 3, 4))
    assert not is_irreducible(CyclicCover(6, ((BranchPoint.at(0), 2), (BranchPoint.at(1), 2), (BranchPoint.at(-1), 2))))
    assert is_irreducible(belyi_cover(12, 3, 4, 5))


def test_cover_builders_reject_degrees_below_two():
    # a degree of 0 reduced the exponents mod 0: a ZeroDivisionError
    for build in (
        lambda n: belyi_cover(n, 1, 1, 1),
        lambda n: lefschetz_cover(n, 1),
        lambda n: fermat_cover(n, 1),
    ):
        for n in (-3, 0, 1):
            with pytest.raises(DomainError, match=f"cover degree must be >= 2, got {n}"):
                build(n)


def test_genus_examples():
    assert genus(belyi_cover(7, 1, 2, 4)) == 3
    assert genus(belyi_cover(24, 1, 4, 19)) == 10
    assert genus(parse_curve("y^6 = (x-1)(x+1)")) == 2


def test_genus_requires_irreducible():
    bad = CyclicCover(6, ((BranchPoint.at(0), 2), (BranchPoint.at(1), 2), (BranchPoint.at(-1), 2)))
    with pytest.raises(DomainError, match="reducible"):
        genus(bad)
    with pytest.raises(DomainError, match="reducible"):
        signature_of(bad)
    with pytest.raises(DomainError, match="reducible"):
        monodromy_genus(bad)


def test_signature_examples():
    assert signature_of(belyi_cover(12, 1, 3, 8)).periods == (3, 4, 12)
    assert signature_of(belyi_cover(8, 1, 2, 5)).periods == (4, 8, 8)
    assert signature_of(belyi_cover(8, 1, 3, 4)).periods == (2, 8, 8)
    assert signature_of(belyi_cover(7, 1, 2, 4)) == Signature((7, 7, 7))


def test_signature_includes_infinity_branch():
    c = lefschetz_cover(5, 1)  # infinity exponent 3
    assert signature_of(c).periods == (5, 5, 5)


def test_signature_validation():
    assert Signature((7, 2, 3)).periods == (2, 3, 7)
    with pytest.raises(DomainError):
        Signature((1, 4))


# ---------------------------------------------------------------------------
# scaling and triples


def _unit_multiple_curve(n, triple, l):
    """The curve y^n = x^(l a) (x-1)^(l b) (x+1)^(l c), exponents reduced mod n."""
    a, b, c = (l * k % n for k in triple)
    return parse_curve(f"y^{n} = x^{a}(x-1)^{b}(x+1)^{c}")


def _answer(report):
    return (report.row, report.group, report.chain, report.genus, report.signature,
            report.canonical)


def test_scale_exponents_examples():
    # a unit multiple of a triple is an equivalent model of the same cover
    assert _unit_multiple_curve(7, (1, 2, 4), 2).exponents() == (2, 4, 1)
    assert _unit_multiple_curve(15, (1, 4, 10), 4).exponents() == (4, 1, 10)
    assert belyi_verdict(7, 2, 4, 1) == belyi_verdict(7, 1, 2, 4)
    assert belyi_verdict(15, 4, 1, 10) == belyi_verdict(15, 1, 4, 10)
    c = belyi_cover(9, 2, 2, 5)
    assert _unit_multiple_curve(9, (2, 2, 5), 1) == c


def test_scale_preserves_invariants():
    # every unit multiple of a triple gets the same verdict, and its curve the
    # same classification
    for n, a, b, c in ((7, 1, 2, 4), (9, 2, 2, 5), (15, 1, 4, 10), (16, 1, 6, 9)):
        verdict = belyi_verdict(n, a, b, c)
        report = classify_cover(belyi_cover(n, a, b, c))
        for l in units(n):
            scaled = _unit_multiple_curve(n, (a, b, c), l)
            assert belyi_verdict(n, *scaled.exponents()) == verdict
            assert _answer(classify_cover(scaled)) == _answer(report)
            assert genus(scaled) == genus(report.cover)
            assert signature_of(scaled) == report.signature
            assert is_irreducible(scaled)


def test_canonical_triple_examples():
    assert canonical_triple(7, 2, 4, 1) == (1, 2, 4)
    assert canonical_triple(9, 2, 2, 5) == (1, 1, 7)
    assert canonical_triple(7, 1, 2, 4) == canonical_triple(7, 1, 4, 2)
    assert canonical_triple(1000003, 1, 2, 1000000) == (1, 2, 1000000)


def test_canonical_triple_validation():
    with pytest.raises(DomainError):
        canonical_triple(7, 1, 2, 3)  # sum not 0 mod 7
    with pytest.raises(DomainError):
        canonical_triple(6, 2, 2, 2)  # common factor
    with pytest.raises(DomainError):
        canonical_triple(7, 0, 3, 4)  # entry out of range


def test_canonical_triple_idempotent_and_orbit_constant():
    # the closed form against the orbit scanned in full; a class whose least
    # entry g = min gcd(n, k) exceeds 1 first occurs at n = 30, since three
    # pairwise coprime gcds >= 2 must divide n
    for n in [*range(4, 21), 30, 42, 60]:
        for a in range(1, n):
            for b in range(a, n):
                c = (-a - b) % n
                if c < b or c == 0 or gcd(n, a, b, c) != 1:
                    continue
                orbit = triple_orbit(n, a, b, c)
                canon = canonical_triple(n, a, b, c)
                assert canon == min(tuple(sorted(t)) for t in orbit)
                assert canonical_triple(n, *canon) == canon
                for t in orbit:
                    assert canonical_triple(n, *t) == canon


def test_triple_orbit_sizes_n7():
    assert len(triple_orbit(7, 1, 1, 5)) == 18
    assert len(triple_orbit(7, 1, 2, 4)) == 12


# ---------------------------------------------------------------------------
# monodromy oracle


def test_monodromy_examples():
    assert monodromy_genus(belyi_cover(7, 1, 2, 4)) == 3
    assert monodromy_genus(belyi_cover(8, 1, 3, 4)) == 2
    two = CyclicCover(2, ((BranchPoint.at(0), 1), (BranchPoint.at(1), 1)))
    assert monodromy_genus(two) == 0


def test_monodromy_genus_bounds_its_sheet_steps(monkeypatch):
    # y^12 = x (x-1)^2 (x+1)^3 with 6 over infinity: 4 distinct translations
    # of 12 sheets, 48 steps
    cover = parse_curve("y^12 = x (x-1)^2 (x+1)^3")
    monkeypatch.setattr(curve, "MAX_MONODROMY_STEPS", 48)
    assert monodromy_genus(cover) == genus(cover)
    monkeypatch.setattr(curve, "MAX_MONODROMY_STEPS", 47)
    with pytest.raises(DomainError, match="passes 47 sheet steps"):
        monodromy_genus(cover)
    # a repeated exponent is traversed once: 2 distinct translations of 3
    repeated = parse_curve("y^12 = x (x-1) (x+1)^10")
    monkeypatch.setattr(curve, "MAX_MONODROMY_STEPS", 24)
    assert monodromy_genus(repeated) == genus(repeated) == 5


def test_monodromy_genus_at_the_sheet_step_bound():
    # 4 distinct exponents (1, 2, 3 and 2499991 over infinity) of 2499997
    # sheets: 9,999,988 sheet steps, just under MAX_MONODROMY_STEPS
    cover = parse_curve("y^2499997 = x(x-1)^2(x+1)^3")
    assert cover.n * len(set(cover.all_exponents())) <= curve.MAX_MONODROMY_STEPS
    assert monodromy_genus(cover) == genus(cover) == 2499996


def test_fermat_cover_bounds_the_x_degree(monkeypatch):
    monkeypatch.setattr(curve, "MAX_FERMAT_DEGREE", 6)
    assert len(fermat_cover(5, 6).branches) == 6
    with pytest.raises(DomainError, match="exponent of x 7 above 6"):
        fermat_cover(5, 7)
    with pytest.raises(DomainError, match="exponent of x 7 above 6"):
        parse_curve("y^5 + x^7 = 1")


def test_translation_cycles_is_gcd():
    # s -> s + k mod n splits the n sheets into gcd(n, k) cycles
    for n in range(1, 61):
        assert [translation_cycles(n, k) for k in range(n)] == [gcd(n, k) for k in range(n)]
        assert cycle_counts(n) == [gcd(n, k) for k in range(n)]


def _cycles_of(perm):
    """Cycles of a permutation of range(len(perm)), each walked once from
    its first point not yet seen."""
    seen = [False] * len(perm)
    cycles = 0
    for s in range(len(perm)):
        if not seen[s]:
            cycles += 1
            while not seen[s]:
                seen[s] = True
                s = perm[s]
    return cycles


@st.composite
def _translations(draw):
    # any integer k, as s -> s + k mod n is defined for all of them
    n = draw(st.integers(min_value=1, max_value=3000))
    return n, draw(st.integers(min_value=-2 * n, max_value=2 * n))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_translations())
@example((1, 0))
@example((1, 3))
@example((12, 0))
@example((12, 6))
@example((12, 11))
@example((2999, 1))
@example((2999, 2998))
@example((2999, -5998))
@example((2048, 1024))
@example((2048, 3))
@example((2048, -1))
@example((3000, 6000))
def test_translation_cycles_matches_explicit_permutation(translation):
    n, k = translation
    assert translation_cycles(n, k) == _cycles_of([(s + k) % n for s in range(n)])


def test_translation_cycles_near_a_million_sheets():
    for n in (999_983, 10**6, 2**20, 999_999):
        for k in (0, 1, 2, 3, n // 2, n - 1, n + 7, -6, 1024, 3 * 7 * 11 * 13, 37 * 27_027):
            assert translation_cycles(n, k) == gcd(n, k), (n, k)


def test_monodromy_genus_matches_composed_permutations():
    # brute force: the sheet permutation of each branch point as a list,
    # their product composed point by point, and the Euler characteristic
    # of the monodromy read off the cycles of each list
    covers = [
        belyi_cover(n, *t) for n in (4, 7, 9, 12, 30) for t in ((1, 1, n - 2), (1, 2, n - 3))
    ] + [lefschetz_cover(7, 3), fermat_cover(6, 4), parse_curve("y^10 = x^2 (x-1)^3 (x-2)^4")]
    for cover in covers:
        n = cover.n
        perms = [[(s + k) % n for s in range(n)] for k in cover.all_exponents()]
        product = list(range(n))
        for perm in perms:
            product = [perm[s] for s in product]
        assert product == list(range(n))
        for k, perm in zip(cover.all_exponents(), perms):
            assert translation_cycles(n, k) == _cycles_of(perm)
        chi = 2 * n - sum(n - _cycles_of(perm) for perm in perms)
        assert monodromy_genus(cover) == genus(cover) == (2 - chi) // 2, cover


def test_monodromy_agrees_with_genus_formula_sweep():
    import itertools

    points = [BranchPoint.at(v) for v in (0, 1, -1, 2, 3)]

    def check(n, ks):
        cover = CyclicCover(n, tuple(zip(points, ks)), (-sum(ks)) % n)
        if is_irreducible(cover):
            assert genus(cover) == monodromy_genus(cover)

    # exhaustive over small degrees with up to 3 finite points (+ infinity)
    for n in range(2, 13):
        for m in (1, 2, 3):
            for ks in itertools.product(range(1, n), repeat=m):
                check(n, ks)
    # strided coverage up to degree 30 with up to 5 finite points
    for n in (16, 21, 24, 30):
        for m in (2, 3, 4, 5):
            pool = range(1, n, 3 if m >= 4 else 1)
            for ks in itertools.islice(itertools.product(pool, repeat=m), 800):
                check(n, ks)


def test_belyi_unit_exponent_genus():
    # gcd(n,a)=gcd(n,b)=gcd(n,c)=1 forces odd n and genus (n-1)/2
    for n in range(3, 31):
        for a in range(1, n):
            for b in range(1, n):
                c = (-a - b) % n
                if c == 0:
                    continue
                if gcd(n, a) == gcd(n, b) == gcd(n, c) == 1:
                    cover = belyi_cover(n, a, b, c)
                    assert n % 2 == 1
                    assert genus(cover) == (n - 1) // 2


# ---------------------------------------------------------------------------
# serialization


def test_json_schema_keys():
    d = cover_to_json_dict(belyi_cover(7, 1, 2, 4))
    assert set(d) == {"n", "branches", "infinity_exponent"}
    assert d["branches"][0] == {"point": "0", "exponent": 1}
    assert "constant" in cover_to_json_dict(fermat_cover(4, 4))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.data())
def test_random_covers_round_trip_and_oracle(n, data):
    m = data.draw(st.integers(min_value=1, max_value=4))
    ks = [data.draw(st.integers(min_value=1, max_value=n - 1)) for _ in range(m)]
    factors = ("x", "(x-1)", "(x+1)", "(x-2)")[:m]
    pts = [BranchPoint.at(v) for v in (0, 1, -1, 2)][:m]
    cover = CyclicCover(n, tuple(zip(pts, ks)), (-sum(ks)) % n)
    text = f"y^{n} = " + "".join(f"{f}^{k}" for f, k in zip(factors, ks))
    assert parse_curve(text) == cover
    if is_irreducible(cover):
        assert genus(cover) == monodromy_genus(cover)
