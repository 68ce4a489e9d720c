"""Tests for the automorphism-group classifier."""

import json
from math import gcd

import pytest

from cyclicaut import classifier
from cyclicaut.classifier import (
    ClassificationReport,
    GroupDescriptor,
    classify_belyi,
    classify_cover,
    classify_fermat,
    classify_lefschetz,
    dihedral_four_branch,
    lefschetz_canonical,
    lefschetz_isomorphic,
    presentation_for,
    report_to_json_dict,
    stability_normal,
)
from cyclicaut.curve import (
    canonical_triple,
    monodromy_genus,
    parse_curve,
    triple_orbit,
)
from cyclicaut.fuchsian import cb_extendable, skep_of_cover
from cyclicaut.grouptheory import (
    Presentation,
    coset_enumerate,
    fingerprint,
    parse_presentation,
    presentation_to_text,
)
from cyclicaut.numtheory import DomainError, is_prime


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
    verdict = cb_extendable(skep_of_cover(r.cover))
    assert verdict.extendable and verdict.case == 4


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
    for n in range(4, 19):
        for (a, b, c) in admissible_triples(n):
            orbit = triple_orbit(n, a, b, c)
            if any(gcd(n, x) == 1 for t in orbit for x in t):
                continue
            r = classify_belyi(n, a, b, c)
            assert r.row == "DEFAULT"
            assert r.group.kind == "CYCLIC"


def test_default_rows_not_extendable():
    for n in range(4, 19):
        for (a, b, c) in admissible_triples(n):
            r = classify_belyi(n, a, b, c)
            if r.row != "DEFAULT" or r.genus < 2:
                continue
            assert not cb_extendable(skep_of_cover(r.cover)).extendable


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
        pres = presentation_for(r)
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
        assert presentation_for(classify_belyi(n, a, b, c)) is None
    assert presentation_for(classify_fermat(4, 4)) is None
    assert presentation_for(classify_lefschetz(7, 2)) is None


def test_classify_cover_routes():
    r = classify_cover(parse_curve("y^7 = x(x-1)^2(x+1)^4"))
    assert r.row == "C.2" and r.group.order == 168
    # the point at infinity counts as the third branch point
    r = classify_cover(parse_curve("y^5 = x^6(x-1)"))
    assert r.row == "A.1" and r.group.structure == "Z10"
    with pytest.raises(DomainError, match="three branch points"):
        classify_cover(parse_curve("y^5 + x^3 = 1"))


def test_belyi_validation():
    with pytest.raises(DomainError, match="degree >= 4"):
        classify_belyi(3, 1, 1, 1)
    with pytest.raises(DomainError):
        classify_belyi(6, 2, 2, 2)  # reducible
    with pytest.raises(DomainError):
        classify_belyi(7, 1, 2, 3)  # sum not 0 mod n
    with pytest.raises(DomainError):
        classify_belyi(7, 0, 3, 4)


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
    pres = presentation_for(r)
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
    # each classification canonicalises its triple once and runs no other
    # residue scan: the table rows test the triple's unit-led forms
    import cyclicaut.classifier as classifier
    import cyclicaut.numtheory as numtheory

    calls = {"canonical_triple": 0, "involutory_units": 0, "omega_units": 0}

    def counting(name, inner):
        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    monkeypatch.setattr(classifier, "canonical_triple",
                        counting("canonical_triple", classifier.canonical_triple))
    for name in ("involutory_units", "omega_units"):
        wrapper = counting(name, getattr(numtheory, name))
        monkeypatch.setattr(numtheory, name, wrapper)
        monkeypatch.setattr(classifier, name, wrapper, raising=False)
    cases = [
        (classify_belyi, (9919, 1, 2, 9916), "DEFAULT"),
        (classify_belyi, (15, 4, 10, 1), "B.1"),
        (classify_belyi, (91, 9, 81, 1), "C.1"),
        (classify_lefschetz, (43, 6), "L.3"),
        (classify_lefschetz, (43, 5), "L.4"),
    ]
    for classify, args, row in cases:
        calls.update(dict.fromkeys(calls, 0))
        assert classify(*args).row == row
        assert calls == {"canonical_triple": 1, "involutory_units": 0, "omega_units": 0}, args


def test_lefschetz_isomorphic_examples():
    assert lefschetz_isomorphic(11, 2, 4) is True
    assert lefschetz_isomorphic(7, 1, 2) is False
    with pytest.raises(DomainError):
        lefschetz_isomorphic(11, 2, 5)


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
            fa = fingerprint(presentation_for(rf))
            fb = fingerprint(presentation_for(rb))
            assert fa == fb


# -- corollaries ------------------------------------------------------------


def test_dihedral_four_branch():
    assert dihedral_four_branch(6, 1, 1, 2, 2) is True
    assert dihedral_four_branch(6, 1, 5, 2, 4) is True
    assert dihedral_four_branch(7, 1, 1, 2, 3) is True
    assert dihedral_four_branch(8, 1, 1, 2, 4) is False
    with pytest.raises(DomainError):
        dihedral_four_branch(6, 1, 1, 2, 3)  # bad sum
    with pytest.raises(DomainError):
        dihedral_four_branch(6, 2, 4, 2, 4)  # reducible
    with pytest.raises(DomainError):
        dihedral_four_branch(6, 0, 1, 2, 3)


def test_stability_normal():
    assert stability_normal(3, 7) is True
    assert stability_normal(5, 10) is False
    assert stability_normal(2, 5) is True
    with pytest.raises(DomainError):
        stability_normal(4, 10)
    with pytest.raises(DomainError):
        stability_normal(3, 0)


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
    assert presentation_for(classify_belyi(15, 1, 4, 10)) is not None
    assert len(built) == 1
