"""Tests for the exact map checks and the enumeration cross-checks."""

import dataclasses
import hashlib
import importlib.util
import json
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclicaut import classifier, curve, verify
from cyclicaut.classifier import belyi_verdicts, classify_belyi
from cyclicaut.curve import (
    MINUS_ONE,
    ONE,
    BranchPoint,
    canonical_triple,
    cycle_counts,
    fermat_cover,
    monodromy_genus,
    parse_curve,
    twice_monodromy_genus,
)
from cyclicaut.numtheory import DomainError, factorize, is_prime
from cyclicaut.verify import (
    ENUMERATION_CAP,
    FAMILIES,
    FIELD_FLOOR,
    MapProgram,
    ProductForm,
    RationalMap,
    accola_maclachlan,
    build_scenario,
    check_enumeration,
    cover_field,
    cross_check,
    cross_check_to_json_dict,
    curve_rhs,
    deck_map,
    enumerate_classes,
    enumeration_to_json_dict,
    periodthree,
    run_scenario,
    sample_curve,
    twistedz2,
)


def passed(outcomes):
    return all(o.passed for o in outcomes)


def holds(cover, samples, check, *args):
    """The verdict of one MapProgram check, such as ``MapProgram.order``, run
    on its own at the samples."""
    program = MapProgram(cover)
    return check(program, *args)(program.run(samples))


# -- prime fields -----------------------------------------------------------


@pytest.mark.parametrize("n", range(4, 61))
def test_prime_field_facts(n):
    for cover in (parse_curve(f"y^{n} = (x-1)(x+1)"), fermat_cover(n, 3)):
        order = lcm(n, 6, *(pt.root_order for pt, _ in cover.branches))
        field = cover_field(cover)
        p, z = field.p, field.z
        m = (p - 1) // n
        assert field.order == order
        assert is_prime(p) and p == n * m + 1
        assert m >= FIELD_FLOOR and gcd(m, n) == 1
        assert (p - 1) % order == 0
        # z has exact multiplicative order L
        assert pow(z, order, p) == 1
        assert all(pow(z, order // q, p) != 1 for q, _ in factorize(order))
        # it is the least such prime: no smaller m >= FIELD_FLOOR qualifies
        assert not any(
            gcd(k, n) == 1 and (n * k) % order == 0 and is_prime(n * k + 1)
            for k in range(FIELD_FLOOR, m)
        )


def test_prime_field_primality_against_sympy():
    sympy = pytest.importorskip("sympy")
    for n in (4, 7, 12, 57, 60, 1000):
        assert sympy.isprime(cover_field(parse_curve(f"y^{n} = (x-1)(x+1)")).p)


def test_prime_field_elements():
    field = cover_field(parse_curve("y^12 = (x-1)(x+1)"))
    assert field.order == 12
    p = field.p
    zeta = field.element(BranchPoint.root_of_unity(1, 12))
    assert pow(zeta, 12, p) == 1 and pow(zeta, 6, p) == p - 1 and pow(zeta, 4, p) != 1
    assert field.element(BranchPoint.root_of_unity(5, 12)) == pow(zeta, 5, p)
    assert field.element(MINUS_ONE) == p - 1
    assert field.element(BranchPoint.at(Fraction(3, 2))) * 2 % p == 3
    assert field.element(BranchPoint.at(Fraction(-1, 3))) * 3 % p == p - 1
    with pytest.raises(DomainError):
        field.element(BranchPoint.root_of_unity(1, 5))
    with pytest.raises(DomainError):
        field.element(BranchPoint.at(Fraction(1, p)))


def test_prime_field_needs_m_coprime_to_n():
    # y^4 + x^8 = 1 needs zeta_8, so 8 | 4m while m stays odd: no such field
    with pytest.raises(DomainError, match="no prime p = 4 m"):
        cover_field(fermat_cover(4, 8))


# -- sampling ---------------------------------------------------------------


def test_sample_curve_basics():
    for text in ["y^6 = (x-1)(x+1)", "y^7 = x(x-1)^2(x+1)^4", "y^5 + x^3 = 1", "y^9 = 3/2 x(x-1/2)^4"]:
        cover = parse_curve(text)
        field = cover_field(cover)
        p = field.p
        f = _naive_form(curve_rhs(cover), field)
        branch_values = {field.element(pt) for pt, _ in cover.branches}
        for count in [1, 2, 3, 5, 6, 9, 100]:
            samples = sample_curve(cover, count, seed=count)
            assert len(samples) == count and len(set(samples)) == count
            for x, y in samples:
                assert 0 <= x < p and 0 <= y < p
                assert x not in branch_values
                assert pow(y, cover.n, p) == f(x, 0) != 0
            xs = [x for x, _ in samples]
            assert len(set(xs)) >= min(count, 4)
            assert max(xs.count(x) for x in xs) <= max(1, count // 4)
            assert holds(cover, samples, MapProgram.on_curve)


def test_sample_curve_deterministic_and_seed_sensitive():
    cover = parse_curve("y^7 = x(x-1)^2(x+1)^4")
    a = sample_curve(cover, 100, seed=7)
    b = sample_curve(cover, 100, seed=7)
    c = sample_curve(cover, 100, seed=8)
    assert len(a) == 100
    assert a == b
    assert a != c


def _digest(points):
    return hashlib.sha256(json.dumps(points).encode()).hexdigest()[:16]


@pytest.mark.parametrize("text,seed,count,first,digest", [
    ("y^6 = (x-1)(x+1)", 0, 10, (3231671, 5364796), "a5987037a85dfb66"),
    ("y^60 = (x-1)(x+1)", 3, 100, (46678604, 23198355), "ec7a16491a7c38be"),
    ("y^21 = (x+1)^8(x-1)", 1, 50, (3149405, 16532436), "5b4ff54c5ca42f29"),
    ("y^4 = x(x-1)(x+1)", 2, 7, (299762, 903642), "52084423233ef32f"),
])
def test_sample_curve_points_are_pinned(text, seed, count, first, digest):
    points = sample_curve(parse_curve(text), count, seed)
    assert points[0] == first and _digest(points) == digest
    assert _digest(sample_curve(periodthree(57, 7).cover, 100, 5)) == "c4431a2254b867d7"



def test_sample_curve_count_validation():
    cover = parse_curve("y^6 = (x-1)(x+1)")
    with pytest.raises(DomainError):
        sample_curve(cover, 0)
    with pytest.raises(DomainError):
        sample_curve(cover, -3)
    # where f(x) may never be an n-th power, sampling refuses rather than
    # drawing forever: a reducible cover, and branch points that meet mod p
    with pytest.raises(DomainError, match="reducible"):
        sample_curve(parse_curve("y^4 = 2(x-1)^2(x+1)^2"), 5)
    p = cover_field(parse_curve("y^2 = x(x-1)")).p
    with pytest.raises(DomainError, match=f"two branch points meet mod {p}"):
        sample_curve(parse_curve(f"y^2 = 3x(x-{p})"), 5)


def test_sample_curve_bounds_its_expected_draws(monkeypatch):
    # 100 points of a degree-7 cover, 7 per x: 15 values of x, about 7 draws
    # each
    cover = parse_curve("y^7 = x(x-1)^2(x+1)^4")
    monkeypatch.setattr(verify, "MAX_SAMPLE_DRAWS", 105)
    assert len(sample_curve(cover, 100)) == 100
    monkeypatch.setattr(verify, "MAX_SAMPLE_DRAWS", 104)
    with pytest.raises(DomainError, match="^100 samples of a degree-7 cover expect 105 draws, above 104$"):
        sample_curve(cover, 100)
    # one point takes one x
    assert len(sample_curve(cover, 1)) == 1


def test_on_curve_detects_an_off_curve_point():
    cover = parse_curve("y^6 = (x-1)(x+1)")
    samples = sample_curve(cover, 10, seed=0)
    (x, y), rest = samples[0], samples[1:]
    moved = ((x, 2 * y % cover_field(cover).p),) + rest
    assert not holds(cover, moved, MapProgram.on_curve)


def test_deck_map_preserves_curve_with_exact_order():
    cover = parse_curve("y^7 = x(x-1)^2(x+1)^4")
    samples = sample_curve(cover, 50, seed=0)
    t = deck_map(cover)
    assert holds(cover, samples, MapProgram.on_curve, [t])
    assert holds(cover, samples, MapProgram.order, t, 7)
    assert not holds(cover, samples, MapProgram.order, t, 14)  # smaller iterate closes
    assert not holds(cover, samples, MapProgram.order, t, 3)
    # a power of the deck map is one map, the composite of that many
    assert holds(cover, samples, MapProgram.relation, [deck_map(cover, 3)], [t] * 3)
    assert holds(cover, samples, MapProgram.relation, [deck_map(cover, 10)], [t] * 3)
    assert not holds(cover, samples, MapProgram.relation, [deck_map(cover, 4)], [t] * 3)


# -- the three map families -------------------------------------------------


def _dump_scenarios():
    """The scenarios of tools/dump_answers.py."""
    for n in range(4, ENUMERATION_CAP + 1, 2):
        yield accola_maclachlan(n)
    for n in range(5, ENUMERATION_CAP + 1):
        if n % 8:
            for b in range(2, n - 1):
                if b * b % n == 1:
                    yield twistedz2(n, b)
    for k in range(2, ENUMERATION_CAP):
        if 1 + k + k * k <= ENUMERATION_CAP:
            yield periodthree(1 + k + k * k, k)


def _naive_form(form, field):
    """The form over F_p term by term: one pow per term, zero and unit
    exponents included; pow raises ValueError at a pole."""
    p, c = field.p, field.element(form.constant)
    roots = [(field.element(root), exp) for root, exp in form.factors]

    def value(x, y):
        v = c * pow(x, form.x_power, p) * pow(y, form.y_power, p)
        for root, exp in roots:
            v = v * pow(x - root, exp, p) % p
        return v % p

    return value


def _naive_outcomes(scenario, samples):
    """(label, passed) of each of run_scenario's checks, each check on its
    own: every pipeline applied map by map and term by term at every
    sample, and a pole anywhere in a check fails that check."""
    cover, field = scenario.cover, cover_field(scenario.cover)
    n, p = cover.n, field.p
    rhs = _naive_form(curve_rhs(cover), field)
    forms = {name: (_naive_form(m.x_form, field), _naive_form(m.y_form, field))
             for name, m in scenario.maps.items()}

    def apply(names, x, y):
        for name in names:
            fx, fy = forms[name]
            x, y = fx(x, y), fy(x, y)
        return x, y

    def everywhere(test):
        try:
            return all(test(x, y) for x, y in samples)
        except ValueError:
            return False

    def lands_on_curve(names):
        def test(x, y):
            x, y = apply(names, x, y)
            return pow(y, n, p) == rhs(x, 0)
        return everywhere(test)

    def identity(names):
        return everywhere(lambda x, y: apply(names, x, y) == (x, y))

    name, k = scenario.featured, scenario.order
    outcomes = [
        ("on_curve_samples", lands_on_curve(())),
        (f"preserves_curve[{name}]", lands_on_curve((name,))),
        (f"order[{name}]={k}",
         identity((name,) * k) and not any(identity((name,) * i) for i in range(1, k))),
    ]
    for left, right, label in scenario.relations:
        outcomes.append((label, everywhere(lambda x, y: apply(left, x, y) == apply(right, x, y))))
    return outcomes


def _with_map(scenario, name, **y_form_changes):
    """The scenario with map ``name``'s y-component changed."""
    rmap = scenario.maps[name]
    wrong = dataclasses.replace(rmap, y_form=dataclasses.replace(rmap.y_form, **y_form_changes))
    return dataclasses.replace(scenario, maps={**scenario.maps, name: wrong})


def _wrong_scenarios():
    """A wrong featured map of each family at several degrees: accola's
    zeta_n^2 for zeta_n, periodthree's constant times j and twistedz2's eta
    times zeta_2n."""
    for n in (4, 8, 30, 60):
        yield _with_map(accola_maclachlan(n), "u", constant=BranchPoint.root_of_unity(2, n))
    for n, k in ((7, 2), (13, 3), (19, 7), (31, 5)):  # 3 does not divide n: j y is no deck map
        sc = periodthree(n, k)
        c = sc.maps["S"].y_form.constant
        yield _with_map(sc, "S", constant=BranchPoint.root_of_unity(c.root_index + 1, 3))
    for n, b in ((15, 4), (21, 8), (16, 7), (24, 5), (60, 11)):
        t = _least_phase(n, b)
        yield _with_map(twistedz2(n, b), "u", constant=BranchPoint.root_of_unity(t + 2, 2 * n))


def _reference_scenarios():
    """Every scenario family of tools/dump_answers.py with n <= 60."""
    yield from _dump_scenarios()
    for n in range(8, ENUMERATION_CAP + 1, 8):
        for b in range(2, n - 1):
            if b * b % n == 1:
                yield twistedz2(n, b)


def _assert_matches_reference(sc, seed):
    samples = verify.sample_curve(sc.cover, 100, seed)  # as run_scenario draws them
    outcomes = run_scenario(sc, 100, seed)
    assert [(o.label, o.passed) for o in outcomes] == _naive_outcomes(sc, samples), (
        sc.family, sc.cover.n, seed)
    assert [o.value for o in outcomes] == [len(samples)] * len(outcomes)
    return outcomes


PERIODTHREE_PAIRS = [
    (n, k) for n in range(4, 61) for k in range(2, n - 1) if (1 + k + k * k) % n == 0
]

GENERAL_PHASES = [(12, 5, 0), (16, 7, 2), (24, 5, 4), (24, 7, 0), (24, 11, 2), (24, 17, 0)]


def test_every_scenario_passes_at_three_seeds():
    # each outcome equals the term-by-term reference, label for label
    scenarios = list(_reference_scenarios())
    assert len(scenarios) == 105
    scenarios += [periodthree(n, k) for n, k in PERIODTHREE_PAIRS]
    scenarios += [twistedz2(n, b) for n, b, _ in GENERAL_PHASES]
    for sc in scenarios:
        for seed in (0, 1, 2):
            outcomes = _assert_matches_reference(sc, seed)
            assert passed(outcomes), (sc.family, sc.cover.n, seed, outcomes)
            # each value is the number of points checked
            assert [o.value for o in outcomes] == [100] * len(outcomes)


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_accola_maclachlan_checks(n, seed):
    sc = accola_maclachlan(n)
    outcomes = run_scenario(sc, 100, seed)
    assert [o.label for o in outcomes] == [
        "on_curve_samples", "preserves_curve[u]", "order[u]=4", "u^2 = (-x, y)"
    ]
    assert passed(outcomes), outcomes


def test_accola_maclachlan_square_is_half_turn():
    sc = accola_maclachlan(6)
    samples = sample_curve(sc.cover, 100, seed=0)
    u = sc.maps["u"]
    assert holds(sc.cover, samples, MapProgram.relation, [u, u], [sc.maps["half_turn"]])
    assert holds(sc.cover, samples, MapProgram.order, u, 4)
    assert not holds(sc.cover, samples, MapProgram.order, u, 2)
    assert not holds(sc.cover, samples, MapProgram.order, u, 8)


def _dump_answers():
    path = Path(__file__).resolve().parents[1] / "tools" / "dump_answers.py"
    spec = importlib.util.spec_from_file_location("dump_answers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dump_answers_writes_the_named_sections(capsys):
    dump = _dump_answers()
    # SECTIONS names every section once
    assert {name for name, _, _ in dump._calls({"scenario"})} == set(dump.SECTIONS)
    assert len(set(dump.SECTIONS)) == len(dump.SECTIONS)
    dump.main(["--section", "scenario", "--section", "parse_curve"])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line[0] for line in lines] == ["parse_curve"] * 42 + ["scenario"] * 105 + [
        "parse_curve"] + ["scenario"] * 3
    assert lines[42] == ["scenario", ["accola-maclachlan", 4, None, None],
                         [[o.label, o.value, o.passed] for o in run_scenario(accola_maclachlan(4))]]
    with pytest.raises(SystemExit):
        dump.main(["--section", "scenarios"])


def test_scenario_answers_match_their_committed_digest(capsys, tmp_path):
    # the scenario section recomputed in-process against tools/answers.sha256
    dump = _dump_answers()
    committed = Path(dump.__file__).with_name("answers.sha256")
    lines, sha = dump.read_digests(committed)["scenario"]
    assert dump.main(["--check", str(committed), "--section", "scenario"]) == 0
    assert capsys.readouterr().out == f"ok scenario {lines} {sha}\n"
    # a moved digest and a section without an entry each fail the check
    moved = tmp_path / "answers.sha256"
    moved.write_text("parse_presentation 37 " + "0" * 64 + "\n")
    argv = ["--check", str(moved), "--section", "parse_presentation", "--section", "parse_curve"]
    assert dump.main(argv) == 1
    parse_curve, parse_presentation = capsys.readouterr().out.splitlines()
    assert parse_curve.startswith("MOVED parse_curve 43 ") and parse_curve.endswith(", no entry")
    assert parse_presentation.startswith("MOVED parse_presentation 37 ")
    assert parse_presentation.endswith(f", 37 {'0' * 64} in {moved}")


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
    assert sc.maps["S"].y_form.factors[0] == (BranchPoint.root_of_unity(2, 3), -beta)
    assert passed(run_scenario(sc, 100, seed))


@pytest.mark.parametrize("n,k", PERIODTHREE_PAIRS)
def test_periodthree_every_pair(n, k):
    sc = periodthree(n, k)
    q, r = divmod(k * k, n)
    assert sc.cover.exponents() == (1, k, r)
    # (x - j^2)^-beta, then (x - j)^-q only when n < 1 + k + k^2
    assert [e for _, e in sc.maps["S"].y_form.factors] == [-((k * r - 1) // n)] + ([-q] if q else [])
    assert all(abs(e) <= k for _, e in sc.maps["S"].y_form.factors)


def test_periodthree_commutation_with_deck():
    sc = periodthree(7, 2)
    samples = sample_curve(sc.cover, 100, seed=5)
    s, t = sc.maps["S"], sc.maps["T"]
    # pipeline [T, S] applies T first: the composite S.T
    assert holds(sc.cover, samples, MapProgram.relation, [t, s], [s, t, t])
    # and the relation really is twisted: plain commutation fails
    assert not holds(sc.cover, samples, MapProgram.relation, [t, s], [s, t])


def test_periodthree_validation():
    with pytest.raises(DomainError):
        periodthree(7, 3)  # 1+3+9 != 0 mod 7
    with pytest.raises(DomainError):
        periodthree(9, 2)


@pytest.mark.parametrize("n,b", [(15, 4), (21, 8)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_twistedz2_checks(n, b, seed):
    sc = twistedz2(n, b)
    # the least phase exp(i pi t / n): t = 3 and t = 7, where the sign -1
    # (t = n) also solves the conditions
    t = {15: 3, 21: 7}[n]
    assert sc.maps["u"].y_form.constant == BranchPoint.root_of_unity(t, 2 * n)
    assert passed(run_scenario(sc, 100, seed))


def _least_phase(n: int, b: int) -> int:
    """The least t in [0, 2n) with t = b + 1 mod 2 and t (b + 1) = beta n
    mod 2n, by search."""
    beta = (b * b - 1) // n
    return next(t for t in range(2 * n)
                if (t - b - 1) % 2 == 0 and (t * (b + 1) - beta * n) % (2 * n) == 0)


def test_twistedz2_phase_is_the_least_solution():
    pairs = [(n, b) for n in range(4, 600) for b in range(2, n - 1) if b * b % n == 1]
    assert len(pairs) == 1472
    for n, b in pairs:
        phase = twistedz2(n, b).maps["u"].y_form.constant
        assert phase == BranchPoint.root_of_unity(_least_phase(n, b), 2 * n), (n, b)


def test_twistedz2_conjugation_relation():
    sc = twistedz2(15, 4)
    samples = sample_curve(sc.cover, 100, seed=2)
    u, t = sc.maps["u"], sc.maps["T"]
    assert holds(sc.cover, samples, MapProgram.relation, [u, t, u], [t] * 4)
    assert holds(sc.cover, samples, MapProgram.order, u, 2)


def test_twistedz2_validation():
    # a degree divisible by 8 takes a phase of its own
    assert passed(run_scenario(twistedz2(16, 7)))
    with pytest.raises(DomainError):
        twistedz2(15, 5)  # 5^2 != 1 mod 15


@pytest.mark.parametrize("n,b,t_expected", GENERAL_PHASES)
def test_twisted_involution_general(n, b, t_expected):
    # composite degrees where the +-1 sign cannot work still admit the
    # involution with a root-of-unity phase exp(i pi t / n)
    sc = twistedz2(n, b)
    assert sc.maps["u"].y_form.constant == BranchPoint.root_of_unity(t_expected, 2 * n)
    assert passed(run_scenario(sc, 60, 3))


def test_build_scenario_dispatch():
    assert list(FAMILIES) == ["accola-maclachlan", "periodthree", "twistedz2"]
    assert build_scenario("accola-maclachlan", 6).family == "accola-maclachlan"
    assert build_scenario("periodthree", 7, k=2).order == 3
    assert build_scenario("twistedz2", 15, b=4).order == 2
    with pytest.raises(DomainError, match="^periodthree needs the twist exponent k$"):
        build_scenario("periodthree", 7)
    with pytest.raises(DomainError, match="^twistedz2 needs the involutory exponent b$"):
        build_scenario("twistedz2", 15)
    with pytest.raises(DomainError, match="unknown map family 'klein'"):
        build_scenario("klein", 7)
    # a parameter the family does not take is refused, not ignored
    with pytest.raises(DomainError, match="^twistedz2 takes no parameter k$"):
        build_scenario("twistedz2", 15, k=99, b=4)
    with pytest.raises(DomainError, match="^periodthree takes no parameter b$"):
        build_scenario("periodthree", 7, k=2, b=3)
    with pytest.raises(DomainError, match="^accola-maclachlan takes no parameter k$"):
        build_scenario("accola-maclachlan", 8, k=3, b=5)
    with pytest.raises(DomainError, match="^accola-maclachlan takes no parameter b$"):
        build_scenario("accola-maclachlan", 8, b=5)


def test_verify_map_order_seed_independent():
    sc = twistedz2(15, 4)
    u = sc.maps["u"]
    verdicts = set()
    for seed in range(5):
        samples = sample_curve(sc.cover, 40, seed)
        verdicts.add(holds(sc.cover, samples, MapProgram.order, u, 2))
    assert verdicts == {True}


def test_verify_relation_detects_mismatch():
    cover = parse_curve("y^6 = (x-1)(x+1)")
    samples = sample_curve(cover, 30, seed=0)
    t = deck_map(cover)
    assert not holds(cover, samples, MapProgram.relation, [t], [t, t])


def test_wrong_maps_fail():
    # accola-maclachlan's u with zeta_n^2 in place of zeta_n squares to the
    # identity, so its order and its relation fail while the curve is kept
    sc = accola_maclachlan(8)
    u = sc.maps["u"]
    wrong = dataclasses.replace(
        u, y_form=dataclasses.replace(u.y_form, constant=BranchPoint.root_of_unity(2, 8))
    )
    bad = dataclasses.replace(sc, maps={**sc.maps, "u": wrong})
    verdicts = {o.label: o.passed for o in run_scenario(bad, 100, 0)}
    assert verdicts == {
        "on_curve_samples": True,
        "preserves_curve[u]": True,
        "order[u]=4": False,
        "u^2 = (-x, y)": False,
    }
    # (x, 2y) leaves the curve
    stretch = RationalMap(ProductForm(ONE, 1, 0), ProductForm(BranchPoint.at(2), 0, 1))
    samples = sample_curve(sc.cover, 100, seed=0)
    assert not holds(sc.cover, samples, MapProgram.on_curve, [stretch])
    # a deck map claimed to have order 14 or 3 at n = 7, and S.T = T.S
    three = periodthree(7, 2)
    samples = sample_curve(three.cover, 100, seed=1)
    s, t = three.maps["S"], three.maps["T"]
    assert not holds(three.cover, samples, MapProgram.order, t, 14)
    assert not holds(three.cover, samples, MapProgram.order, t, 3)
    assert not holds(three.cover, samples, MapProgram.relation, [s, t], [t, s])
    claimed = dataclasses.replace(three, relations=((("S", "T"), ("T", "S"), "S.T = T.S"),))
    assert [o.passed for o in run_scenario(claimed, 100, 1)] == [True, True, True, False]


def test_pole_fails_its_point():
    # a synthetic point with y = 0, where u's 1/y has no value: the point
    # fails every check that applies u, and nothing is resampled
    sc = accola_maclachlan(6)
    good = sample_curve(sc.cover, 20, seed=0)
    poisoned = good + ((1, 0),)
    u = sc.maps["u"]
    assert holds(sc.cover, poisoned, MapProgram.on_curve)  # x = 1 is a branch value: 0^6 = 0
    assert not holds(sc.cover, poisoned, MapProgram.on_curve, [u])
    assert not holds(sc.cover, poisoned, MapProgram.order, u, 4)
    assert not holds(sc.cover, poisoned, MapProgram.relation, [u, u], [sc.maps["half_turn"]])
    assert holds(sc.cover, good, MapProgram.on_curve, [u])


def test_composite_order():
    cover = parse_curve("y^6 = (x-1)(x+1)")
    samples = sample_curve(cover, 20, seed=0) + ((12345, 678),)
    t = deck_map(cover)
    sq = RationalMap(ProductForm(ONE, 2, 0), ProductForm(ONE, 0, 1))
    # t first, then squaring: (x^2, zeta y) expected
    both = RationalMap(ProductForm(ONE, 2, 0), ProductForm(BranchPoint.root_of_unity(1, 6), 0, 1))
    assert holds(cover, samples, MapProgram.relation, [t, sq], [both])
    # the two commute
    assert holds(cover, samples, MapProgram.relation, [sq, t], [both])
    assert holds(cover, samples, MapProgram.relation, [t, sq], [sq, t])
    # t^6 is the identity, and the empty pipeline is (x, y)
    assert holds(cover, samples, MapProgram.order, t, 6)
    assert holds(cover, samples, MapProgram.relation, [t] * 6, [])
    identity = RationalMap(ProductForm(ONE, 1, 0), ProductForm(ONE, 0, 1))
    assert holds(cover, samples, MapProgram.relation, [], [identity])


# -- the evaluation kernel against a term-by-term reference ------------------


def test_wrong_maps_match_the_term_by_term_reference():
    for sc in _wrong_scenarios():
        for seed in (0, 1, 2):
            outcomes = _assert_matches_reference(sc, seed)
            assert not passed(outcomes), (sc.family, sc.cover.n)


def test_a_pole_fails_the_same_checks_as_in_the_reference(monkeypatch):
    # (1, 0) lies on each family's curve; the first map with 1/y, or one
    # whose image reaches a root of a negative-exponent factor, has a pole
    # there, and the pole voids every image derived from it
    real = verify.sample_curve
    monkeypatch.setattr(
        verify, "sample_curve", lambda cover, count, seed=0: real(cover, count, seed) + ((1, 0),)
    )
    voided = set()
    for sc in list(_reference_scenarios()) + list(_wrong_scenarios()):
        outcomes = _assert_matches_reference(sc, 0)
        assert outcomes[0].passed and outcomes[0].value == 101
        voided.add((sc.family, passed(outcomes)))
    # the pole fails some check in each family, and not in every scenario of
    # periodthree, where S has no pole at (1, 0) when n = 1 + k + k^2
    assert {family for family, ok in voided if not ok} == set(FAMILIES)


def test_each_sample_walks_each_map_prefix_once(monkeypatch):
    # accola's prefixes are u, u^2, u^3, u^4 and the half turn
    calls = []
    over = RationalMap.over

    def counting(self, field):
        image = over(self, field)
        return lambda x, y: calls.append(self) or image(x, y)

    monkeypatch.setattr(RationalMap, "over", counting)
    sc = accola_maclachlan(10)
    assert passed(run_scenario(sc, 40, 1))
    assert len(calls) == 40 * 5
    assert calls.count(sc.maps["u"]) == 40 * 4


def test_equal_maps_built_apart_share_one_slot(monkeypatch):
    # two deck maps built apart are one value: one step, compiled once and
    # applied once per sample
    cover = parse_curve("y^7 = x(x-1)^2(x+1)^4")
    samples = sample_curve(cover, 10, seed=0)
    first, second = deck_map(cover), deck_map(cover)
    assert first == second and first is not second
    compiled, images = [], []
    over = RationalMap.over

    def counting(self, field):
        compiled.append(self)
        image = over(self, field)
        return lambda x, y: images.append(self) or image(x, y)

    monkeypatch.setattr(RationalMap, "over", counting)
    program = MapProgram(cover)
    verdicts = [program.on_curve([first]), program.relation([second], [first])]
    results = program.run(samples)
    assert all(verdict(results) for verdict in verdicts)
    assert len(compiled) == 1 and len(images) == len(samples)


def test_order_walks_one_chain():
    cover = parse_curve("y^1000 = (x-1)(x+1)")
    samples = sample_curve(cover, 4, seed=0)
    t = deck_map(cover)
    assert holds(cover, samples, MapProgram.order, t, 1000)
    assert not holds(cover, samples, MapProgram.order, t, 500)
    assert not holds(cover, samples, MapProgram.order, t, 2000)
    with pytest.raises(DomainError, match="claimed order must be positive"):
        holds(cover, samples, MapProgram.order, t, 0)


_COVER = parse_curve("y^12 = (x-1)(x+1)")
_FIELD = cover_field(_COVER)  # holds the 12th roots of unity
_ROOTS = [BranchPoint.root_of_unity(i, 12) for i in range(12)]
_ROOTS += [BranchPoint.at(2), BranchPoint.at(Fraction(-1, 3))]
_EXPONENTS = st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-40, 40))


@st.composite
def _forms(draw):
    factors = draw(st.lists(st.tuples(st.sampled_from(_ROOTS), _EXPONENTS), max_size=4))
    return ProductForm(draw(st.sampled_from(_ROOTS)), draw(_EXPONENTS), draw(_EXPONENTS), tuple(factors))


@st.composite
def _points(draw, forms):
    """A point of F_p^2 that is often a pole: x at a root of a factor or 0, y often 0."""
    roots = [0] + [_FIELD.element(root) for form in forms for root, _ in form.factors]
    x = draw(st.one_of(st.sampled_from(roots), st.integers(0, _FIELD.p - 1)))
    y = draw(st.one_of(st.just(0), st.integers(0, _FIELD.p - 1)))
    return x, y


def _value_or_pole(fn, x, y):
    try:
        return fn(x, y)
    except ValueError:
        return "pole"


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_compiled_forms_match_the_term_by_term_reference(data):
    x_form, y_form = data.draw(_forms()), data.draw(_forms())
    points = data.draw(st.lists(_points((x_form, y_form)), min_size=1, max_size=5))
    rmap = RationalMap(x_form, y_form)
    # each form on its own, beside the identity in the other coordinate,
    # which has no pole
    x_only = RationalMap(x_form, ProductForm(ONE, 0, 1)).over(_FIELD)
    y_only = RationalMap(ProductForm(ONE, 1, 0), y_form).over(_FIELD)
    naive = (_naive_form(x_form, _FIELD), _naive_form(y_form, _FIELD))
    for x, y in points:
        nx, ny = (_value_or_pole(f, x, y) for f in naive)
        assert _value_or_pole(x_only, x, y) == ("pole" if nx == "pole" else (nx, y))
        assert _value_or_pole(y_only, x, y) == ("pole" if ny == "pole" else (x, ny))
        # the map has a pole exactly where either component has one
        expected = "pole" if "pole" in (nx, ny) else (nx, ny)
        assert _value_or_pole(rmap.over(_FIELD), x, y) == expected
        # and a program voids the map's slot exactly there
        assert holds(_COVER, [(x, y)], MapProgram.relation, [rmap], [rmap]) == (expected != "pole")


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
# The same over range(4, 61), the whole sweep range, made at commit b496c48,
# before the walk keyed its verdicts on the unsorted lows.
SWEEP_4_60_SHA256 = "0983a0e6fd67fc3bfbc23cf94600669ed303d1a72aaaa40dc38482507ac74e6f"


def test_sweep_answers_pinned():
    lines = [
        json.dumps(enumeration_to_json_dict(n, enumerate_classes(n))) + "\n"
        for n in range(4, ENUMERATION_CAP + 1)
    ]
    assert hashlib.sha256("".join(lines[:27]).encode()).hexdigest() == SWEEP_4_30_SHA256
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == SWEEP_4_60_SHA256


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
    # the verdict's own genus goes wrong at n = 9; the check must read it
    def verdicts(n):
        for triple, v in belyi_verdicts(n):
            yield triple, v._replace(genus=v.genus + (n == 9))

    monkeypatch.setattr(verify, "belyi_verdicts", verdicts)
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


def _doubled_base_order_at_9(n, a, b, c):
    report = classify_belyi(n, a, b, c)
    return dataclasses.replace(report, base_order=report.base_order * (1 + (n == 9)))


def _genus_2_on_c2(n, a, b, c):
    report = classify_belyi(n, a, b, c)
    return dataclasses.replace(report, genus=2) if report.row == "C.2" else report


# each per-class invariant of cross_check, the name in verify whose fault
# fails it, the fault, and the first class that shows it
PER_CLASS_FAULTS = [
    (
        "harvey_condition",
        "harvey_admissible",
        lambda signature, n: False,
        {"n": 4, "triple": [1, 1, 2], "row": "A.2", "order": 16},
    ),
    (
        "default_not_extendable",
        "cb_extendable",
        lambda cover: ("fault",),
        {"n": 9, "triple": [1, 2, 6], "row": "DEFAULT", "order": 9},
    ),
    (
        "order_law",
        "classify_belyi",
        _doubled_base_order_at_9,
        {"n": 9, "triple": [1, 1, 7], "row": "A.1", "order": 18},
    ),
    (
        "hurwitz_bound",
        "classify_belyi",
        _genus_2_on_c2,
        {"n": 7, "triple": [1, 2, 4], "row": "C.2", "order": 168},
    ),
]


@pytest.mark.parametrize(
    "name,target,fault,witness", [pytest.param(*case, id=case[0]) for case in PER_CLASS_FAULTS]
)
def test_per_class_invariant_fault_injection(monkeypatch, name, target, fault, witness):
    # a fault in one invariant's oracle fails that invariant alone, with the
    # first class it reaches as the witness
    monkeypatch.setattr(verify, target, fault)
    report = cross_check(9)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == [name]
    assert failed[0].witness == witness


def test_orbit_disagreement_names_the_triple(monkeypatch):
    # (2,4,1) is a later member of the class of (1,2,4) at n = 7; its verdict
    # alone moves to another row
    def verdicts(n):
        for triple, v in belyi_verdicts(n):
            if (n, triple) == (7, (2, 4, 1)):
                v = v._replace(row="A.1")
            yield triple, v

    monkeypatch.setattr(verify, "belyi_verdicts", verdicts)
    report = cross_check(9)
    byname = {c.name: c for c in report.checks}
    failed = byname["equivalence_invariance"]
    assert not failed.passed
    assert failed.witness == {"n": 7, "triple": [2, 4, 1], "canonical": [1, 2, 4]}
    assert [c.name for c in report.checks if not c.passed] == ["equivalence_invariance"]
    with pytest.raises(AssertionError, match=r"orbit member \(2, 4, 1\) disagrees with class \(1, 2, 4\)"):
        enumerate_classes(7)


def test_stray_key_names_its_first_triple(monkeypatch):
    # the walk memoises each verdict on the unsorted lows of a triple's
    # entries; at n = 7 the class of (1, 1, 5) holds the keys (1, 1, 3),
    # (3, 1, 1) and (1, 3, 1), first held by (1, 1, 5), (1, 3, 3) and
    # (1, 5, 1).  The verdict the walk takes on the miss of the last key
    # alone moves to another row, so every triple holding that key strays,
    # and the first of them in walk order is the witness.
    key_verdict = classifier._key_verdict
    missed = []

    def stray(n, a, b, c, key, verdict_of_lows):
        verdict = key_verdict(n, a, b, c, key, verdict_of_lows)
        if (n, key) == (7, (1, 3, 1)):
            missed.append((a, b, c))
            verdict = verdict._replace(row="DEFAULT")
        return verdict

    monkeypatch.setattr(classifier, "_key_verdict", stray)
    report = cross_check(9)
    assert missed == [(1, 5, 1)]  # one miss per walk of the key
    byname = {c.name: c for c in report.checks}
    assert byname["equivalence_invariance"].witness == {
        "n": 7, "triple": [1, 5, 1], "canonical": [1, 1, 5]}
    assert [c.name for c in report.checks if not c.passed] == ["equivalence_invariance"]
    with pytest.raises(AssertionError, match=r"orbit member \(1, 5, 1\) disagrees with class \(1, 1, 5\)"):
        enumerate_classes(7)


def admissible(n):
    """Every admissible ordered triple of degree n, by brute force over all
    entries in [1, n-1]: it sums to 0 mod n and no factor is common to n
    and its three entries."""
    return [
        (a, b, c)
        for a in range(1, n)
        for b in range(1, n)
        for c in range(1, n)
        if (a + b + c) % n == 0 and gcd(n, a, b, c) == 1
    ]


def test_one_report_per_class(monkeypatch):
    # every ordered triple gets a verdict, but only each class's first member
    # gets a cover and a report
    made = [0]
    build = classifier.ClassificationReport

    def counted(*args):
        made[0] += 1
        return build(*args)

    def class_count(n):
        return len({canonical_triple(n, *t) for t in admissible(n)})

    monkeypatch.setattr(classifier, "ClassificationReport", counted)
    for n in (7, 12, 24, 30):
        made[0] = 0
        assert len(enumerate_classes(n)) == made[0] == class_count(n)
    made[0] = 0
    assert cross_check(24).all_passed
    assert made[0] == sum(class_count(n) for n in range(4, 25))


def test_cycle_table_genus_matches_monodromy():
    # the genus cross_check reads from one cycle count per (n, k) is the
    # genus of the monodromy oracle, which counts each cover's own
    # translations
    for n in range(4, 25):
        cycles = cycle_counts(n)
        for triple in admissible(n):
            cover = classify_belyi(n, *triple).cover
            assert twice_monodromy_genus(n, cycles, cover.all_exponents()) == (
                2 * monodromy_genus(cover)
            ), (n, triple)


def test_cycle_table_fault_injection(monkeypatch):
    # one miscounted translation, s -> s + 3 at n = 9, must fail the genus
    # check on a triple with that exponent and no other check
    count = curve.translation_cycles

    def miscount(n, k):
        return count(n, k) + ((n, k) == (9, 3))

    monkeypatch.setattr(curve, "translation_cycles", miscount)
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
    count = curve.translation_cycles

    def counted(n, k):
        calls.append((n, k))
        return count(n, k)

    monkeypatch.setattr(curve, "translation_cycles", counted)
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
