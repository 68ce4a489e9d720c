"""Dump cyclicaut's answers on fixed input sets, one JSON line per call.

Two checkouts agree on every answer below exactly when their dumps are
byte-identical, so a change that must keep answers is checked with one cmp:

    python3 tools/dump_answers.py > after.jsonl
    python3 /path/to/other/checkout/tools/dump_answers.py > before.jsonl
    cmp before.jsonl after.jsonl

``--section NAME``, repeatable, writes only the lines of the named sections
(the first entry of each line, one of ``SECTIONS``), in the usual order, so
one section is compared in seconds.  The lines are those of the full dump
with the other sections left out; for a checkout without the option, grep
its full dump for them:

    python3 tools/dump_answers.py --section scenario > after.jsonl
    grep '^\\["scenario",' before.jsonl | cmp - after.jsonl

The script imports ``cyclicaut`` from ``src/`` of the checkout it sits in;
for a checkout that predates it, copy it into that checkout's ``tools/``.
Input sets, in output order:

- ``classify_belyi(n, a, b, c)`` on every ordered admissible triple with
  4 <= n <= 60 (57,750 calls), then on the fixed invalid inputs of
  ``INVALID_BELYI``: degrees below 4, entries of 0, of n or more and
  negative ones, sums that are not 0 mod n, reducible triples, and inputs
  with several of these faults at once (26 calls);
- ``classify_lefschetz(p, a)`` for 0 <= a <= p at every prime p < 400 and at
  the non-primes 4, 6, 9, 15 and 21 (14,025 calls);
- ``classify_fermat(n, d)`` for n < 70 and 0 <= d <= n + 1 (2,555 calls);
- ``gs_extensions`` on every sorted period tuple of length 1 to 3 with
  entries 2..64, length 4 with entries 2..40 and length 5 with entries 2..14
  (163,877 tuples);
- ``perm_order`` and ``fingerprint`` on 3,000 seeded generator sets of degree
  1 to 8 (random permutations, products of a few disjoint cycles, identities
  and repeats), the README examples, and S_n for n <= 10, A_7, PSL(2,7),
  M_11, the order-96 group of row B.3, the dihedral group of order 128, and
  the cyclic and dihedral groups of degree 1000;
- ``coset_enumerate`` on the distinct presentations of every Belyi,
  Lefschetz and Fermat report of degree at most 60, the README example, the
  presentations of the tests, Z_m x Z_n for m, n <= 30, the dihedral groups
  of order 2n for n = 1, 10, ..., 1000, the (2,3,7) triangle group and
  the free groups of rank 1 and 2 at budgets 100 to 10,000, and the long
  powers <a | a^(2m)> at budget m for m = 10, 100, 1000 (2,905 calls);
- ``enumeration_to_json_dict(n, enumerate_classes(n))`` for 4 <= n <= 60
  (57 calls), then ``cross_check_to_json_dict(cross_check(60))`` (1 call);
- ``parse_curve`` on the valid and malformed curves of ``CURVE_TEXTS`` and
  ``parse_presentation`` on those of ``PRESENTATION_TEXTS``: bad tokens,
  truncations, zero denominators, 5000-digit integers and nesting within
  the parser's depth bound (79 calls);
- ``run_scenario(build_scenario(...))`` at its default sample count and seed
  on accola-maclachlan for every even n from 4 to 60, twistedz2 for every
  n <= 60 not divisible by 8 and every b with b^2 = 1 mod n, 2 <= b <= n - 2,
  and periodthree on the pairs with n = 1 + k + k^2 <= 60 (75 calls);
- ``abelianization`` of each distinct presentation of the coset lines, in
  their order (2,882 calls);
- ``smith_normal_form`` on seeded matrices with entries in -50..50 of every
  shape from 1 x 1 to 10 x 10: one dense, one singular and one with a zero
  column of each (300 calls);
- ``monodromy_genus`` of ``lefschetz_cover(p, a)`` and ``fermat_cover(n, d)``
  on the inputs of the Lefschetz and Fermat lines, then of ``parse_curve``
  on each text of ``CURVE_TEXTS`` (14,025 + 2,555 + 42 calls);
- ``run_scenario`` on twistedz2 for every n <= 60 divisible by 8 and every b
  as above (30 calls);
- ``abelianization``, then ``coset_enumerate`` at budget 1,000, of the
  presentations of ``SPARSE_PRESENTATIONS`` and of 300 seeded ones, whose
  relators leave some generators out and repeat or sum to zero, and then
  ``abelianization`` of 300 powers of one generator over 512 generators
  (307 + 307 + 1 calls);
- ``abelianization`` of <g1..gN | g_i^j for 2 <= j <= 21> at N = 64 and
  N = 256, then ``coset_enumerate`` of the free product of 120 copies of Z_2
  and of the square chain <g1..g2000 | g_i^2, g_i * g_(i+1)^-1> (2 + 2
  calls);
- ``abelianization`` of the power chain <g1..gN | g_i^j for 2 <= j <= 21,
  g_i * g_(i+1)^-1>, one block of the relation matrix, at N = 64 and
  N = 256 (2 calls);
- inputs that once ran without bound: ``parse_curve`` of the Fermat curve
  y^5 + x^3000000 = 1, ``classify_fermat(10^6, 10^6)``, ``monodromy_genus``
  of ``parse_curve`` of y^100000000000 = x(x-1), and ``classify_lefschetz``
  at a = 2 on the primes 100000000000031 and 10^20 + 39 and on the least
  number whose primality ``is_prime`` leaves undecided (6 calls);
- map checks that once ran without bound: ``run_scenario`` on
  accola-maclachlan at n = 10^7, and at n = 4 with 30,000,000 samples, and
  on twistedz2 at n = 2 * 10^9, b = 10^9 + 1 (3 calls);
- ``coset_enumerate`` at budgets 1,000,000 and 2,000 of the triangle groups
  <x,y | x^l, y^m, (x*y)^n> of ``TRIANGLE_PERIODS`` (spherical, Euclidean
  and hyperbolic), each in its 64 forms: x^l and y^m with either sign, and
  (x*y)^n rotated to (y*x)^n, inverted, and with either sign on each
  letter; then at budget 2,000 the near misses of ``NEAR_MISS_TRIANGLES``:
  an extra relator, a repeated one, a power in the root and three
  generators, all but the power in the root left to the table by the check
  before it (1,152 + 4 calls);
- ``coset_enumerate`` of <a,b | (a*b)^N, b^2, a^2> at (N, budget) =
  (1000, 500), (1000, 1,000,000), (10000, 5000) and (100000, 20000), and of
  <a,b | a^200000, b^2, b*a*b*a> at budget 100,000: the dihedral group of
  order 2,000, then four budget stops whose lookahead passes walk a long
  open chain of a power relator (5 calls).

The sections are in the order they were added, so the dump of an older
checkout is a prefix of this one's.

A classification line holds ``report_to_json_dict`` of the report plus its
``kind``, ``group.kind`` and ``group.params``; any call that raises
``DomainError`` writes the error text instead.  A permutation line holds the
order at ``max_size`` 100,000 and at 60, and the fingerprint at ``max_size``
10,000, each as the value or the ``DomainError`` or ``BudgetExceeded`` text;
the budgets keep the closure of the old implementation within reach.  A
coset line holds the order at the budget given with it (1,000,000 where the
input names none), or the ``DomainError`` or ``BudgetExceeded`` text.  An
abelianization line holds the invariant factors and the free rank, or the
``DomainError`` or ``BudgetExceeded`` text.  A monodromy line holds the
genus, or the ``DomainError`` text of the cover or of the parse.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import combinations_with_replacement, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cyclicaut.classifier import (  # noqa: E402
    belyi_verdicts,
    classify_belyi,
    classify_fermat,
    classify_lefschetz,
    report_to_json_dict,
)
from cyclicaut.curve import (  # noqa: E402
    Signature,
    cover_to_json_dict,
    fermat_cover,
    lefschetz_cover,
    monodromy_genus,
    parse_curve,
)
from cyclicaut.fuchsian import gs_extensions  # noqa: E402
from cyclicaut.grouptheory import (  # noqa: E402
    BudgetExceeded,
    abelianization,
    coset_enumerate,
    fingerprint,
    parse_permutations,
    parse_presentation,
    perm_order,
    presentation_to_text,
    smith_normal_form,
)
from cyclicaut.numtheory import MAX_PRIMALITY, DomainError, is_prime  # noqa: E402
from cyclicaut.verify import (  # noqa: E402
    ENUMERATION_CAP,
    build_scenario,
    cross_check,
    cross_check_to_json_dict,
    enumerate_classes,
    enumeration_to_json_dict,
    run_scenario,
)


def _reported(classify):
    """classify, answering with the report's JSON and its group's kind and params."""
    return lambda *args: _report(classify(*args))


def _report(report) -> dict:
    return {
        "report": report_to_json_dict(report),
        "kind": report.kind,
        "group_kind": report.group.kind,
        "group_params": repr(report.group.params),
    }


def _extensions(sig: Signature) -> list:
    return [
        [row.row_id, list(outer.periods), row.index, row.normal]
        for row, outer in gs_extensions(sig)
    ]


def _answer(fn, *args):
    try:
        return fn(*args)
    except (DomainError, BudgetExceeded) as exc:
        return {"error": str(exc)}


def _extension_answer(*periods: int) -> dict:
    return {"gs_extensions": _extensions(Signature(periods))}


def _fingerprint(perms) -> list:
    fp = fingerprint(perms, max_size=10**4)
    return [fp.order, list(fp.abelian_invariants), fp.is_abelian]


def _perm_answer(text: str, degree: int | None) -> dict:
    perms = parse_permutations(text, degree)
    return {
        "order": _answer(perm_order, perms, 10**5),
        "order_60": _answer(perm_order, perms, 60),
        "fingerprint": _answer(_fingerprint, perms),
    }


def _cycle_text(images: list[int]) -> str:
    """A 0-based image list as 1-based disjoint cycles, ``()`` for the identity."""
    seen, cycles = set(), []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cycle, v = [], start
        while v not in seen:
            seen.add(v)
            cycle.append(str(v + 1))
            v = images[v]
        cycles.append("(" + ",".join(cycle) + ")")
    return "".join(cycles) or "()"


def _generator_sets(count: int, seed: int):
    """(text, degree) of seeded generator sets of degree 1 to 8."""
    rng = random.Random(seed)
    for _ in range(count):
        degree = rng.randint(1, 8)
        gens: list[str] = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.1:
                gens.append("()")
            elif roll < 0.2 and gens:
                gens.append(rng.choice(gens))
            elif roll < 0.6:
                # a few disjoint cycles on a random subset of the points
                points = rng.sample(range(degree), rng.randint(1, degree))
                images = list(range(degree))
                while points:
                    length = rng.randint(1, len(points))
                    cycle, points = points[:length], points[length:]
                    for i, v in enumerate(cycle):
                        images[v] = cycle[(i + 1) % len(cycle)]
                gens.append(_cycle_text(images))
            else:
                images = list(range(degree))
                rng.shuffle(images)
                gens.append(_cycle_text(images))
        yield ";".join(gens), degree


def _symmetric(n: int) -> str:
    return "(" + ",".join(str(i) for i in range(1, n + 1)) + ")" + (";(1,2)" if n > 1 else "")


PERM_EXAMPLES = [
    "(1,2,3,4)(5,6);(2,3)(4,5)",  # README
    _symmetric(12),  # README, S_12
    *(_symmetric(n) for n in range(1, 11)),
    "(1,2,3,4,5,6,7);(2,3)(5,6)",  # A_7
    "(1,2,3,4,5,6,7);(2,3)(4,7)",  # PSL(2,7)
    "(1,2,3,4,5,6,7,8,9,10,11);(3,7,11,8)(4,10,5,6)",  # M_11
    "(1,4)(2,7)(3,10)(5,8)(6,11)(9,12);(1,10,9,5)(2,4,11,3,7,12,6,8);"
    "(1,2,3)(4,5,6)(7,8,9)(10,11,12)",  # row B.3
    "(" + ",".join(str(i) for i in range(1, 65)) + ");"
    + "".join(f"({i},{66 - i})" for i in range(2, 33)),  # dihedral, order 128
    "(" + ",".join(str(i) for i in range(1, 1001)) + ")",  # cyclic, degree 1000
    "(" + ",".join(str(i) for i in range(1, 1001)) + ");"
    + "".join(f"({i},{1002 - i})" for i in range(2, 501)),  # dihedral, degree 1000
]


INVALID_BELYI = [
    # degree below 4, also with bad entries
    (3, 1, 1, 1), (2, 1, 1, 0), (1, 0, 0, 0), (0, 1, 1, 1), (-5, 1, 1, 1), (3, 0, 0, 0),
    # an entry of 0, of n or more, or negative
    (7, 0, 3, 4), (7, 3, 0, 4), (7, 3, 4, 0), (7, 1, 2, 7), (7, 8, 3, 3), (7, 1, 1, 12),
    (7, -1, 4, 4), (7, 1, -2, 1), (7, 1, 1, -2),
    # entries in range that do not sum to 0 mod n
    (7, 1, 2, 3), (60, 1, 1, 1), (10**6, 1, 2, 3),
    # reducible: a factor common to n and every entry
    (6, 2, 2, 2), (8, 4, 2, 2), (30, 6, 10, 14), (10**6, 2, 4, 999994),
    # several faults: the first check that fails names the error
    (7, 0, 1, 2), (7, 8, 1, 1), (6, 2, 2, 4), (6, 3, 3, 6),
]


COSET_EXAMPLES = [
    "<u,v | u^4, v^16, u*v*u*v, u^2*v*u^2*v^7>",  # README
    # tests
    "<a | a^5>",
    "<a | a^6>",
    "<u,v | u^2, v^7, (u*v)^2>",
    "<x,y | x^2, y^3, (x*y)^4>",
    "<x,y | x^2, y^3, (x*y)^5>",
    "<x,y | x^2, y^2, (x*y)^2>",
    "<x,y | x^2, y^2, (x*y)^12>",
    "<u,v | u^4, v^8, (u*v)^2, u^2*v*u^2*v^3>",
    "<u,v | u^4, v^16, (u*v)^2, u^2*v*u^2*v^7>",
    "<u,v | u^4, v^6, (u*v)^2, [u^2,v]>",
    "<u,v | u^2, v^15, u*v*u*v^-4>",
    "<s,t | s^3, t^13, s*t*s^-1*t^-3>",
    "<s,t | s^4, t^5, [s,t]>",
    "<s,t,u | s^4, t^16, u^2, [s,t], [s,u], (u*t)^2*s>",
    "<s,t,u | s^4, t^8, u^2, [s,t], [s,u], u*t*u*t*s>",
    "<a,b,u | a^6, b^6, (a*b)^2, [a,b], u^2, u*a*u*b^-1, u*b*u*a^-1>",
    "<a,b,u | a^6, b^6, (a*b)^3, [a,b], u^2, u*a*u*b^-1, u*b*u*a^-1>",
    "<x,y | x^2, y^3, x*(x*y)^3*x^-1*(x*y)^-3>",
    "<x,y | x^2, y^3, (x*y)^7, [x,y]^4>",
    "<x,y | x^4, y^8, (x*y)^8>",
    "<x,y | x^2, y^2, [x,y]^25>",
    "<x,y | x^2, y^2, (x*y*x*y^-1)^9>",
    "<x,y | x^2, y^3, x*y*x*y*x*y*x*y*x*y>",
    "<x,y | x^4, y^6, [x,y]^1, [x,y]^3>",
    "<u,v | u^2, v^360, v*u*v*u>",
    "<u,v | u^-2, v^-360, (u*v)^-2>",
    "<x,y | x^-2, y^-3, (y^-1*x^-1)^5>",
    "<x,y | x^2, y^2, (y*x^-1*y^-1*x)^25>",
    '{"generators": 2, "relators": [[1,1],[2,2,2],[1,2,1,2]]}',
    "<a | a^" + "9" * 5000 + ">",
]


def _report_presentations() -> list[str]:
    """Distinct presentations of the reports of degree at most 60, in order."""
    texts: dict[str, None] = {}

    def keep(classify, *args) -> None:
        try:
            text = classify(*args).group.presentation_text
        except DomainError:
            return
        if text is not None:
            texts.setdefault(text)

    for n in range(4, ENUMERATION_CAP + 1):
        for triple, _ in belyi_verdicts(n):
            keep(classify_belyi, n, *triple)
    for p in range(ENUMERATION_CAP + 1):
        for a in range(p + 1):
            keep(classify_lefschetz, p, a)
    for n in range(ENUMERATION_CAP + 1):
        for d in range(n + 2):
            keep(classify_fermat, n, d)
    return list(texts)


def _coset_inputs():
    """(text, budget) of every coset enumeration, in order."""
    default = 1_000_000
    for text in _report_presentations() + COSET_EXAMPLES:
        yield text, default
    for m in range(1, 31):
        for n in range(1, 31):
            yield f"<a,b | a^{m}, b^{n}, [a,b]>", default
    for n in range(1, 1001, 9):
        yield f"<u,v | u^2, v^{n}, (u*v)^2>", default
    for text in ("<x,y | x^2, y^3, (x*y)^7>", "<a | >", "<a,b | >"):
        for budget in (100, 200, 500, 1000, 2000, 5000, 10_000):
            yield text, budget
    for m in (10, 100, 1000):
        yield f"<a | a^{2 * m}>", m


def _coset_answer(text: str, budget: int):
    return coset_enumerate(parse_presentation(text), budget)


def _abelianization_answer(text: str) -> list:
    invariants = abelianization(parse_presentation(text))
    return [list(invariants.factors), invariants.free_rank]


def _snf_matrices(seed: int):
    """Seeded matrices with entries in -50..50, three of each shape from
    1 x 1 to 10 x 10: dense, singular (the last row a combination of the
    others, or zero for one row) and with its first column zeroed."""
    rng = random.Random(seed)
    for rows in range(1, 11):
        for cols in range(1, 11):
            dense = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
            weights = [rng.randint(-3, 3) for _ in range(rows - 1)]
            last = [sum(w * row[j] for w, row in zip(weights, dense)) for j in range(cols)]
            yield dense
            yield dense[:-1] + [last]
            yield [[0] + row[1:] for row in dense]


LONG = "9" * 5000  # more digits than int() converts

CURVE_TEXTS = [
    # valid
    "y^7 = x(x-1)^2(x+1)^4",
    "y^8 = x(x-1)^2(x+1)^5",
    "y^6 = (x-1)(x+1)",
    "y^4 + x^4 = 1",
    "  y ^ 9 = 2 x (x - 1)^4 * (x + 1)^4  ",
    "y^12 = -3/4 * x^2 (x-1/2)^3 (x+5)",
    "y^10 = +7 (x-1)^10 (x+2)^3",
    "y^5=x^2*(x-3)",
    "y^\u0667 = x(x-1)^2(x+1)^4",
    "y^6 = x^6 (x-2)",
    "y^5 + x^1 = 1",
    # malformed
    "",
    "y",
    "y^",
    "z^5 = x",
    "y^1 = x",
    "y^0 = x",
    "y^-5 = x",
    "y^5 = ",
    "y^5 = 0 x",
    "y^5 = 0/3 x",
    "y^5 = 1/0 x",
    "y^5 = x(x-1/0)",
    "y^5 = x(x*1)",
    "y^5 = x(x-0)",
    "y^5 = x(x--1)",
    "y^5 = x(x-1",
    "y^5 = x^0",
    "y^5 = x^",
    "y^5 = x(x-1)(x-1)",
    "y^5 = x x",
    "y^5 = x @",
    "y^5 = x(x-1)^2 junk",
    "y^5 + x^0 = 1",
    "y^5 + x^3 = 2",
    "y^5 + x^3 = 1 junk",
    "y^5 + y^3 = 1",
    f"y^{LONG} = x",
    f"y^5 = x^{LONG}",
    f"y^5 = x(x-{LONG})",
    f"y^5 = x(x-1/{LONG})",
    f"y^5 = {LONG}/7 x",
]

PRESENTATION_TEXTS = [
    # valid
    "<a | a^5>",
    "<a,b | a^2, b^3, (a*b)^7>",
    "<x,y | x^-2, [x,y]^3>",
    "<a | >",
    "< a , b | a b a^-1 b^-1 >",
    "<g_1, h2 | g_1^4, h2^2, (g_1 h2)^2>",
    "<a | ((a^2)^3)^-1>",
    "<a | a^- 3>",
    "<a | [[a,a],[a,a^2]]>",
    "<a | " + "(" * 50 + "a" + ")" * 50 + ">",
    '{"generators": 2, "relators": [[1,1],[2,2,2],[1,2,1,2]]}',
    # malformed
    "",
    "<",
    "<a",
    "<a |",
    "<a | a",
    "<a | b>",
    "<1 | a>",
    "<a | a^>",
    "<a | a^x>",
    "<a | a^+2>",
    "<a | a^5> junk",
    "<a | a^5,>",
    "<a | a*>",
    "<a | (a>",
    "<a | [a,a>",
    "<a | [a]>",
    "<a | %>",
    "<a,a | a>",
    "<a | a^10000001>",
    f"<a | a^{LONG}>",
    f"<a | a^-{LONG}>",
    '{"generators": 0, "relators": []}',
    '{"generators": 1, "relators": [[2]]}',
    '{"generators": 1, "relators": [[]]}',
    "{bad json",
    '{"generators": ' + LONG + "}",
]


def _curve_answer(text: str) -> dict:
    return cover_to_json_dict(parse_curve(text))


def _presentation_answer(text: str) -> str:
    return presentation_to_text(parse_presentation(text))


def _monodromy_answer(build):
    """build's cover, answering with its monodromy genus."""
    return lambda *args: monodromy_genus(build(*args))


def _enumeration_answer(n: int) -> dict:
    return enumeration_to_json_dict(n, enumerate_classes(n))


def _cross_check_answer(n_max: int) -> dict:
    return cross_check_to_json_dict(cross_check(n_max))


def _scenario_answer(family: str, n: int, k: int | None, b: int | None, count: int = 100) -> list:
    outcomes = run_scenario(build_scenario(family, n, k=k, b=b), count)
    return [[o.label, o.value, o.passed] for o in outcomes]


def _twistedz2(degrees):
    """(family, n, k, b) of twistedz2 at each degree n and each b with
    b^2 = 1 mod n, 2 <= b <= n - 2."""
    for n in degrees:
        for b in range(2, n - 1):
            if b * b % n == 1:
                yield "twistedz2", n, None, b


def _scenarios():
    """(family, n, k, b) of every scenario call of the first scenario
    section, in order."""
    for n in range(4, ENUMERATION_CAP + 1, 2):
        yield "accola-maclachlan", n, None, None
    yield from _twistedz2(n for n in range(5, ENUMERATION_CAP + 1) if n % 8)
    for k in range(2, ENUMERATION_CAP):
        n = 1 + k + k * k
        if n <= ENUMERATION_CAP:
            yield "periodthree", n, k, None


SPARSE_PRESENTATIONS = [
    "<a,b,c,d | a^4, a^4, b^6, [a,b], a*a^-1>",
    "<a,b,c | a^2, a^2, a^2>",
    "<a,b,c,d,e | [a,b], [c,d], a^6*b^4, b^4*a^6, e*e^-1>",
    "<x,y,z | x^12*y^8, x^12*y^8, y^-8*x^-12, [x,z]>",
    "<a,b | a*b*a^-1*b^-1, b*a*b^-1*a^-1>",
    "<a,b,c | (a*b)^3, (b*a)^3, c^5, c^-5>",
    '{"generators": 50, "relators": [[1,1],[1,1],[2,-2],[3,3,3]]}',
]


def _sparse_presentations(count: int, seed: int):
    """Seeded presentations on up to six generators, some in no relator,
    with up to six relators (short powers and commutators), some repeated."""
    rng = random.Random(seed)
    names = "abcdef"
    for _ in range(count):
        generators = names[: rng.randint(1, 6)]
        used = rng.sample(generators, rng.randint(1, len(generators)))
        relators = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.3:
                x, y = rng.choice(used), rng.choice(used)
                relators.append(f"[{x},{y}]")
            else:
                letters = [rng.choice(used) + rng.choice(("", "^-1")) for _ in range(rng.randint(1, 3))]
                word = "*".join(letters)
                relators.append(f"({word})^{rng.randint(1, 12)}")
        relators += rng.choices(relators, k=rng.randint(0, 2)) if relators else []
        rng.shuffle(relators)
        yield f"<{','.join(generators)} | {', '.join(relators)}>"


def _one_generator_powers(generators: int, powers: int) -> str:
    names = ",".join(f"g{i}" for i in range(1, generators + 1))
    return f"<{names} | {', '.join(f'g1^{k}' for k in range(1, powers + 1))}>"


def _wide(generators: int, relators) -> str:
    """The presentation on g1..g_generators with these relators."""
    names = ",".join(f"g{i}" for i in range(1, generators + 1))
    return f"<{names} | {', '.join(relators)}>"


def _distinct_powers(generators: int, top: int) -> str:
    """<g1..gN | g_i^j for 2 <= j <= top>: the trivial group, one distinct
    relation row per relator."""
    return _wide(generators, (f"g{i}^{j}" for i in range(1, generators + 1) for j in range(2, top + 1)))


def _square_chain(generators: int) -> str:
    """<g1..gN | g_i^2, g_i * g_(i+1)^-1>: the group of order 2."""
    squares = [f"g{i}^2" for i in range(1, generators + 1)]
    return _wide(generators, squares + [f"g{i}*g{i + 1}^-1" for i in range(1, generators)])


def _power_chain(generators: int) -> str:
    """<g1..gN | g_i^j for 2 <= j <= 21, g_i * g_(i+1)^-1>: the trivial group,
    whose chain relators join every generator into one block."""
    powers = [f"g{i}^{j}" for i in range(1, generators + 1) for j in range(2, 22)]
    return _wide(generators, powers + [f"g{i}*g{i + 1}^-1" for i in range(1, generators)])


# spherical, Euclidean and hyperbolic (l, m, n)
TRIANGLE_PERIODS = [
    (2, 2, 7), (2, 3, 4), (2, 3, 5), (2, 3, 6), (2, 4, 4), (3, 3, 3), (2, 3, 7), (3, 3, 4), (4, 8, 8)
]

# an extra relator, a duplicated one, a longer root and three generators
NEAR_MISS_TRIANGLES = [
    "<x,y | x^2, y^3, (x*y)^7, [x,y]^4>",
    "<x,y | x^2, y^3, (x*y)^7, x^2>",
    "<x,y | x^2, y^3, (x*y^2)^7>",
    "<x,y,z | x^2, y^3, z^7, x*y*z>",
]


def _triangle_forms(l: int, m: int, n: int):
    """<x,y | x^l, y^m, (x*y)^n> with each sign on each power and on each
    letter of the root, the root in either order."""
    for a, b, sl, sm, sn in product(("x", "x^-1"), ("y", "y^-1"), (1, -1), (1, -1), (1, -1)):
        for root in (f"{a}*{b}", f"{b}*{a}"):
            yield f"<x,y | x^{sl * l}, y^{sm * m}, ({root})^{sn * n}>"


# The section names: the first entry of each line.
SECTIONS = (
    "belyi", "lefschetz", "fermat", "extensions", "perm", "coset", "enumerate", "cross_check",
    "parse_curve", "parse_presentation", "scenario", "abelianization", "smith_normal_form",
    "monodromy_lefschetz", "monodromy_fermat", "monodromy_curve",
)

LEFSCHETZ_INPUTS = [
    (p, a) for p in [q for q in range(400) if is_prime(q)] + [4, 6, 9, 15, 21] for a in range(p + 1)
]
FERMAT_INPUTS = [(n, d) for n in range(70) for d in range(n + 2)]


def _calls(wanted=None):
    """(name, function, args) of every call, in output order; given a set of
    section names, the coset presentations are built only if a section
    that reads them is in it."""
    for n in range(4, ENUMERATION_CAP + 1):
        for triple, _ in belyi_verdicts(n):
            yield "belyi", _reported(classify_belyi), (n, *triple)
    for args in INVALID_BELYI:
        yield "belyi", _reported(classify_belyi), args
    for args in LEFSCHETZ_INPUTS:
        yield "lefschetz", _reported(classify_lefschetz), args
    for args in FERMAT_INPUTS:
        yield "fermat", _reported(classify_fermat), args
    for length, top in ((1, 64), (2, 64), (3, 64), (4, 40), (5, 14)):
        for periods in combinations_with_replacement(range(2, top + 1), length):
            yield "extensions", _extension_answer, periods
    for text, degree in _generator_sets(3000, seed=9):
        yield "perm", _perm_answer, (text, degree)
    for text in PERM_EXAMPLES:
        yield "perm", _perm_answer, (text, None)
    reads_cosets = wanted is None or {"coset", "abelianization"} & wanted
    coset_inputs = list(_coset_inputs()) if reads_cosets else []
    for args in coset_inputs:
        yield "coset", _coset_answer, args
    for n in range(4, ENUMERATION_CAP + 1):
        yield "enumerate", _enumeration_answer, (n,)
    yield "cross_check", _cross_check_answer, (ENUMERATION_CAP,)
    for text in CURVE_TEXTS:
        yield "parse_curve", _curve_answer, (text,)
    for text in PRESENTATION_TEXTS:
        yield "parse_presentation", _presentation_answer, (text,)
    for args in _scenarios():
        yield "scenario", _scenario_answer, args
    for text in dict.fromkeys(text for text, _ in coset_inputs):
        yield "abelianization", _abelianization_answer, (text,)
    for matrix in _snf_matrices(seed=18):
        yield "smith_normal_form", smith_normal_form, (matrix,)
    for args in LEFSCHETZ_INPUTS:
        yield "monodromy_lefschetz", _monodromy_answer(lefschetz_cover), args
    for args in FERMAT_INPUTS:
        yield "monodromy_fermat", _monodromy_answer(fermat_cover), args
    for text in CURVE_TEXTS:
        yield "monodromy_curve", _monodromy_answer(parse_curve), (text,)
    for args in _twistedz2(range(8, ENUMERATION_CAP + 1, 8)):
        yield "scenario", _scenario_answer, args
    sparse = SPARSE_PRESENTATIONS + list(_sparse_presentations(300, seed=20))
    for text in sparse:
        yield "abelianization", _abelianization_answer, (text,)
    for text in sparse:
        yield "coset", _coset_answer, (text, 1000)
    yield "abelianization", _abelianization_answer, (_one_generator_powers(512, 300),)
    for generators in (64, 256):
        yield "abelianization", _abelianization_answer, (_distinct_powers(generators, 21),)
    yield "coset", _coset_answer, (_wide(120, (f"g{i}^2" for i in range(1, 121))), 1_000_000)
    yield "coset", _coset_answer, (_square_chain(2000), 1_000_000)
    for generators in (64, 256):
        yield "abelianization", _abelianization_answer, (_power_chain(generators),)
    yield "parse_curve", _curve_answer, ("y^5 + x^3000000 = 1",)
    yield "fermat", _reported(classify_fermat), (10**6, 10**6)
    yield "monodromy_curve", _monodromy_answer(parse_curve), ("y^100000000000 = x(x-1)",)
    for p in (100000000000031, 10**20 + 39, MAX_PRIMALITY):
        yield "lefschetz", _reported(classify_lefschetz), (p, 2)
    yield "scenario", _scenario_answer, ("accola-maclachlan", 10**7, None, None)
    yield "scenario", _scenario_answer, ("accola-maclachlan", 4, None, None, 30_000_000)
    yield "scenario", _scenario_answer, ("twistedz2", 2 * 10**9, None, 10**9 + 1)
    for periods in TRIANGLE_PERIODS:
        for text in _triangle_forms(*periods):
            for budget in (1_000_000, 2000):
                yield "coset", _coset_answer, (text, budget)
    for text in NEAR_MISS_TRIANGLES:
        yield "coset", _coset_answer, (text, 2000)
    for n, budget in ((1000, 500), (1000, 1_000_000), (10000, 5000), (100000, 20000)):
        yield "coset", _coset_answer, (f"<a,b | (a*b)^{n}, b^2, a^2>", budget)
    yield "coset", _coset_answer, ("<a,b | a^200000, b^2, b*a*b*a>", 100_000)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Dump cyclicaut's answers, one JSON line per call.")
    parser.add_argument(
        "--section", action="append", choices=SECTIONS, metavar="NAME",
        help="write only this section's lines, in the usual order; repeatable; one of "
        + ", ".join(SECTIONS),
    )
    wanted = parser.parse_args(argv).section
    wanted = set(wanted) if wanted else None
    out = sys.stdout
    for name, fn, args in _calls(wanted):
        if wanted is not None and name not in wanted:
            continue
        answer = _answer(fn, *args)
        out.write(json.dumps([name, list(args), answer], separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
