"""The benchmark's workloads: seeded input decks, the timed call, and the checker.

Inputs come in decks.  Each deck holds a fixed number of jobs of each kind,
and each kind draws its size from equal strata of its range, so every deck
has the same mix and spread of sizes while the seed picks the exact inputs.
Runs stop at deck boundaries.  That keeps run-to-run spread low without
fixing the inputs.

A job's ``call`` looks every cyclicaut function up through its module at
call time, so the traced run sees the wrapped functions.  A job's ``check``
runs after the timed region and returns why the output is wrong, or None.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from math import factorial, gcd, isqrt, prod
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

import cyclicaut
from cyclicaut import classifier, cli, curve, grouptheory, verify
from cyclicaut.grouptheory import BudgetExceeded
from cyclicaut.numtheory import DomainError

import checks


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark mode."""

    classify_cap: int  # largest degree of classify requests
    fermat_cap: int  # largest degree of Fermat requests (the checker's monodromy is O(n d))
    report_cap: int  # largest degree behind certify's report presentations
    zmzm_cap: int  # largest m of Z_m x Z_m
    dihedral_cap: int  # largest n of the dihedral group of order 2n
    snf_rows: int  # largest dense Smith-normal-form matrix
    sweep_cap: int  # sweep enumerates every degree from 4 to this
    cross_check_n: int  # sweep's cross_check(N)
    probe_n: int  # degree of the traced run's one-shot classification probe
    trace_ops: int  # jobs replayed by the traced run (sweep replays one pass)


FULL = Sizes(10_000, 300, 100, 100, 1000, 24, 60, 24, 1_000_003, 600)
SMOKE = Sizes(40, 12, 16, 6, 12, 6, 8, 8, 1009, 40)

MAX_COSETS = 2000  # budget of the enumerations that must stop
SCENARIO_SAMPLES = 100


@dataclass
class Job:
    kind: str  # reported with each failure
    call: Callable[[], Any]
    expect: str = "result"  # "result", "DomainError" or "BudgetExceeded"
    check: Optional[Callable[[Any], Optional[str]]] = None
    work: int = 1  # units counted by throughput
    # False where the benchmark does not know the right answer, only that the
    # program should end in a passing result: a rejected output then counts as
    # failed, not as a wrong answer.
    known_answer: bool = True


@dataclass
class Record:
    kind: str
    work: int
    latency: float
    outcome: str
    value: Any
    job: Optional[Job]  # dropped once judged, so memory does not grow with jobs run
    failure: Optional[str] = None  # why the job failed, once judged
    wrong: bool = False  # the failure is a wrong answer, not an unexpected outcome
    paced: float = 0.0  # latency at the reference pace of pace.py, set by measure.py

    def judge(self) -> None:
        """Check the output against the job's expectation, then drop both."""
        job = self.job
        if self.outcome != job.expect:
            self.failure = f"ended in {self.outcome}, expected {job.expect}: {self.value}"
            # the program's own consistency assert fired: its answers disagree
            self.wrong = self.outcome == "AssertionError"
        elif job.check is not None:
            try:
                self.failure = job.check(self.value)
            except Exception as exc:  # malformed output the checker could not read
                self.failure = f"checker could not read the output: {type(exc).__name__}: {exc}"
            self.wrong = self.failure is not None and job.known_answer
        self.value = self.job = None


def attempt(job: Job) -> Record:
    """Run one job and time it; any exception is an outcome, not a crash."""
    start = perf_counter()
    try:
        value, outcome = job.call(), "result"
    except DomainError as exc:
        value, outcome = str(exc), "DomainError"
    except BudgetExceeded as exc:
        value, outcome = str(exc), "BudgetExceeded"
    except Exception as exc:  # the failure is counted and reported by name
        value, outcome = str(exc)[:200], type(exc).__name__
    return Record(job.kind, job.work, perf_counter() - start, outcome, value, job)


# ---------------------------------------------------------------------------
# Shared input helpers


def log_uniform(u: float, lo: int, hi: int) -> int:
    """The point at quantile u of a log-uniform law on [lo, hi], rounded."""
    return min(hi, max(lo, round(lo * (hi / lo) ** u)))


GOLDEN = (5**0.5 - 1) / 2


def build_deck(rng: random.Random, mix, sizes: Sizes, phase: float) -> list[Job]:
    """count jobs from each maker, one per equal stratum of [0, 1), shuffled.

    Within its stratum a job sits at ``phase``, shifted by a fixed step per
    maker.  Workload.decks advances the phase by the golden ratio from deck
    to deck, so the decks of a run cover each stratum evenly and the largest
    inputs of a run, which set its p99, do not hang on a few random draws."""
    deck = [
        make(rng, (i + (phase + k * GOLDEN**2) % 1) / count, sizes)
        for k, (count, make) in enumerate(mix)
        for i in range(count)
    ]
    rng.shuffle(deck)
    return deck


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _unit(rng: random.Random, n: int) -> int:
    while True:
        k = rng.randrange(1, n)
        if gcd(k, n) == 1:
            return k


def _triple(rng: random.Random, n: int) -> tuple[int, int, int]:
    """A random admissible triple: entries in [1, n-1], sum 0 mod n, gcd 1 with n."""
    while True:
        a, b = rng.randrange(1, n), rng.randrange(1, n)
        c = -(a + b) % n
        if c and gcd(gcd(n, a), gcd(b, c)) == 1:
            return a, b, c


def _power(base: str, k: int) -> str:
    return base if k == 1 else f"{base}^{k}"


# ---------------------------------------------------------------------------
# classify: in-process CLI requests


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.run with stdout and stderr captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def _report_problem(report: dict, monodromy: int, known: Optional[tuple[int, str]]) -> Optional[str]:
    if report["genus"] != monodromy:
        return f"genus {report['genus']} != monodromy genus {monodromy}"
    if report["genus"] >= 2:
        law = report["base_order"] * prod(step["index"] for step in report["chain"])
        if report["order"] != law:
            return f"order {report['order']} breaks the order law: base x chain = {law}"
    if known is not None and (report["order"], report["structure"]) != known:
        return f"got {report['order']} {report['structure']}, the paper has {known}"
    return None


def _belyi_check(rng: random.Random, n: int, exps: tuple[int, int, int]):
    unit, order = _unit(rng, n), rng.choice(checks.ORDERINGS)

    def check(value) -> Optional[str]:
        code, text = value
        if code != 0:
            return f"exit {code}"
        report = json.loads(text)
        known = checks.KNOWN_BELYI.get((n, checks.small_canonical(n, exps))) if n <= 24 else None
        problem = _report_problem(report, curve.monodromy_genus(curve.belyi_cover(n, *exps)), known)
        if problem:
            return problem
        twin = classifier.classify_belyi(n, *checks.rescaled(n, exps, unit, order))
        if (twin.row, twin.group.order) != (report["row"], report["order"]):
            return (
                f"rescaled by {unit} and permuted: row {twin.row} order {twin.group.order}, "
                f"not {report['row']} {report['order']}"
            )
        return None

    return check


def classify_triple(rng: random.Random, n: int, exps=None) -> Job:
    a, b, c = exps or _triple(rng, n)
    argv = ["classify", "--n", str(n), "--a", str(a), "--b", str(b), "--c", str(c), "--json"]
    return Job("classify_triple", lambda: run_cli(argv), check=_belyi_check(rng, n, (a, b, c)))


def classify_curve(rng: random.Random, n: int, exps=None) -> Job:
    a, b, c = exps or _triple(rng, n)
    if rng.random() < 0.5:
        text = f"y^{n} = {_power('x', a)}{_power('(x-1)', b)}{_power('(x+1)', c)}"
    else:  # c sits over infinity
        text = f"y^{n} = {_power('x', a)} {_power('(x-1)', b)}"
    argv = ["classify", "--curve", text, "--json"]
    return Job("classify_curve", lambda: run_cli(argv), check=_belyi_check(rng, n, (a, b, c)))


def lefschetz(rng: random.Random, p: int, a=None) -> Job:
    a = a or rng.randrange(1, p - 1)
    argv = ["lefschetz", "--p", str(p), "--a", str(a), "--json"]

    def check(value) -> Optional[str]:
        code, text = value
        if code != 0:
            return f"exit {code}"
        monodromy = curve.monodromy_genus(curve.lefschetz_cover(p, a))
        return _report_problem(json.loads(text), monodromy, checks.KNOWN_LEFSCHETZ.get((p, a)))

    return Job("lefschetz", lambda: run_cli(argv), check=check)


def _fermat_genus(n: int, d: int) -> int:
    return (2 - d - gcd(d, n) + (d - 1) * n) // 2


def fermat(rng: random.Random, n: int, d=None) -> Job:
    if d is None:
        divisors = [k for k in range(2, n) if n % k == 0]
        d = rng.choice([2, 3, n, rng.choice(divisors or [n]), rng.randint(2, n)])
        if d > n or _fermat_genus(n, d) < 2:
            d = n
    argv = ["fermat", "--n", str(n), "--d", str(d), "--json"]

    def check(value) -> Optional[str]:
        code, text = value
        if code != 0:
            return f"exit {code}"
        monodromy = curve.monodromy_genus(curve.fermat_cover(n, d))
        return _report_problem(json.loads(text), monodromy, checks.KNOWN_FERMAT.get((n, d)))

    return Job("fermat", lambda: run_cli(argv), check=check)


_GENUS_POINTS = (("x", 0), ("(x-1)", 1), ("(x+1)", -1), ("(x-2)", 2))


def genus_request(rng: random.Random, n: int) -> Job:
    count = rng.randint(2, len(_GENUS_POINTS))
    exps = [_unit(rng, n)] + [rng.randrange(1, n) for _ in range(count - 1)]
    text = f"y^{n} = " + "".join(_power(f, k) for (f, _), k in zip(_GENUS_POINTS, exps))
    argv = ["genus", "--curve", text, "--json"]

    def check(value) -> Optional[str]:
        code, text_out = value
        if code != 0:
            return f"exit {code}"
        out = json.loads(text_out)
        points = tuple((curve.BranchPoint.at(x), k) for (_, x), k in zip(_GENUS_POINTS, exps))
        cover = curve.CyclicCover(n, points, -sum(exps) % n)
        monodromy = curve.monodromy_genus(cover)
        periods = sorted(n // gcd(n, k) for k in cover.all_exponents())
        if (out["genus"], out["monodromy_genus"]) != (monodromy, monodromy):
            return f"genus {out['genus']}, monodromy {out['monodromy_genus']}, expected {monodromy}"
        if out["signature"] != [p for p in periods if p > 1]:
            return f"signature {out['signature']} != {periods}"
        return None

    return Job("genus", lambda: run_cli(argv), check=check)


def _paper_triple(rng: random.Random) -> tuple[int, tuple[int, int, int]]:
    """Row C.2 (n = 7) or B.3 (n = 8) of the paper, reached from a random equivalent triple."""
    n, exps = rng.choice(((7, (1, 2, 4)), (8, (1, 2, 5))))
    return n, checks.rescaled(n, exps, _unit(rng, n), rng.choice(checks.ORDERINGS))


def _invalid(rng: random.Random, u: float, sizes: Sizes) -> Job:
    """Inputs outside the domain; each must exit 1 with nothing on stdout."""
    pick = int(u * 4)
    n = log_uniform(rng.random(), 6, sizes.classify_cap)
    if pick == 0:  # reducible: every entry shares the factor 2 with n
        a, b, c = (2 * v for v in _triple(rng, n // 2))
        argv = ["classify", "--n", str(n // 2 * 2), "--a", str(a), "--b", str(b), "--c", str(c)]
    elif pick == 1:  # entries do not sum to 0 mod n
        a, b, c = _triple(rng, n)
        c = c % (n - 1) + 1
        argv = ["classify", "--n", str(n), "--a", str(a), "--b", str(b), "--c", str(c)]
    elif pick == 2:
        argv = ["classify", "--curve", rng.choice((
            f"y^{n} = x^2(x-1^3", f"y^{n} = x(x-1)^", f"y^{n} = x^2(y-1)^3", f"y^{n} == x",
        ))]
    else:  # Fermat curves of genus 0 and 1
        fn, fd = rng.choice(((2, 2), (3, 2), (4, 2), (3, 3)))
        argv = ["fermat", "--n", str(fn), "--d", str(fd)]
    argv.append("--json")

    def check(value) -> Optional[str]:
        code, text = value
        return None if code == 1 and not text else f"exit {code} with stdout {text[:80]!r}"

    return Job("invalid_input", lambda: run_cli(argv), check=check)


# The request mix is assumed, not measured: no usage data exists.  Each of the
# five commands gets the same share of a deck; one request of each command
# that has a paper answer asks for it.  The invalid inputs are one of each
# kind, about 4% of the requests.
COMMAND_SHARE = 20

CLASSIFY_MIX = (
    (COMMAND_SHARE - 1, lambda rng, u, s: classify_triple(rng, log_uniform(u, 4, s.classify_cap))),
    (1, lambda rng, u, s: classify_triple(rng, *_paper_triple(rng))),
    (COMMAND_SHARE - 1, lambda rng, u, s: classify_curve(rng, log_uniform(u, 4, s.classify_cap))),
    (1, lambda rng, u, s: classify_curve(rng, *_paper_triple(rng))),
    (COMMAND_SHARE - 1, lambda rng, u, s: lefschetz(rng, _next_prime(log_uniform(u, 5, s.classify_cap)))),
    (1, lambda rng, u, s: lefschetz(rng, 7, rng.choice((2, 4)))),
    (COMMAND_SHARE - 1, lambda rng, u, s: fermat(rng, log_uniform(u, 4, s.fermat_cap))),
    (1, lambda rng, u, s: fermat(rng, 4, 4)),
    (COMMAND_SHARE, lambda rng, u, s: genus_request(rng, log_uniform(u, 4, s.classify_cap))),
    (4, _invalid),
)


# ---------------------------------------------------------------------------
# certify: evidence jobs against the group engine and the numerical checks


def _enumeration(kind: str, text: str, order: int) -> Job:
    def call():
        return cyclicaut.coset_enumerate(cyclicaut.parse_presentation(text))

    return Job(kind, call, check=lambda got: None if got == order else f"order {got} != {order}")


_REPORT_FAMILIES = 7


def _report_presentation(rng: random.Random, u: float, sizes: Sizes) -> Job:
    """The presentation attached to a classification report; its coset order
    must be the order the classifier claims.  u picks the family (equal
    shares) and the degree within it; rows that ship no presentation fall
    back to the (1, 1, n-2) row."""
    family, within = divmod(u * _REPORT_FAMILIES, 1)
    n = log_uniform(within, 4, sizes.report_cap)
    report = None
    if family == 5:
        m = max(4, n // 3)
        d = rng.choice([2, 3, m, rng.randint(2, m)])
        if _fermat_genus(m, d) >= 2:
            report = classifier.classify_fermat(m, d)
    elif family == 6:
        p = _next_prime(max(5, n))
        twists = [k for k in range(2, p - 1) if (1 + k + k * k) % p == 0]
        report = classifier.classify_lefschetz(p, rng.choice(twists + [1, rng.randrange(1, p - 1)]))
    else:
        involutions = [k for k in range(2, n - 1) if k * k % n == 1]
        cube_roots = [k for k in range(2, n - 1) if (1 + k + k * k) % n == 0]
        a, b = (
            (1, 1),
            (1, rng.choice(involutions)) if involutions else _triple(rng, n)[:2],
            (1, n // 2 - 2) if n % 8 == 0 and n > 8 else _triple(rng, n)[:2],
            (1, rng.choice(cube_roots)) if cube_roots else _triple(rng, n)[:2],
            _triple(rng, n)[:2],
        )[int(family)]
        report = _belyi_report(rng, n, (a, b, -(a + b) % n))
    if report is None or report.group.presentation is None:
        report = _belyi_report(rng, n, (1, 1, n - 2))
    text = grouptheory.presentation_to_text(report.group.presentation)
    return _enumeration(f"report_{report.row}", text, report.group.order)


def _belyi_report(rng: random.Random, n: int, exps: tuple[int, int, int]):
    """The report of a random triple equivalent to exps."""
    exps = checks.rescaled(n, exps, _unit(rng, n), rng.choice(checks.ORDERINGS))
    return classifier.classify_belyi(n, *exps)


def _triangle(rng: random.Random, u: float, sizes: Sizes) -> Job:
    pick = int(u * 5)
    if pick < 3:
        k = 3 + pick
        return _enumeration("triangle", f"<x,y | x^2, y^3, (x*y)^{k}>", (12, 24, 60)[pick])
    if pick == 3:
        m = rng.randint(2, 60)
        return _enumeration("triangle", f"<x,y | x^2, y^2, (x*y)^{m}>", 2 * m)
    # the (2,3,7) quotient behind row C.2 and the Lefschetz curve y^7 = x^2 (x+1)
    if rng.random() < 0.5:
        exps = checks.rescaled(7, (1, 2, 4), _unit(rng, 7), rng.choice(checks.ORDERINGS))
        claim = classifier.classify_belyi(7, *exps).group.order
    else:
        claim = classifier.classify_lefschetz(7, rng.choice((2, 4))).group.order
    return _enumeration("triangle_psl27", "<x,y | x^2, y^3, (x*y)^7, [x,y]^4>", claim)


def _catalogue(rng: random.Random, u: float, sizes: Sizes) -> Job:
    """Half presentations attached to classification reports, half triangle-group quotients."""
    half, within = divmod(2 * u, 1)
    return (_report_presentation, _triangle)[int(half)](rng, within, sizes)


def _zmzm(m: int) -> Job:
    return _enumeration("zm_x_zm", f"<a,b | a^{m}, b^{m}, [a,b]>", m * m)


def _dihedral(n: int) -> Job:
    return _enumeration("dihedral", f"<u,v | u^2, v^{n}, (u*v)^2>", 2 * n)


def _large_enumeration(rng: random.Random, u: float, sizes: Sizes) -> Job:
    """Half Z_m x Z_m, half dihedral groups, sizes log-uniform over the decade below the cap."""
    half, within = divmod(2 * u, 1)
    if half == 0:
        return _zmzm(log_uniform(within, max(2, sizes.zmzm_cap // 10), sizes.zmzm_cap))
    return _dihedral(log_uniform(within, max(2, sizes.dihedral_cap // 10), sizes.dihedral_cap))


def _abelianization(rng: random.Random, u: float, sizes: Sizes) -> Job:
    """g relators with a dense nonsingular exponent matrix, plus all commutators:
    the invariant factors must chain and multiply to |det|."""
    g = 2 + int(u * 3)
    names = "abcd"[:g]
    while True:
        rows = [[rng.randint(-9, 9) for _ in range(g)] for _ in range(g)]
        det = checks.bareiss_det(rows)
        if det:
            break
    words = ["*".join(f"{names[j]}^{e}" for j, e in enumerate(row) if e) for row in rows]
    words += [f"[{x},{y}]" for i, x in enumerate(names) for y in names[i + 1 :]]
    text = f"<{','.join(names)} | {', '.join(words)}>"

    def check(inv) -> Optional[str]:
        if inv.free_rank:
            return f"free rank {inv.free_rank} for a nonsingular relation matrix"
        return checks.snf_problem(list(inv.factors), det)

    return Job(
        "abelianization",
        lambda: cyclicaut.abelianization(cyclicaut.parse_presentation(text)),
        check=check,
    )


def _invariant_factors(rng: random.Random, u: float, sizes: Sizes) -> Job:
    """Half abelianizations, half Smith normal forms of dense random matrices."""
    half, within = divmod(2 * u, 1)
    return (_abelianization, _smith)[int(half)](rng, within, sizes)


def _smith(rng: random.Random, u: float, sizes: Sizes) -> Job:
    size = 3 + int(u * (sizes.snf_rows - 2))
    matrix = [[rng.randint(-50, 50) for _ in range(size)] for _ in range(size)]
    return Job(
        "smith_normal_form",
        lambda: grouptheory.smith_normal_form(matrix),
        check=lambda diag: checks.snf_problem(diag, checks.bareiss_det(matrix)),
    )


_ORDER96 = "(1,4)(2,7)(3,10)(5,8)(6,11)(9,12);(1,10,9,5)(2,4,11,3,7,12,6,8);(1,2,3)(4,5,6)(7,8,9)(10,11,12)"
_S8 = "(1,2,3,4,5,6,7,8);(1,2)"


def _perm_order(rng: random.Random, u: float, sizes: Sizes) -> Job:
    """Half the order-96 group of row B.3, half S_8, with points relabelled at random."""
    text, degree, order = (_ORDER96, 12, 96) if u < 0.5 else (_S8, 8, factorial(8))
    label = list(range(1, degree + 1))
    rng.shuffle(label)
    relabelled = re.sub(r"\d+", lambda m: str(label[int(m.group()) - 1]), text)
    return Job(
        f"perm_order_{order}",
        lambda: cyclicaut.perm_order(cyclicaut.parse_permutations(relabelled)),
        check=lambda got: None if got == order else f"order {got} != {order}",
    )


def _periodthree_pairs(n_max: int) -> tuple[list, list]:
    """The (n, k) that pass periodthree's validation, 2 <= k <= n-2 and
    n | 1 + k + k^2, split into those with n = 1 + k + k^2 and the rest."""
    pairs = [
        (n, k) for n in range(4, n_max + 1) for k in range(2, n - 1) if (1 + k + k * k) % n == 0
    ]
    exact = [(n, k) for n, k in pairs if n == 1 + k + k * k]
    return exact, [pair for pair in pairs if pair not in exact]


PERIODTHREE_EXACT, PERIODTHREE_GENERAL = _periodthree_pairs(60)


def _scenario(rng: random.Random, u: float, sizes: Sizes) -> Job:
    """A numerical map check, a third from each family; periodthree takes
    n = 1 + k + k^2, where the map is known to exist."""
    family = int(3 * u)
    if family == 0:
        scenario = verify.build_scenario("accola-maclachlan", 2 * rng.randint(2, 30))
    elif family == 1:
        n, k = rng.choice(PERIODTHREE_EXACT)
        scenario = verify.build_scenario("periodthree", n, k=k)
    else:
        while True:
            n = rng.randint(5, 60)
            involutions = [b for b in range(2, n - 1) if b * b % n == 1]
            if n % 8 and involutions:
                break
        scenario = verify.build_scenario("twistedz2", n, b=rng.choice(involutions))
    return _scenario_job(rng, scenario)


def _scenario_job(rng: random.Random, scenario, known_answer: bool = True, kind: str = "") -> Job:
    seed = rng.randrange(1 << 16)

    def check(outcomes) -> Optional[str]:
        bad = [o.label for o in outcomes if not o.passed]
        return f"{scenario.family} n={scenario.cover.n} failed {bad}" if bad else None

    return Job(
        kind or f"scenario_{scenario.family}",
        lambda: cyclicaut.run_scenario(scenario, SCENARIO_SAMPLES, seed),
        check=check,
        known_answer=known_answer,
    )


def _budget_stop(rng: random.Random, u: float, sizes: Sizes) -> Job:
    """Infinite groups, half (2,3,7), half free groups, which must stop at the budget."""
    if u < 0.5:
        text = "<x,y | x^2, y^3, (x*y)^7>"
    else:
        text = f"<{','.join('abc'[: rng.randint(1, 3)])} | >"
    return Job(
        "budget_stop",
        lambda: cyclicaut.coset_enumerate(cyclicaut.parse_presentation(text), max_cosets=MAX_COSETS),
        expect="BudgetExceeded",
    )


# The job mix is assumed, not measured: each of the six kinds of evidence
# job gets the same share of a deck, and the inputs named within a kind
# share it equally.
KIND_SHARE = 12

CERTIFY_MIX = tuple(
    (KIND_SHARE, make)
    for make in (
        _catalogue,
        _large_enumeration,
        _invariant_factors,
        _perm_order,
        _scenario,
        _budget_stop,
    )
)


# ---------------------------------------------------------------------------
# certify's known-defect probes: untimed, run a fixed number of times per run


def _deep_nesting(rng: random.Random) -> Job:
    """About 2000 nested parentheses: must end in DomainError (ROADMAP known defect)."""
    depth = rng.randint(1900, 2100)
    text = "<a | " + "(" * depth + "a" + ")" * depth + ">"
    return Job("deep_nesting", lambda: cyclicaut.parse_presentation(text), expect="DomainError")


def _periodthree_general(rng: random.Random) -> Job:
    """periodthree on an (n, k) that passes its validation with n != 1 + k + k^2.
    run_scenario raises OverflowError there, or builds a map that fails its
    own checks (ROADMAP defect).  The benchmark does not know that the map
    exists there, so a failed check is not a wrong answer."""
    n, k = rng.choice(PERIODTHREE_GENERAL)
    scenario = verify.build_scenario("periodthree", n, k=k)
    return _scenario_job(rng, scenario, known_answer=False, kind="scenario_periodthree_general")


DEFECT_PROBES = 2  # jobs of each known-defect kind per certify run


def defect_probes(seed: int) -> list[Job]:
    """The inputs of certify that show a known defect.  A job that fails
    would make the count of failed jobs depend on how many jobs a run
    reaches, so these run a fixed number of times, outside the timed loop,
    and run.py reports each by name."""
    rng = random.Random(seed)
    return [make(rng) for make in (_deep_nesting, _periodthree_general) for _ in range(DEFECT_PROBES)]


# ---------------------------------------------------------------------------
# sweep: every degree up to the enumeration cap, plus cross_check(N)


def _class_problem(n: int, cls) -> Optional[str]:
    """Why one TripleClass disagrees with the independent computations, or None."""
    report, canonical = cls.report, cls.canonical
    if checks.small_canonical(n, canonical) != canonical:
        return f"canonical {canonical} is not the least of its orbit"
    size = checks.orbit_size(n, canonical)
    if cls.size != size:
        return f"class {canonical} has size {cls.size}, its orbit has {size} ordered triples"
    genus = checks.hurwitz_genus(n, canonical)
    if report.genus != genus:
        return f"class {canonical} has genus {report.genus}, Riemann-Hurwitz gives {genus}"
    if genus >= 2:
        law = report.base_order * prod(step.index for step in report.chain)
        if report.group.order != law:
            return f"class {canonical} has order {report.group.order}, base x chain = {law}"
    return None


def _enumerate(n: int) -> Job:
    count = checks.admissible_count(n)

    def check(classes) -> Optional[str]:
        for cls in classes:
            problem = _class_problem(n, cls)
            if problem:
                return f"n={n}: {problem}"
        covered = sum(c.size for c in classes)
        if covered != count:
            return f"n={n}: class sizes sum to {covered}, not {count}"
        return None

    return Job(
        f"enumerate_classes_n{n}", lambda: cyclicaut.enumerate_classes(n), check=check, work=count
    )


def _cross_check(n_max: int) -> Job:
    def check(report) -> Optional[str]:
        if report.n_max != n_max or not report.all_passed:
            return f"cross_check({n_max}) failed {[c.name for c in report.checks if not c.passed]}"
        return None

    work = sum(checks.admissible_count(n) for n in range(4, n_max + 1))
    return Job("cross_check", lambda: cyclicaut.cross_check(n_max), check=check, work=work)


def sweep_deck(rng: random.Random, sizes: Sizes, phase: float) -> list[Job]:
    """One pass: enumerate_classes(n) for each degree 4..cap, one job each,
    plus cross_check(N), in seeded order.  Short jobs let pace.py time the
    machine close to each of them; the longest, n = 60, takes about 0.6 s."""
    deck = [_enumerate(n) for n in range(4, sizes.sweep_cap + 1)]
    deck.append(_cross_check(sizes.cross_check_n))
    rng.shuffle(deck)
    return deck


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    deck: Callable[[random.Random, Sizes, float], list[Job]]
    warmup: Callable[[], Any]

    def decks(self, seed: int, sizes: Sizes) -> Iterator[list[Job]]:
        rng = random.Random(seed)
        phase = rng.random()
        while True:
            yield self.deck(rng, sizes, phase)
            phase = (phase + GOLDEN) % 1


WORKLOADS = {
    "classify": Workload(
        "classify",
        lambda rng, sizes, phase: build_deck(rng, CLASSIFY_MIX, sizes, phase),
        lambda: run_cli(["classify", "--n", "7", "--a", "1", "--b", "2", "--c", "4", "--json"]),
    ),
    "sweep": Workload("sweep", sweep_deck, lambda: cyclicaut.cross_check(5)),
    "certify": Workload(
        "certify",
        lambda rng, sizes, phase: build_deck(rng, CERTIFY_MIX, sizes, phase),
        lambda: cyclicaut.coset_enumerate(cyclicaut.parse_presentation("<x,y | x^2, y^3, (x*y)^3>")),
    ),
}
