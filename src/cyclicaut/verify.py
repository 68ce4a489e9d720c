"""Independent verification harnesses.

Two kinds of evidence live here.  Exact: the explicit coordinate maps (extra
involutions, order-3 and order-4 symmetries) are applied to sampled points of
the affine curves over a prime field, where curve preservation, exact order,
and the stated relations with the deck map are equalities.  Combinatorial:
the exhaustive triple enumeration groups equivalent covers into classes and
the cross-check driver replays every classifier invariant against the oracles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import Callable, Optional, Sequence

from .classifier import ClassificationReport, Verdict, belyi_verdicts, classify_belyi
from .curve import (
    MINUS_ONE,
    ONE,
    BranchPoint,
    CyclicCover,
    cycle_counts,
    parse_curve,
    require_irreducible,
    twice_monodromy_genus,
)
from .fuchsian import cb_extendable, harvey_admissible
from .numtheory import DomainError, factorize, is_prime

# The least m of a field size p = n m + 1.  A map that differs from its
# claim agrees with it at a random point with probability about deg / p.
FIELD_FLOOR = 1 << 20

Point = tuple[int, int]


# ---------------------------------------------------------------------------
# Prime fields


@dataclass(frozen=True)
class PrimeField:
    """F_p with p = n m + 1, gcd(m, n) = 1, and z of exact order L | p - 1.

    The units r with r^m = 1 are the n-th powers, each with the n-th root
    r^(n^-1 mod m); the roots of unity of order dividing L are the powers of z.
    """

    p: int
    order: int
    z: int

    def element(self, pt: BranchPoint) -> int:
        """The residue of an exact point label."""
        p, r = self.p, pt.rational
        if pt.root_order > 1:
            if self.order % pt.root_order:
                raise DomainError(f"F_{p} holds no primitive {pt.root_order}-th root of unity")
            return pow(self.z, self.order // pt.root_order * pt.root_index, p)
        if r.denominator % p == 0:
            raise DomainError(f"{r} has no residue mod {p}")
        return r.numerator * pow(r.denominator, -1, p) % p


@lru_cache(maxsize=256)
def cover_field(cover: CyclicCover) -> PrimeField:
    """The least prime p = n m + 1 with m >= FIELD_FLOOR, gcd(m, n) = 1 and
    L | p - 1, for L = lcm(n, 6, the orders of the cover's roots of unity),
    and z = g^((p-1)/L) for the least g >= 2 that makes it a primitive L-th
    root of unity.  zeta_n, j = zeta_3, the branch points and, for odd n,
    zeta_2n lie in the field."""
    n = cover.n
    order = lcm(n, 6, *(pt.root_order for pt, _ in cover.branches))
    if gcd(order // n, n) != 1:  # order | n m needs order // n | m
        raise DomainError(f"no prime p = {n} m + 1 with gcd(m, {n}) = 1 has {order} | p - 1")
    m = FIELD_FLOOR
    while n * m % order or gcd(m, n) != 1 or not is_prime(n * m + 1):
        m += 1
    p = n * m + 1
    for g in range(2, p):  # a generator of the units gives one
        z = pow(g, (p - 1) // order, p)
        if all(pow(z, order // q, p) != 1 for q, _ in factorize(order)):
            return PrimeField(p, order, z)


# ---------------------------------------------------------------------------
# Coordinate maps


@dataclass(frozen=True)
class ProductForm:
    """constant * x^xp * y^yp * prod (x - root)^exp, with exact constant and
    roots and integer exponents."""

    constant: BranchPoint
    x_power: int = 0
    y_power: int = 0
    factors: tuple[tuple[BranchPoint, int], ...] = ()

    def over(self, field: PrimeField) -> Callable[[int, int], int]:
        """This form as a function on F_p x F_p, compiled once by ``_parts``;
        pow raises ValueError at a pole."""
        p, parts = field.p, _parts((self,), field)

        def evaluate(x: int, y: int) -> int:
            num, den = parts(x, y)
            return num if den == 1 else num * pow(den, -1, p) % p

        return evaluate


def _parts(forms: Sequence[ProductForm], field: PrimeField) -> Callable[[int, int], list[int]]:
    """The forms over F_p compiled once into one function, which gives the
    numerator and the denominator of each form in turn at (x, y).

    Each constant is folded into its numerator; y^k and x^k are taken as the
    factors (y - 0)^k and (x - 0)^k; a factor with exponent 0 is dropped,
    one with exponent 1 multiplied in directly and any other raised to
    |exp| by one pow, into the denominator where exp < 0.  A form has a pole
    where its denominator is 0.  No two factors are merged, so the poles are
    those of the forms as written."""
    p, start, terms = field.p, [], []
    for i, form in enumerate(forms):
        start += [field.element(form.constant), 1]
        factors = [(True, 0, form.y_power), (False, 0, form.x_power)]
        factors += [(False, field.element(root), exp) for root, exp in form.factors]
        terms += [(on_y, root, abs(exp), 2 * i + (exp < 0)) for on_y, root, exp in factors if exp]

    def parts(x: int, y: int) -> list[int]:
        values = start.copy()
        for on_y, root, exp, at in terms:
            base = (y if on_y else x) - root
            values[at] = values[at] * (base if exp == 1 else pow(base, exp, p)) % p
        return values

    return parts


@dataclass(frozen=True)
class RationalMap:
    """A coordinate map (x, y) -> (x', y') with product-form components."""

    x_form: ProductForm
    y_form: ProductForm

    def over(self, field: PrimeField) -> Callable[[int, int], Point]:
        """This map as one function on F_p x F_p: both components compiled
        once by ``_parts`` and divided by one inverse of their denominators'
        product, so pow raises ValueError exactly at a pole of either."""
        p, parts = field.p, _parts((self.x_form, self.y_form), field)

        def image(x: int, y: int) -> Point:
            nx, dx, ny, dy = parts(x, y)
            if dx == dy == 1:
                return nx, ny
            inverse = pow(dx * dy, -1, p)
            return nx * dy * inverse % p, ny * dx * inverse % p

        return image


def deck_map(cover: CyclicCover, power: int = 1) -> RationalMap:
    """The generating deck transformation (x, y) -> (x, zeta_n y), or its
    power (x, zeta_n^power y), which is one map however large the power."""
    zeta = BranchPoint.root_of_unity(power, cover.n)
    return RationalMap(ProductForm(ONE, 1, 0), ProductForm(zeta, 0, 1))


def composite(maps: Sequence[RationalMap], field: PrimeField) -> Callable[[int, int], Point]:
    """The maps over F_p, applied left to right: the first entry acts first."""
    images = [m.over(field) for m in maps]

    def apply(x: int, y: int) -> Point:
        for image in images:
            x, y = image(x, y)
        return x, y

    return apply


# ---------------------------------------------------------------------------
# Map scenarios for the three families


@dataclass(frozen=True)
class MapScenario:
    """A curve, its named maps, the featured map's exact order, and relations.

    Each relation is (left pipeline, right pipeline, label); both pipelines
    are name sequences applied left to right and must agree on samples.
    """

    family: str
    cover: CyclicCover
    maps: dict
    featured: str
    order: int
    relations: tuple[tuple[tuple[str, ...], tuple[str, ...], str], ...]


def accola_maclachlan(n: int) -> MapScenario:
    """The order-4 symmetry u = (x / y^(n/2), zeta / y) of y^n = x^2 - 1,
    whose square is the half turn (-x, y)."""
    if n < 4 or n % 2:
        raise DomainError(f"this family needs an even degree >= 4, got {n}")
    cover = parse_curve(f"y^{n} = (x-1)(x+1)")
    zeta = BranchPoint.root_of_unity(1, n)
    u = RationalMap(ProductForm(ONE, 1, -(n // 2)), ProductForm(zeta, 0, -1))
    half_turn = RationalMap(ProductForm(MINUS_ONE, 1, 0), ProductForm(ONE, 0, 1))
    return MapScenario(
        "accola-maclachlan",
        cover,
        {"T": deck_map(cover), "u": u, "half_turn": half_turn},
        "u",
        4,
        ((("u", "u"), ("half_turn",), "u^2 = (-x, y)"),),
    )


def periodthree(n: int, k: int) -> MapScenario:
    """The order-3 symmetry S = (j x, j^(alpha-q) y^k (x - j^2)^-beta (x - j)^-q) of
    y^n = (x-1) (x-j)^k (x-j^2)^r, where j = exp(2 pi i / 3), k^2 = q n + r with
    0 <= r < n, alpha = (1 + k + k^2)/n and beta = (k r - 1)/n.

    x -> j x carries the right-hand side to j^(1+k+r) (x-j^2) (x-1)^k (x-j)^r,
    and the n-th power of the y-component matches it exactly when n | 1 + k + k^2.
    When n = 1 + k + k^2, q = 0 and the (x - j) factor drops out.
    """
    if n < 4:
        raise DomainError(f"cover degree must be >= 4, got {n}")
    if not 2 <= k <= n - 2 or (1 + k + k * k) % n:
        raise DomainError(f"need 1 + k + k^2 = 0 mod {n}, got k={k}")
    alpha = (1 + k + k * k) // n
    q, r = divmod(k * k, n)
    beta = (k * r - 1) // n
    j, j2 = BranchPoint.root_of_unity(1, 3), BranchPoint.root_of_unity(2, 3)
    cover = CyclicCover(n, ((ONE, 1), (j, k), (j2, r)), 0)
    factors = ((j2, -beta),) + (((j, -q),) if q else ())
    c = BranchPoint.root_of_unity(alpha - q, 3)
    s = RationalMap(ProductForm(j, 1, 0), ProductForm(c, 0, k, factors))
    return MapScenario(
        "periodthree",
        cover,
        {"T": deck_map(cover), f"T^{k}": deck_map(cover, k), "S": s},
        "S",
        3,
        ((("T", "S"), ("S", f"T^{k}"), f"S.T = T^{k}.S"),),
    )


def twistedz2(n: int, b: int) -> MapScenario:
    """The involution u = (-x, eta y^b (x+1)^-beta) of y^n = (x+1)^b (x-1), for
    b^2 = 1 mod n, 2 <= b <= n-2 and beta = (b^2 - 1)/n, with
    eta = exp(i pi t / n) for the least t in [0, 2n) that solves the sign
    conditions t = b + 1 mod 2 and t (b + 1) = beta n mod 2n.

    t = b - 1 solves both, as (b - 1)(b + 1) = beta n, so the solutions of
    the second are t = b - 1 mod M for M = 2n / gcd(b + 1, 2n), and the
    least is (b - 1) mod M.  It has the parity of b + 1 too.  For even M
    every solution has it.  An odd M is n' / gcd(b + 1, n') for the odd
    part n' of n; n' divides (b - 1)(b + 1) and no odd prime divides both,
    so M divides b - 1 and the least is 0.
    """
    if not 2 <= b <= n - 2 or (b * b - 1) % n:
        raise DomainError(f"need b^2 = 1 mod {n} with 2 <= b <= {n - 2}, got b={b}")
    beta = (b * b - 1) // n
    t = (b - 1) % (2 * n // gcd(b + 1, 2 * n))
    eta = BranchPoint.root_of_unity(t, 2 * n)
    cover = parse_curve(f"y^{n} = (x+1)^{b}(x-1)")
    u = RationalMap(ProductForm(MINUS_ONE, 1, 0), ProductForm(eta, 0, b, ((MINUS_ONE, -beta),)))
    return MapScenario(
        "twistedz2",
        cover,
        {"T": deck_map(cover), f"T^{b}": deck_map(cover, b), "u": u},
        "u",
        2,
        ((("u", "T", "u"), (f"T^{b}",), f"u.T.u = T^{b}"),),
    )


# The map families by name: each one's builder, and the keyword and the
# name of the parameter it takes besides n, if any.
FAMILIES = {
    "accola-maclachlan": (accola_maclachlan, None, ""),
    "periodthree": (periodthree, "k", "twist exponent"),
    "twistedz2": (twistedz2, "b", "involutory exponent"),
}


def build_scenario(family: str, n: int, k: Optional[int] = None, b: Optional[int] = None) -> MapScenario:
    """The named family's scenario at degree n, given the one parameter, k or
    b, the family takes; a parameter it does not take is refused."""
    if family not in FAMILIES:
        raise DomainError(f"unknown map family {family!r}")
    build, param, words = FAMILIES[family]
    values = {"k": k, "b": b}
    for name, given in values.items():
        if given is not None and name != param:
            raise DomainError(f"{family} takes no parameter {name}")
    value = values.get(param)
    if param and value is None:
        raise DomainError(f"{family} needs the {words} {param}")
    return build(n, value) if param else build(n)


# ---------------------------------------------------------------------------
# Sampling and exact checks


def curve_rhs(cover: CyclicCover) -> ProductForm:
    """The right-hand side f(x) of y^n = f(x), as a form in x."""
    return ProductForm(BranchPoint.at(cover.constant), factors=cover.branches)


# Most draws of x that sample_curve may expect to make.  At this bound
# verify-action takes seconds for accola-maclachlan at n = 4 with 2^17
# samples, and for twistedz2 at n = 32760 with 100 (how many, by seed), most
# of it drawing the samples.
MAX_SAMPLE_DRAWS = 2**17


def sample_curve(cover: CyclicCover, count: int, seed: int = 0) -> tuple[Point, ...]:
    """``count`` points of y^n = f(x) over the cover's prime field, fixed by
    the seed.  Each x is drawn off the branch values with f(x)^m = 1 (about
    one draw in n), so f(x) has the n-th root y = f(x)^(n^-1 mod m); up to
    max(1, count // 4) of its deck translates (x, zeta_n^s y) are taken, s in
    seeded order, so the sample holds at least min(count, 4) distinct x.  The
    cover must be irreducible with branch points distinct mod p, or such x
    need not exist.  A sample that expects more than MAX_SAMPLE_DRAWS draws,
    n for each x it keeps, is refused before the first; since at most n
    points share an x, that also bounds ``count``."""
    if count < 1:
        raise DomainError(f"sample count must be positive, got {count}")
    n = cover.n
    per_x = min(n, max(1, count // 4))
    draws = n * ((count + per_x - 1) // per_x)
    if draws > MAX_SAMPLE_DRAWS:
        raise DomainError(
            f"{count} samples of a degree-{n} cover expect {draws} draws, above {MAX_SAMPLE_DRAWS}"
        )
    require_irreducible(cover)
    field = cover_field(cover)
    if len({field.element(pt) for pt, _ in cover.branches}) < len(cover.branches):
        raise DomainError(f"two branch points meet mod {field.p}")
    p, m = field.p, (field.p - 1) // n
    f = curve_rhs(cover).over(field)
    root, zeta = pow(n, -1, m), field.element(BranchPoint.root_of_unity(1, n))
    rng = random.Random(seed)
    drawn = set()
    points: list[Point] = []
    while len(points) < count:
        x = rng.randrange(p)
        fx = f(x, 0)
        if fx == 0 or x in drawn or pow(fx, m, p) != 1:
            continue
        drawn.add(x)
        y = pow(fx, root, p)
        for s in rng.sample(range(n), min(per_x, count - len(points))):
            points.append((x, y * pow(zeta, s, p) % p))
    return tuple(points)


class MapProgram:
    """The exact map checks on one cover, run sample by sample.

    Each pipeline prefix the checks name is a slot: slot 0 is the sample
    itself and every other slot is one map applied to its parent slot, so a
    prefix that several checks share, such as u in u, u^2, ..., is one slot.
    Each map is compiled once for the cover's field.  ``run`` walks the
    slots once per sample, so each map image is computed once per sample,
    and then reads each test at that sample from the slots.  A pole
    (pow's ValueError) voids its slot and every slot derived from it, and
    fails exactly the tests that read a void slot.

    The check methods add their tests and return the verdict as a function
    of ``run``'s result; a verdict holds as the check would on its own.
    """

    def __init__(self, cover: CyclicCover) -> None:
        self.cover = cover
        self._steps: list[tuple[int, Callable[[int, int], Point]]] = []  # slot i + 1
        self._slots: dict[tuple[int, int], int] = {}  # (parent slot, map id) -> slot
        # each map's image function by its id; the entry keeps the map, so the id stays its own
        self._images: dict[int, tuple[RationalMap, Callable[[int, int], Point]]] = {}
        # (slot, None): the slot lies on the curve; (slot, other): the two agree
        self._tests: list[tuple[int, Optional[int]]] = []

    @cached_property
    def field(self) -> PrimeField:
        return cover_field(self.cover)

    def _slot(self, pipeline: Sequence[RationalMap], start: int = 0) -> int:
        """The slot of the pipeline, applied left to right after ``start``."""
        slot = start
        for rmap in pipeline:
            if id(rmap) not in self._images:
                self._images[id(rmap)] = (rmap, rmap.over(self.field))
            key = (slot, id(rmap))
            if key not in self._slots:
                self._steps.append((slot, self._images[id(rmap)][1]))
                self._slots[key] = len(self._steps)
            slot = self._slots[key]
        return slot

    def _test(self, slot: int, other: Optional[int] = None) -> int:
        self._tests.append((slot, other))
        return len(self._tests) - 1

    def on_curve(self, maps: Sequence[RationalMap] = ()) -> Callable[[list[bool]], bool]:
        """The maps, applied left to right, carry every sample onto the curve."""
        test = self._test(self._slot(maps))
        return lambda holds: holds[test]

    def order(self, rmap: RationalMap, k: int) -> Callable[[list[bool]], bool]:
        """The k-th iterate is the identity on every sample and no smaller
        positive iterate is."""
        if k < 1:
            raise DomainError(f"claimed order must be positive, got {k}")
        slot, tests = 0, []
        for _ in range(k):
            slot = self._slot((rmap,), slot)
            tests.append(self._test(slot, 0))
        return lambda holds: holds[tests[-1]] and not any(holds[t] for t in tests[:-1])

    def relation(
        self, left: Sequence[RationalMap], right: Sequence[RationalMap]
    ) -> Callable[[list[bool]], bool]:
        """The two pipelines agree at every sample."""
        test = self._test(self._slot(left), self._slot(right))
        return lambda holds: holds[test]

    def run(self, samples: Sequence[Point]) -> list[bool]:
        """Whether each test holds at every sample."""
        f, n, p = curve_rhs(self.cover).over(self.field), self.cover.n, self.field.p
        steps, tests = self._steps, self._tests
        holds = [True] * len(tests)
        for x, y in samples:
            images = [(x, y)]
            for parent, image in steps:
                source = images[parent]
                if source is not None:
                    try:
                        source = image(*source)
                    except ValueError:
                        source = None
                images.append(source)
            for t, (slot, other) in enumerate(tests):
                if holds[t]:
                    value = images[slot]
                    if value is None:
                        holds[t] = False
                    elif other is None:
                        # the curve's exponents are positive: f has no pole
                        holds[t] = pow(value[1], n, p) == f(value[0], 0)
                    else:
                        holds[t] = value == images[other]
        return holds


def on_curve(cover: CyclicCover, samples: Sequence[Point], maps: Sequence[RationalMap] = ()) -> bool:
    """True iff the maps, applied left to right, carry every sample to a point
    of y^n = f(x); with no maps, iff every sample lies on the curve."""
    program = MapProgram(cover)
    verdict = program.on_curve(maps)
    return verdict(program.run(samples))


def verify_map_order(cover: CyclicCover, rmap: RationalMap, k: int, samples: Sequence[Point]) -> bool:
    """True iff the k-fold composite is the identity on all samples and no
    smaller positive iterate is."""
    program = MapProgram(cover)
    verdict = program.order(rmap, k)
    return verdict(program.run(samples))


def verify_relation(
    cover: CyclicCover, left: Sequence[RationalMap], right: Sequence[RationalMap], samples: Sequence[Point]
) -> bool:
    """True iff the two pipelines agree at every sample."""
    program = MapProgram(cover)
    verdict = program.relation(left, right)
    return verdict(program.run(samples))


@dataclass(frozen=True)
class ScenarioOutcome:
    label: str
    value: int  # the number of points checked
    passed: bool


def run_scenario(scenario: MapScenario, count: int = 100, seed: int = 0) -> list[ScenarioOutcome]:
    """Curve, preservation, order and relation checks for one scenario at one
    seed, each an equality in the cover's prime field at every sample; one
    ``MapProgram`` runs them all, so each sample walks each map prefix once."""
    cover, maps, name = scenario.cover, scenario.maps, scenario.featured
    samples = sample_curve(cover, count, seed)
    program = MapProgram(cover)
    checks = [
        ("on_curve_samples", program.on_curve()),
        (f"preserves_curve[{name}]", program.on_curve([maps[name]])),
        (f"order[{name}]={scenario.order}", program.order(maps[name], scenario.order)),
    ] + [
        (label, program.relation([maps[m] for m in left], [maps[m] for m in right]))
        for left, right, label in scenario.relations
    ]
    holds = program.run(samples)
    return [ScenarioOutcome(label, len(samples), verdict(holds)) for label, verdict in checks]


# ---------------------------------------------------------------------------
# Exhaustive enumeration


@dataclass(frozen=True)
class TripleClass:
    """One equivalence class of admissible triples at a fixed degree."""

    canonical: tuple[int, int, int]
    size: int
    report: ClassificationReport


ENUMERATION_CAP = 60


Triple = tuple[int, int, int]


def _require_degree(n: int, needs: str) -> None:
    """The sweeps' degree range, 4 to ENUMERATION_CAP; ``needs`` opens the
    error text for a degree below it."""
    if n < 4:
        raise DomainError(f"{needs} >= 4, got {n}")
    if n > ENUMERATION_CAP:
        raise DomainError(f"degree {n} above enumeration cap {ENUMERATION_CAP}")


def _walk_orbits(
    n: int, on_triple: Optional[Callable[[Triple, Verdict], None]] = None
) -> tuple[list[TripleClass], Optional[tuple[Triple, Triple]]]:
    """Take the verdict of every admissible ordered triple of degree n once,
    bucketed by its canonical triple.

    The triples and their verdicts come from ``belyi_verdicts``, which
    tables gcd(n, k), k^-1 mod n and the low of each lead once for the
    degree, and within the walk takes one verdict per key (the unsorted
    lows of a triple's entries, see ``classifier._key_verdict``) from that
    key's first triple.  A member shares a verdict only with the members of
    equal lows, and a member without a unit entry gets its own from
    ``canonical_triple``, so a member whose key's verdict differs from its
    class's first is caught.

    Returns the classes in canonical order, each with the report on its
    first member (one ``classify_belyi`` call per class), and the first
    (triple, canonical triple) whose verdict differs from its class's first
    verdict, or None.  ``on_triple``, when given, sees each (triple,
    verdict) in walk order.
    """
    firsts: dict[Triple, tuple[Triple, Verdict]] = {}
    sizes: dict[Triple, int] = {}
    stray = None
    for triple, verdict in belyi_verdicts(n):
        if on_triple is not None:
            on_triple(triple, verdict)
        canon = verdict.canonical
        first = firsts.get(canon)
        if first is None:
            firsts[canon] = (triple, verdict)
            sizes[canon] = 1
            continue
        sizes[canon] += 1
        if stray is None and verdict != first[1]:
            stray = (triple, canon)
    classes = [
        TripleClass(canon, sizes[canon], classify_belyi(n, *firsts[canon][0]))
        for canon in sorted(firsts)
    ]
    return classes, stray


def enumerate_classes(n: int) -> list[TripleClass]:
    """All equivalence classes of admissible triples at degree n, each with its
    ordered-triple orbit size and classification; asserts every orbit member
    classifies identically to the representative."""
    _require_degree(n, "enumeration needs degree")
    classes, stray = _walk_orbits(n)
    assert stray is None, f"orbit member {stray[0]} disagrees with class {stray[1]} at degree {n}"
    return classes


def enumeration_to_json_dict(n: int, classes: Sequence[TripleClass]) -> dict:
    return {
        "n": n,
        "count": len(classes),
        "classes": [
            {
                "canonical": list(c.canonical),
                "size": c.size,
                "row": c.report.row,
                "genus": c.report.genus,
                "order": c.report.group.order,
                "structure": c.report.group.structure,
            }
            for c in classes
        ],
    }


# ---------------------------------------------------------------------------
# Cross-check driver


@dataclass(frozen=True)
class CheckResult:
    name: str
    n_range: tuple[int, int]
    passed: bool
    witness: Optional[dict] = None


@dataclass(frozen=True)
class CrossCheckReport:
    n_max: int
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


# The invariants cross_check replays, in the order it reports them.
CROSS_CHECKS = (
    "genus_matches_monodromy",
    "equivalence_invariance",
    "order_law",
    "hurwitz_bound",
    "harvey_condition",
    "default_not_extendable",
)


def cross_check(n_max: int) -> CrossCheckReport:
    """Replay the classifier over every admissible triple with n <= n_max
    (at most ``ENUMERATION_CAP``) and test each invariant against an
    independent oracle.

    The monodromy genus of each triple is read from the cycle counts of the
    translations s -> s + k (``curve.cycle_counts``), counted once per
    (n, k), so a degree costs n counts of O(log n) n-bit rotations each
    rather than three for each of its triples.
    """
    _require_degree(n_max, "cross-check needs n_max")
    failures: dict[str, dict] = {}

    def fail(name: str, witness: dict) -> None:
        failures.setdefault(name, witness)

    for n in range(4, n_max + 1):
        cycles = cycle_counts(n)

        def check_genus(triple: Triple, verdict: Verdict) -> None:
            # a Belyi cover is unbranched over infinity: its exponents are the triple
            twice = twice_monodromy_genus(n, cycles, triple)
            if twice != 2 * verdict.genus:
                # an odd Euler characteristic reads as a half-integer genus
                monodromy = twice // 2 if twice % 2 == 0 else f"{twice}/2"
                fail(
                    "genus_matches_monodromy",
                    {"n": n, "triple": list(triple), "formula": verdict.genus,
                     "monodromy": monodromy},
                )

        classes, stray = _walk_orbits(n, check_genus)
        if stray is not None:
            triple, canon = stray
            fail("equivalence_invariance", {"n": n, "triple": list(triple), "canonical": list(canon)})
        for c in classes:
            r = c.report
            witness = {"n": n, "triple": list(c.canonical), "row": r.row, "order": r.group.order}
            if not harvey_admissible(r.signature, n):
                fail("harvey_condition", witness)
            if r.genus < 2:
                continue
            if r.group.order != r.base_order * prod(step.index for step in r.chain):
                fail("order_law", witness)
            bound = 84 * (r.genus - 1)
            if r.group.order > bound or (r.group.order == bound and r.row != "C.2"):
                fail("hurwitz_bound", witness)
            if r.row == "DEFAULT" and cb_extendable(r.cover):
                fail("default_not_extendable", witness)

    checks = tuple(
        CheckResult(name, (4, n_max), name not in failures, failures.get(name))
        for name in CROSS_CHECKS
    )
    return CrossCheckReport(n_max, checks)


def check_enumeration(payload: dict) -> CheckResult:
    """Re-derive an emitted enumeration and compare; for piped verification."""
    try:
        n = payload["n"]
        listed = payload["classes"]
    except (KeyError, TypeError):
        raise DomainError("enumeration payload needs keys 'n' and 'classes'")
    if type(n) is not int:  # a JSON integer; bool is a subclass of int
        raise DomainError("enumeration payload 'n' must be a JSON integer")
    derived = enumeration_to_json_dict(n, enumerate_classes(n))["classes"]
    if listed == derived:
        return CheckResult("enumeration_consistent", (n, n), True)
    return CheckResult(
        "enumeration_consistent",
        (n, n),
        False,
        {"n": n, "expected": derived, "got": listed},
    )


def check_to_json_dict(check: CheckResult) -> dict:
    entry: dict = {"name": check.name, "n_range": list(check.n_range), "pass": check.passed}
    if check.witness is not None:
        entry["witness"] = check.witness
    return entry


def cross_check_to_json_dict(report: CrossCheckReport) -> dict:
    return {"n_max": report.n_max, "checks": [check_to_json_dict(c) for c in report.checks]}
