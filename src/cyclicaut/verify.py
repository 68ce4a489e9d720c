"""Independent verification harnesses.

Two kinds of evidence live here.  Numerical: the explicit coordinate maps
(extra involutions, order-3 and order-4 symmetries) are applied to sampled
points of the affine curves and checked for curve preservation, exact order,
and the stated commutation relations with the deck map.  Combinatorial: the
exhaustive triple enumeration groups equivalent covers into classes and the
cross-check driver replays every classifier invariant against the oracles.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Optional, Sequence

from .classifier import ClassificationReport, classify_belyi
from .curve import (
    BranchPoint,
    CyclicCover,
    genus,
    monodromy_genus,
    parse_curve,
    signature_of,
)
from .fuchsian import cb_extendable, harvey_admissible, skep_of_cover
from .numtheory import DomainError

TOLERANCE = 1e-8
_POLE_EPS = 1e-12


# ---------------------------------------------------------------------------
# Coordinate maps


@dataclass(frozen=True)
class ProductForm:
    """constant * x^xp * y^yp * prod (x - root)^exp, with integer exponents."""

    constant: complex
    x_power: int = 0
    y_power: int = 0
    factors: tuple[tuple[complex, int], ...] = ()

    def evaluate(self, x: complex, y: complex) -> complex:
        value = complex(self.constant)
        for base, exp in ((x, self.x_power), (y, self.y_power)):
            if exp:
                if exp < 0 and abs(base) < _POLE_EPS:
                    raise _PoleHit()
                value *= base ** exp
        for root, exp in self.factors:
            base = x - root
            if exp < 0 and abs(base) < _POLE_EPS:
                raise _PoleHit()
            value *= base ** exp
        return value


class _PoleHit(Exception):
    pass


@dataclass(frozen=True)
class RationalMap:
    """A coordinate map (x, y) -> (x', y') with product-form components."""

    name: str
    x_form: ProductForm
    y_form: ProductForm

    def apply(self, x: complex, y: complex) -> tuple[complex, complex]:
        return self.x_form.evaluate(x, y), self.y_form.evaluate(x, y)


def deck_map(cover: CyclicCover) -> RationalMap:
    """The generating deck transformation (x, y) -> (x, zeta_n y)."""
    zeta = cmath.exp(2j * cmath.pi / cover.n)
    return RationalMap("T", ProductForm(1, 1, 0), ProductForm(zeta, 0, 1))


def half_turn_map() -> RationalMap:
    """(x, y) -> (-x, y)."""
    return RationalMap("half_turn", ProductForm(-1, 1, 0), ProductForm(1, 0, 1))


def apply_sequence(
    maps: Sequence[RationalMap], x: complex, y: complex
) -> tuple[complex, complex]:
    """Apply maps left to right: the first entry acts first."""
    for m in maps:
        x, y = m.apply(x, y)
    return x, y


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
    """The order-4 symmetry u = (x / y^(n/2), zeta / y) of y^n = x^2 - 1."""
    if n < 4 or n % 2:
        raise DomainError(f"this family needs an even degree >= 4, got {n}")
    cover = parse_curve(f"y^{n} = (x-1)(x+1)")
    zeta = cmath.exp(2j * cmath.pi / n)
    u = RationalMap("u", ProductForm(1, 1, -(n // 2)), ProductForm(zeta, 0, -1))
    return MapScenario(
        "accola-maclachlan",
        cover,
        {"T": deck_map(cover), "u": u, "half_turn": half_turn_map()},
        "u",
        4,
        ((("u", "u"), ("half_turn",), "u^2 = (-x, y)"),),
    )


def periodthree(n: int, k: int) -> MapScenario:
    """The order-3 symmetry S = (j x, j^alpha y^k (x - j^2)^-beta) of
    y^n = (x-1) (x-j)^k (x-j^2)^(k^2 mod n), where j = exp(2 pi i / 3)."""
    if n < 4:
        raise DomainError(f"cover degree must be >= 4, got {n}")
    if not 2 <= k <= n - 2 or (1 + k + k * k) % n:
        raise DomainError(f"need 1 + k + k^2 = 0 mod {n}, got k={k}")
    alpha = (1 + k + k * k) // n
    beta = (k ** 3 - 1) // n
    pts = [
        (BranchPoint.root_of_unity(0, 3), 1),
        (BranchPoint.root_of_unity(1, 3), k),
        (BranchPoint.root_of_unity(2, 3), k * k % n),
    ]
    cover = CyclicCover(n, tuple(pts), 0)
    j = cmath.exp(2j * cmath.pi / 3)
    s = RationalMap(
        "S", ProductForm(j, 1, 0), ProductForm(j ** alpha, 0, k, ((j * j, -beta),))
    )
    return MapScenario(
        "periodthree",
        cover,
        {"T": deck_map(cover), "S": s},
        "S",
        3,
        ((("T", "S"), ("S",) + ("T",) * k, f"S.T = T^{k}.S"),),
    )


def _twisted_beta(n: int, b: int) -> int:
    if not 2 <= b <= n - 2 or (b * b - 1) % n:
        raise DomainError(f"need b^2 = 1 mod {n} with 2 <= b <= {n - 2}, got b={b}")
    return (b * b - 1) // n


def _twisted_involution(n: int, b: int, phases: Iterable[int], family: str) -> MapScenario:
    """The involution u = (-x, eta y^b (x+1)^-beta) of y^n = (x+1)^b (x-1), with
    eta = exp(i pi t / n) for the first t in phases that solves the sign conditions."""
    beta = _twisted_beta(n, b)
    for t in phases:
        if (t - (b + 1)) % 2 == 0 and (t * (1 + b) - beta * n) % (2 * n) == 0:
            break
    else:
        raise DomainError(f"no phase solution for n={n}, b={b}")
    eta = cmath.exp(1j * cmath.pi * t / n)
    cover = parse_curve(f"y^{n} = (x+1)^{b}(x-1)")
    u = RationalMap("u", ProductForm(-1, 1, 0), ProductForm(eta, 0, b, ((-1 + 0j, -beta),)))
    return MapScenario(
        family,
        cover,
        {"T": deck_map(cover), "u": u},
        "u",
        2,
        ((("u", "T", "u"), ("T",) * b, f"u.T.u = T^{b}"),),
    )


def twistedz2(n: int, b: int) -> MapScenario:
    """The involution u = (-x, (-1)^l y^b (x+1)^-beta) of y^n = (x+1)^b (x-1),
    defined when n is not a multiple of 8: the phases t = l n, l in {0, 1}."""
    if n % 8 == 0:
        raise DomainError(f"this construction needs n not divisible by 8, got {n}")
    return _twisted_involution(n, b, (0, n), "twistedz2")


def twisted_involution_general(n: int, b: int) -> MapScenario:
    """Involution with sign eta = exp(i pi t / n): works for every admissible b,
    including degrees where the plain +-1 sign fails."""
    return _twisted_involution(n, b, range(2 * n), "twisted-general")


def build_scenario(family: str, n: int, k: Optional[int] = None, b: Optional[int] = None) -> MapScenario:
    if family == "accola-maclachlan":
        return accola_maclachlan(n)
    if family == "periodthree":
        if k is None:
            raise DomainError("periodthree needs the twist exponent k")
        return periodthree(n, k)
    if family == "twistedz2":
        if b is None:
            raise DomainError("twistedz2 needs the involutory exponent b")
        return twistedz2(n, b)
    raise DomainError(f"unknown map family {family!r}")


# ---------------------------------------------------------------------------
# Sampling


@dataclass(frozen=True)
class CurveSample:
    """Points (x, y) lying on the affine curve to working precision."""

    points: tuple[tuple[complex, complex], ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def curve_rhs(cover: CyclicCover, x: complex) -> complex:
    value = complex(cover.constant)
    for pt, k in cover.branches:
        value *= (x - pt.value()) ** k
    return value


def on_curve_residual(cover: CyclicCover, x: complex, y: complex) -> float:
    rhs = curve_rhs(cover, x)
    return abs(y ** cover.n - rhs) / max(1.0, abs(rhs))


def _draw_point(cover: CyclicCover, rng: random.Random) -> tuple[complex, complex]:
    branch_values = [pt.value() for pt, _ in cover.branches]
    while True:
        radius = rng.uniform(0.5, 2.0)
        angle = rng.uniform(0.0, 2.0 * cmath.pi)
        x = radius * cmath.exp(1j * angle)
        if any(abs(x - e) < 0.1 for e in branch_values):
            continue
        rhs = curve_rhs(cover, x)
        y = cmath.exp(cmath.log(rhs) / cover.n)
        y *= cmath.exp(2j * cmath.pi * rng.randrange(cover.n) / cover.n)
        return x, y


def sample_curve(cover: CyclicCover, count: int, seed: int = 0) -> CurveSample:
    """Draw points on an annulus 0.5 <= |x| <= 2, avoiding branch points by
    0.1, with y an arbitrary n-th root branch; deterministic for a seed."""
    if count < 1:
        raise DomainError(f"sample count must be positive, got {count}")
    rng = random.Random(seed)
    return CurveSample(tuple(_draw_point(cover, rng) for _ in range(count)))


# ---------------------------------------------------------------------------
# Residual checks


def action_residual(cover: CyclicCover, rmap: RationalMap, samples: CurveSample) -> float:
    """Max curve-equation residual at mapped samples; pole hits are resampled."""
    worst = 0.0
    spare = random.Random(10_000_019)
    for x, y in samples:
        for _ in range(50):
            try:
                nx, ny = rmap.apply(x, y)
                break
            except _PoleHit:
                x, y = _draw_point(cover, spare)
        else:
            raise DomainError(f"map {rmap.name} keeps hitting poles on samples")
        worst = max(worst, on_curve_residual(cover, nx, ny))
    return worst


def _close(p: tuple[complex, complex], q: tuple[complex, complex]) -> bool:
    return abs(p[0] - q[0]) <= TOLERANCE * max(1.0, abs(p[0])) and abs(
        p[1] - q[1]
    ) <= TOLERANCE * max(1.0, abs(p[1]))


def verify_map_order(cover: CyclicCover, rmap: RationalMap, k: int, samples: CurveSample) -> bool:
    """True iff the k-fold composite is the identity on all samples and no
    smaller positive iterate is."""
    if k < 1:
        raise DomainError(f"claimed order must be positive, got {k}")
    trajectories = []
    for x, y in samples:
        path = [(x, y)]
        for _ in range(k):
            path.append(rmap.apply(*path[-1]))
        trajectories.append(path)
    if not all(_close(path[k], path[0]) for path in trajectories):
        return False
    for m in range(1, k):
        if all(_close(path[m], path[0]) for path in trajectories):
            return False
    return True


def verify_relation(
    cover: CyclicCover,
    left: Sequence[RationalMap],
    right: Sequence[RationalMap],
    samples: CurveSample,
) -> float:
    """Max distance between the two pipelines across samples."""
    worst = 0.0
    for x, y in samples:
        p = apply_sequence(left, x, y)
        q = apply_sequence(right, x, y)
        worst = max(worst, abs(p[0] - q[0]) + abs(p[1] - q[1]))
    return worst


@dataclass(frozen=True)
class ScenarioOutcome:
    label: str
    value: float
    passed: bool


def run_scenario(scenario: MapScenario, count: int = 100, seed: int = 0) -> list[ScenarioOutcome]:
    """Residual, order, and relation checks for one scenario at one seed."""
    samples = sample_curve(scenario.cover, count, seed)
    featured = scenario.maps[scenario.featured]
    worst = max(on_curve_residual(scenario.cover, x, y) for x, y in samples)
    out = [ScenarioOutcome("on_curve_samples", worst, worst <= TOLERANCE)]
    res = action_residual(scenario.cover, featured, samples)
    out.append(ScenarioOutcome(f"preserves_curve[{scenario.featured}]", res, res <= TOLERANCE))
    ok = verify_map_order(scenario.cover, featured, scenario.order, samples)
    out.append(ScenarioOutcome(f"order[{scenario.featured}]={scenario.order}", 0.0, ok))
    for left, right, label in scenario.relations:
        dev = verify_relation(
            scenario.cover,
            [scenario.maps[name] for name in left],
            [scenario.maps[name] for name in right],
            samples,
        )
        out.append(ScenarioOutcome(label, dev, dev <= TOLERANCE))
    return out


# ---------------------------------------------------------------------------
# Exhaustive enumeration


@dataclass(frozen=True)
class TripleClass:
    """One equivalence class of admissible triples at a fixed degree."""

    canonical: tuple[int, int, int]
    size: int
    report: ClassificationReport


def _ordered_admissible(n: int):
    for a in range(1, n):
        for b in range(1, n):
            c = (-a - b) % n
            if c == 0:
                continue
            if gcd(gcd(gcd(n, a), b), c) == 1:
                yield (a, b, c)


ENUMERATION_CAP = 60


def enumerate_classes(n: int) -> list[TripleClass]:
    """All equivalence classes of admissible triples at degree n, each with its
    ordered-triple orbit size and classification; asserts every orbit member
    classifies identically to the representative."""
    if n < 4:
        raise DomainError(f"enumeration needs degree >= 4, got {n}")
    if n > ENUMERATION_CAP:
        raise DomainError(f"degree {n} above enumeration cap {ENUMERATION_CAP}")
    buckets: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    reports: dict[tuple[int, int, int], ClassificationReport] = {}
    for triple in _ordered_admissible(n):
        rep = classify_belyi(n, *triple)
        canon = rep.canonical
        assert canon is not None
        if canon in buckets:
            base = reports[canon]
            assert (rep.row, rep.group, rep.chain, rep.genus) == (
                base.row, base.group, base.chain, base.genus,
            ), f"orbit member {triple} disagrees with class {canon} at degree {n}"
            buckets[canon].append(triple)
        else:
            buckets[canon] = [triple]
            reports[canon] = rep
    return [
        TripleClass(canon, len(members), reports[canon])
        for canon, members in sorted(buckets.items())
    ]


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


def cross_check(n_max: int, *, _genus_fn: Optional[Callable] = None) -> CrossCheckReport:
    """Replay the classifier over every admissible triple with n <= n_max
    (at most ``ENUMERATION_CAP``) and test each invariant against an
    independent oracle.

    _genus_fn is a test-build fault-injection hook replacing the closed-form
    genus; production callers leave it unset.
    """
    if n_max < 4:
        raise DomainError(f"cross-check needs n_max >= 4, got {n_max}")
    if n_max > ENUMERATION_CAP:
        raise DomainError(f"degree {n_max} above enumeration cap {ENUMERATION_CAP}")
    genus_fn = _genus_fn if _genus_fn is not None else genus
    failures: dict[str, dict] = {}

    def fail(name: str, witness: dict) -> None:
        failures.setdefault(name, witness)

    for n in range(4, n_max + 1):
        reps: dict[tuple[int, int, int], ClassificationReport] = {}
        for triple in _ordered_admissible(n):
            r = classify_belyi(n, *triple)
            if genus_fn(r.cover) != monodromy_genus(r.cover):
                fail(
                    "genus_matches_monodromy",
                    {
                        "n": n,
                        "triple": list(triple),
                        "formula": genus_fn(r.cover),
                        "monodromy": monodromy_genus(r.cover),
                    },
                )
            canon = r.canonical
            assert canon is not None
            base = reps.get(canon)
            if base is None:
                reps[canon] = r
            elif (r.row, r.group, r.chain) != (base.row, base.group, base.chain):
                fail(
                    "equivalence_invariance",
                    {"n": n, "triple": list(triple), "canonical": list(canon)},
                )
        for canon, r in reps.items():
            witness = {"n": n, "triple": list(canon), "row": r.row, "order": r.group.order}
            if not harvey_admissible(signature_of(r.cover), n):
                fail("harvey_condition", witness)
            if r.genus < 2:
                continue
            total = r.base_order
            for step in r.chain:
                total *= step.index
            if r.group.order != total:
                fail("order_law", witness)
            bound = 84 * (r.genus - 1)
            if r.group.order > bound or (r.group.order == bound and r.row != "C.2"):
                fail("hurwitz_bound", witness)
            if r.row == "DEFAULT" and cb_extendable(skep_of_cover(r.cover)).extendable:
                fail("default_not_extendable", witness)

    names = [
        "genus_matches_monodromy",
        "equivalence_invariance",
        "order_law",
        "hurwitz_bound",
        "harvey_condition",
        "default_not_extendable",
    ]
    checks = tuple(
        CheckResult(name, (4, n_max), name not in failures, failures.get(name))
        for name in names
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
