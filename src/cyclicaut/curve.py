"""Cyclic covers y^n = prod (x - e_i)^{k_i} of the sphere.

Models the covers with exact branch-point labels, computes irreducibility,
genus and the genus-0 uniformizing signature, and houses the independent
monodromy genus oracle used to cross-check the genus formula: one counter of
the cycles of the sheet translations and one Euler-characteristic formula,
read by ``monodromy_genus`` and by the sweep's cross-check alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .cursor import Cursor
from .numtheory import DomainError


# ---------------------------------------------------------------------------
# Branch points


@dataclass(frozen=True)
class BranchPoint:
    """An exact point label: a rational number or a primitive root of unity.

    Roots of unity are stored as reduced index/order pairs; e^(2*pi*i*j/d)
    with d <= 2 normalizes to the rational 1 or -1, so equality of labels
    coincides with equality of the underlying complex numbers.  The order
    tells the two apart: a rational has index 0 and order 1, a root of unity
    rational 0 and order >= 3.  Equal labels have equal fields, so the
    dataclass hash of the fields agrees with equality.
    """

    rational: Fraction = Fraction(0)
    root_index: int = 0
    root_order: int = 1

    @staticmethod
    def at(value: Fraction | int) -> "BranchPoint":
        return BranchPoint(Fraction(value))

    @staticmethod
    def root_of_unity(index: int, order: int) -> "BranchPoint":
        if order < 1:
            raise DomainError("root of unity order must be positive")
        index %= order
        g = gcd(index, order) if index else order
        index, order = index // g, order // g
        if order == 1:
            return ONE
        if order == 2:
            return MINUS_ONE
        return BranchPoint(Fraction(0), index, order)

    def label(self) -> str:
        if self.root_order == 1:
            return str(self.rational)
        return f"zeta_{self.root_order}^{self.root_index}"


# The points a three-point (Belyi) cover branches over.
ZERO = BranchPoint.at(0)
ONE = BranchPoint.at(1)
MINUS_ONE = BranchPoint.at(-1)


# ---------------------------------------------------------------------------
# Covers


@dataclass(frozen=True)
class CyclicCover:
    """y^n = constant * prod (x - e_i)^{k_i}, with the implicit branching over infinity.

    Exponents live in [1, n-1]; infinity_exponent in [0, n-1] (0 means
    unbranched over infinity) and is determined by the finite exponents via
    the mod-n sum rule.
    """

    n: int
    branches: tuple[tuple[BranchPoint, int], ...]
    infinity_exponent: int = 0
    constant: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        n = self.n
        if n < 2:
            raise DomainError(f"cover degree must be >= 2, got {n}")
        # one pass over the branches normalizes each exponent, checks its
        # range, and collects the points and the exponent sum
        branches = []
        points = set()
        total = 0
        for pt, k in self.branches:
            k = int(k)
            if not 0 < k < n:
                raise DomainError(f"branch exponent {k} outside [1, {n - 1}]")
            branches.append((pt, k))
            points.add(pt)
            total += k
        if not branches:
            raise DomainError("cover needs at least one finite branch point")
        if len(points) != len(branches):
            raise DomainError("non-distinct roots")
        infinity = self.infinity_exponent
        if not 0 <= infinity < n:
            raise DomainError("infinity exponent outside [0, n-1]")
        if (total + infinity) % n:
            raise DomainError("exponents do not sum to 0 mod n")
        if not self.constant:
            raise DomainError("constant must be nonzero")
        object.__setattr__(self, "branches", tuple(branches))

    def exponents(self) -> tuple[int, ...]:
        return tuple(k for _, k in self.branches)

    def all_exponents(self) -> tuple[int, ...]:
        """Finite exponents plus the infinity exponent when nonzero."""
        infinity = self.infinity_exponent
        return self.exponents() + (infinity,) if infinity else self.exponents()


def _build_cover(
    n: int,
    points_exponents: Iterable[tuple[BranchPoint, int]],
    constant: Fraction = Fraction(1),
) -> CyclicCover:
    if n < 2:  # before the exponents are reduced mod n
        raise DomainError(f"cover degree must be >= 2, got {n}")
    reduced: list[tuple[BranchPoint, int]] = []
    seen: set[BranchPoint] = set()
    total = 0
    for pt, k in points_exponents:
        if pt in seen:
            raise DomainError("non-distinct roots")
        seen.add(pt)
        k_red = k % n
        total += k_red
        if k_red:
            reduced.append((pt, k_red))
    return CyclicCover(n, tuple(reduced), (-total) % n, constant)


def belyi_cover(n: int, a: int, b: int, c: int) -> CyclicCover:
    """y^n = x^a (x-1)^b (x+1)^c with exponents reduced mod n."""
    if min(a, b, c) < 1:
        raise DomainError("exponents must be positive")
    return _build_cover(n, ((ZERO, a), (ONE, b), (MINUS_ONE, c)))


def lefschetz_cover(p: int, a: int) -> CyclicCover:
    """y^p = x^a (x+1)."""
    if a < 1:
        raise DomainError("exponent must be positive")
    return _build_cover(p, ((ZERO, a), (MINUS_ONE, 1)))


# Largest x-degree d of a Fermat curve y^n + x^d = 1.  Its cover holds one
# branch point per d-th root of unity, so d sizes the cover and every pass
# over it: at this bound one cover builds in 0.85 s and 71 MB on one core of
# a 2-core Xeon VM.
MAX_FERMAT_DEGREE = 10**5


def fermat_cover(n: int, d: int) -> CyclicCover:
    """y^n + x^d = 1: branch points at the d-th roots of unity, each exponent 1."""
    if d < 1:
        raise DomainError("exponent of x must be positive")
    if d > MAX_FERMAT_DEGREE:
        raise DomainError(f"exponent of x {d} above {MAX_FERMAT_DEGREE}")
    pts = [(BranchPoint.root_of_unity(j, d), 1) for j in range(d)]
    return _build_cover(n, pts, Fraction(-1))


# ---------------------------------------------------------------------------
# Parsing


def _take_rational(cur: Cursor) -> Fraction:
    sign = 1
    if cur.try_take("-"):
        sign = -1
    else:
        cur.try_take("+")
    num = cur.take_uint()
    if cur.try_take("/"):
        den = cur.take_uint()
        if den == 0:
            raise cur.error("zero denominator")
        return Fraction(sign * num, den)
    return Fraction(sign * num)


def _parse_exponent(cur: Cursor) -> int:
    if cur.try_take("^"):
        e = cur.take_uint()
        if e < 1:
            raise cur.error("exponent must be positive")
        return e
    return 1


def parse_curve(text: str) -> CyclicCover:
    """Parse ``y^N = [c] x^K (x-R)^K ...`` or the Fermat form ``y^N + x^D = 1``.

    Exponents are reduced mod N (a factor whose exponent reduces to 0 is an
    N-th power and is dropped); the infinity exponent is the mod-N complement
    of the finite exponent sum.
    """
    cur = Cursor(text, "curve")
    cur.take("y")
    cur.take("^")
    n = cur.take_uint()
    if n < 2:
        raise DomainError(f"cover degree must be >= 2, got {n}")
    if cur.try_take("+"):
        cur.take("x")
        cur.take("^")
        d = cur.take_uint()
        if d < 1:
            raise cur.error("exponent must be positive")
        cur.take("=")
        cur.take("1")
        if cur.peek() is not None:
            raise cur.error("trailing input")
        return fermat_cover(n, d)
    cur.take("=")
    constant = Fraction(1)
    nxt = cur.peek()
    if nxt is not None and (nxt.isdecimal() or nxt in "+-"):
        constant = _take_rational(cur)
        if constant == 0:
            raise cur.error("constant must be nonzero")
        cur.try_take("*")
    factors: list[tuple[BranchPoint, int]] = []
    while True:
        nxt = cur.peek()
        if nxt is None:
            break
        if nxt == "x":
            cur.take("x")
            factors.append((ZERO, _parse_exponent(cur)))
        elif nxt == "(":
            cur.take("(")
            cur.take("x")
            if cur.try_take("-"):
                sign = 1
            elif cur.try_take("+"):
                sign = -1
            else:
                raise cur.error("expected '-' or '+' after x")
            root = _take_rational(cur)
            if root <= 0:
                raise cur.error("root literal must be positive")
            cur.take(")")
            factors.append((BranchPoint.at(sign * root), _parse_exponent(cur)))
        else:
            raise cur.error("expected a factor")
        cur.try_take("*")
    if not factors:
        raise cur.error("expected at least one factor")
    return _build_cover(n, factors, constant)


# ---------------------------------------------------------------------------
# Invariants


def is_irreducible(cover: CyclicCover) -> bool:
    """True iff gcd(n, k_1, ..., k_m) = 1 over the finite exponents."""
    return gcd(cover.n, *cover.exponents()) == 1


def require_irreducible(cover: CyclicCover) -> None:
    if not is_irreducible(cover):
        raise DomainError("cover is reducible (exponents share a factor with n)")


def genus_and_periods(n: int, gcds: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Genus and sorted periods of an irreducible degree-n cyclic cover of the
    sphere branched over len(gcds) points, read off the gcds g_i = gcd(n, k_i)
    of its exponents (the exponent over infinity among them when nonzero).

    The genus is (2 + (m-2)n - sum g_i) / 2 by Riemann-Hurwitz, and the
    periods are the orders n/g_i of the branch-point stabilizers (Harvey 1966).
    """
    chi_term = 2 + (len(gcds) - 2) * n - sum(gcds)
    assert chi_term % 2 == 0, "genus formula produced an odd numerator"
    g = chi_term // 2
    assert g >= 0, "genus formula produced a negative value"
    return g, tuple(sorted(n // d for d in gcds))


def _exponent_gcds(cover: CyclicCover) -> tuple[int, ...]:
    require_irreducible(cover)
    return tuple(gcd(cover.n, k) for k in cover.all_exponents())


def genus(cover: CyclicCover) -> int:
    """Genus of the smooth model: (2 + (m-2)n - sum gcd(n, k_i)) / 2.

    Branching over infinity counts as an extra branch point with its own
    exponent.
    """
    return genus_and_periods(cover.n, _exponent_gcds(cover))[0]


@dataclass(frozen=True)
class Signature:
    """The periods of a Fuchsian group of orbit genus 0 (that of every cyclic
    cover of the line), a multiset normalized to ascending order."""

    periods: tuple[int, ...]

    def __post_init__(self) -> None:
        periods = tuple(sorted(map(int, self.periods)))
        object.__setattr__(self, "periods", periods)
        if periods and periods[0] < 2:
            raise DomainError("signature periods must be >= 2")


def signature_of(cover: CyclicCover) -> Signature:
    """Genus-0 signature with one period n/gcd(n,k) per branch point, sorted.

    Every exponent lies in [1, n-1], so no period is 1.
    """
    return Signature(genus_and_periods(cover.n, _exponent_gcds(cover))[1])


# ---------------------------------------------------------------------------
# Triple equivalence


def triple_gcds(n: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    """gcd(n, k) for each entry k of the triple; a DomainError unless the
    triple is admissible: entries in [1, n-1], summing to 0 mod n, with no
    factor common to all of them and n."""
    if n < 2:
        raise DomainError(f"cover degree must be >= 2, got {n}")
    for v in (a, b, c):
        if not 1 <= v <= n - 1:
            raise DomainError(f"triple entry {v} outside [1, {n - 1}]")
    if (a + b + c) % n:
        raise DomainError("triple does not sum to 0 mod n")
    gcds = (gcd(n, a), gcd(n, b), gcd(n, c))
    if gcd(*gcds) != 1:
        raise DomainError("triple shares a common factor with n")
    return gcds


def canonical_triple(n: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    """Lexicographically least representative of the triple's equivalence class.

    Two triples are equivalent when one is a unit multiple mod n of a
    permutation of the other.  A unit keeps gcd(n, k), and the least unit
    multiple of k is gcd(n, k), so the least entry of the class is
    g = min gcd(n, k_i).  The least triple therefore comes from a unit that
    carries an entry k with gcd(n, k) = g down to g: a lift to [0, n) of
    (k/g)^-1 mod n/g that is coprime to n.  The three gcds are pairwise
    coprime (a common factor of two divides the third entry, and the triple
    is irreducible), so g <= n^(1/3) and at most 3g units are tried.
    """
    triple = (a, b, c)
    gcds = triple_gcds(n, a, b, c)
    g = min(gcds)
    step = n // g
    return min(
        tuple(sorted(u * t % n for t in triple))
        for k, gk in zip(triple, gcds)
        if gk == g
        for u in range(pow(k // g, -1, step), n, step)
        if gcd(u, n) == 1
    )


# ---------------------------------------------------------------------------
# Monodromy oracle


def translation_cycles(n: int, k: int) -> int:
    """The number of cycles of the sheet permutation s -> s + k mod n,
    counted by traversal."""
    seen = bytearray(n)
    cycles = 0
    for s in range(n):
        if not seen[s]:
            cycles += 1
            t = s
            while not seen[t]:
                seen[t] = 1
                t = (t + k) % n
    return cycles


def cycle_counts(n: int) -> list[int]:
    """cycles[k] for k in [0, n): the cycle counts of the translations
    s -> s + k mod n, each traversed once."""
    return [n] + [translation_cycles(n, k) for k in range(1, n)]


def twice_monodromy_genus(
    n: int, cycles: Mapping[int, int] | Sequence[int], ks: Sequence[int]
) -> int:
    """Twice the genus of the degree-n cover with branch exponents ks, read
    off the Euler characteristic 2 - 2g = 2n - sum (n - cycles[k]) of its
    sheet monodromy, where cycles[k] counts the cycles of s -> s + k.

    The monodromy of each branch point is the translation by its exponent,
    so their product is the translation by sum(ks): the identity exactly
    when the sum is 0 mod n.  The cycle counts are summed by ``map``, with
    no generator, as ``cross_check`` calls this once per triple.
    """
    assert sum(ks) % n == 0, "monodromy product is not the identity"
    return 2 - 2 * n + n * len(ks) - sum(map(cycles.__getitem__, ks))


# Most sheet steps monodromy_genus takes: it traverses the n sheets once per
# distinct exponent, marking them in an n-byte array.  At this bound the
# traversals take 1.6 s on one core of a 2-core Xeon VM.
MAX_MONODROMY_STEPS = 10**7


def monodromy_genus(cover: CyclicCover) -> int:
    """Genus recomputed from the cycle decomposition of the sheet monodromy.

    The monodromy of a branch point with exponent k (infinity included) is
    the translation s -> s + k mod n.  The cycles of each distinct one are
    counted by traversal, and the genus is read off the Euler
    characteristic, which must be even (``twice_monodromy_genus``).  A
    DomainError refuses covers whose traversals would pass
    MAX_MONODROMY_STEPS sheet steps.
    """
    require_irreducible(cover)
    n, ks = cover.n, cover.all_exponents()
    distinct = set(ks)
    if n * len(distinct) > MAX_MONODROMY_STEPS:
        raise DomainError(
            f"monodromy of {n} sheets under {len(distinct)} translations"
            f" passes {MAX_MONODROMY_STEPS} sheet steps"
        )
    twice = twice_monodromy_genus(n, {k: translation_cycles(n, k) for k in distinct}, ks)
    assert twice % 2 == 0, "odd Euler characteristic from monodromy"
    assert twice >= 0, "negative genus from monodromy"
    return twice // 2


# ---------------------------------------------------------------------------
# Serialization


def cover_to_json_dict(cover: CyclicCover) -> dict:
    out: dict = {
        "n": cover.n,
        "branches": [
            {"point": pt.label(), "exponent": k} for pt, k in cover.branches
        ],
        "infinity_exponent": cover.infinity_exponent,
    }
    if cover.constant != 1:
        out["constant"] = str(cover.constant)
    return out
