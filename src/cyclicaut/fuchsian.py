"""Genus-0 Fuchsian signature machinery.

The table of non-finitely-maximal genus-0 signatures is written once, as the
text of its rows (inner ``"(t,t,m), t>=3, t+m>=7"``, outer ``"(2,t,2m)"``);
each row parses its text into its matcher.  The catalogue of two-step
extension chains names only row ids and an equivalent single row; where a
chain applies and the signatures it passes through are derived from the
table.  Also here: the lcm admissibility test for surface-kernel epimorphisms
onto Z_n, and the cyclic-action extension criteria for triangle and
quadrilateral signatures, which are computed independently of the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from math import gcd, prod
from string import ascii_lowercase
from typing import Optional, Sequence

from .curve import CyclicCover, Signature, signature_of
from .numtheory import DomainError, inverse_mod, lcm_many, units


# ---------------------------------------------------------------------------
# The signature-extension table

# A term is (coefficient, variable).  A literal has the variable "", which
# every binding maps to 1, so a term's value is always coefficient x binding.
# A guard is (summands, bound).
_Term = tuple[int, str]
_Guard = tuple[tuple[_Term, ...], int]


def _term(text: str) -> _Term:
    """'4t' -> (4, 't'), 't' -> (1, 't'), '7' -> (7, '')."""
    digits = text.rstrip(ascii_lowercase)
    return int(digits or 1), text[len(digits):]


def _parse_pattern(text: str) -> tuple[tuple[_Term, ...], tuple[_Guard, ...]]:
    """'(t,t,m), t>=3, t+m>=7' -> its period terms and its guards."""
    head, _, tail = text.replace(" ", "").partition(")")
    guards = [guard.split(">=") for guard in tail.split(",")[1:]]
    return (
        tuple(map(_term, head[1:].split(","))),
        tuple((tuple(map(_term, lhs.split("+"))), int(bound)) for lhs, bound in guards),
    )


def _bind(terms: tuple[_Term, ...], periods: tuple[int, ...]) -> Optional[dict[str, int]]:
    """The variable values that make terms equal periods, position by position."""
    env = {"": 1}
    for (coef, var), p in zip(terms, periods):
        if var not in env:
            if p % coef:
                return None
            env[var] = p // coef
        elif coef * env[var] != p:
            return None
    return env


@dataclass(frozen=True)
class GsRow:
    """One table row: an inner signature pattern contained in an outer one.

    The row is defined by its text.  A pattern lists periods, each a literal
    or a coefficient times a variable; the inner pattern may be followed by
    guards ``sum >= bound``, e.g. ``"(t,t,m), t>=3, t+m>=7"``.
    """

    row_id: str
    inner: str
    outer: str
    index: int
    normal: bool
    _orderings: tuple = field(init=False, repr=False, compare=False)
    _guards: tuple = field(init=False, repr=False, compare=False)
    _outer_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        terms, guards = _parse_pattern(self.inner)
        object.__setattr__(self, "_orderings", tuple(dict.fromkeys(permutations(terms))))
        object.__setattr__(self, "_guards", guards)
        object.__setattr__(self, "_outer_terms", _parse_pattern(self.outer)[0])

    def match(self, periods: tuple[int, ...]) -> Optional[Signature]:
        """The outer signature for sorted periods that some ordering of the inner
        pattern fits within the guards, or None."""
        if len(periods) != len(self._orderings[0]):
            return None
        for ordering in self._orderings:
            env = _bind(ordering, periods)
            if env is not None and all(
                sum(c * env[v] for c, v in lhs) >= bound for lhs, bound in self._guards
            ):
                return Signature(0, tuple(c * env[v] for c, v in self._outer_terms))
        return None


_TABLE: tuple[GsRow, ...] = (
    GsRow("1", "(t,t,t), t>=4", "(3,3,t)", 3, True),
    GsRow("2", "(t,t,t), t>=4", "(2,3,2t)", 6, True),
    GsRow("3", "(t,t,m), t>=3, t+m>=7", "(2,t,2m)", 2, True),
    GsRow("A", "(t,t,t,t), t>=3", "(2,2,2,t)", 4, True),
    GsRow("B", "(t,t,m,m), t+m>=5", "(2,2,t,m)", 2, True),
    GsRow("4", "(7,7,7)", "(2,3,7)", 24, False),
    GsRow("5", "(2,7,7)", "(2,3,7)", 9, False),
    GsRow("6", "(3,3,7)", "(2,3,7)", 8, False),
    GsRow("7", "(4,8,8)", "(2,3,8)", 12, False),
    GsRow("8", "(3,8,8)", "(2,3,8)", 10, False),
    GsRow("9", "(9,9,9)", "(2,3,9)", 12, False),
    GsRow("10", "(4,4,5)", "(2,4,5)", 6, False),
    GsRow("11", "(t,4t,4t), t>=2", "(2,3,4t)", 6, False),
    GsRow("12", "(t,2t,2t), t>=3", "(2,4,2t)", 4, False),
    GsRow("13", "(3,t,3t), t>=3", "(2,3,3t)", 4, False),
    GsRow("14", "(2,t,2t), t>=4", "(2,3,2t)", 3, False),
)
_ROWS = {row.row_id: row for row in _TABLE}


def gs_row(row_id: str) -> GsRow:
    if row_id not in _ROWS:
        raise DomainError(f"no signature-extension row {row_id!r}")
    return _ROWS[row_id]


@dataclass(frozen=True)
class GsExtension:
    """A table row instantiated at a concrete inner signature."""

    row: GsRow
    outer: Signature

    @property
    def index(self) -> int:
        return self.row.index


def gs_extensions(sig: Signature) -> list[GsExtension]:
    """All table rows whose inner pattern matches; empty iff sig is finitely maximal."""
    _require_genus0(sig)
    return [GsExtension(row, outer) for row in _TABLE if (outer := row.match(sig.periods))]


def gs_table_json() -> list[dict]:
    return [
        {
            "row_id": row.row_id,
            "inner": row.inner,
            "outer": row.outer,
            "index": row.index,
            "normal": row.normal,
        }
        for row in _TABLE
    ]


def _require_genus0(sig: Signature) -> None:
    if sig.genus != 0:
        raise DomainError("only genus-0 signatures are in scope")


# ---------------------------------------------------------------------------
# Admissibility of cyclic surface-kernel epimorphisms


def harvey_admissible(sig: Signature, n: int) -> bool:
    """lcm condition for a genus-0 surface-kernel epimorphism onto Z_n.

    Requires n to equal the lcm of all periods and the lcm of every
    (r-1)-subset of them.
    """
    _require_genus0(sig)
    if n < 2:
        raise DomainError(f"target order must be >= 2, got {n}")
    periods = sig.periods
    if len(periods) < 2:
        return False
    if lcm_many(periods) != n:
        return False
    for i in range(len(periods)):
        rest = periods[:i] + periods[i + 1 :]
        if lcm_many(rest) != n:
            return False
    return True


# ---------------------------------------------------------------------------
# Surface-kernel epimorphism data


@dataclass(frozen=True)
class SkepSpec:
    """A surface-kernel epimorphism onto Z_n: x_i -> T^{z_i} with matching periods."""

    signature: Signature
    n: int
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_genus0(self.signature)
        if self.n < 2:
            raise DomainError(f"target order must be >= 2, got {self.n}")
        images = tuple(int(z) % self.n for z in self.images)
        object.__setattr__(self, "images", images)
        periods = self.signature.periods
        if len(images) != len(periods):
            raise DomainError("one image required per period")
        for z, m in zip(images, periods):
            if z == 0 or self.n // gcd(self.n, z) != m:
                raise DomainError(
                    f"image T^{z} has order {self.n // gcd(self.n, z) if z else 1}, expected period {m}"
                )
        if sum(images) % self.n:
            raise DomainError("images do not multiply to the identity")


def skep_of_cover(cover: CyclicCover) -> SkepSpec:
    """The epimorphism induced by a cover: each branch exponent k maps x_i to T^k.

    Period/image pairs are sorted by (period, image) so equal covers give
    equal specs.
    """
    sig = signature_of(cover)
    n = cover.n
    pairs = sorted((n // gcd(n, k), k) for k in cover.all_exponents())
    return SkepSpec(sig, n, tuple(z for _, z in pairs))


# ---------------------------------------------------------------------------
# Extension criteria for cyclic actions


@dataclass(frozen=True)
class CbMatch:
    """One extension criterion that applies: outer signature and order multiplier."""

    case: int
    outer: Signature
    multiplier: int


@dataclass(frozen=True)
class CbVerdict:
    extendable: bool
    matches: tuple[CbMatch, ...]

    @property
    def case(self) -> int | None:
        return self.matches[0].case if self.matches else None


def _quad_case1(n: int, images: tuple[int, ...]) -> bool:
    for pivot in range(4):
        z = images[pivot]
        if gcd(z, n) != 1:
            continue
        s = inverse_mod(z, n)
        rest = [images[i] * s % n for i in range(4) if i != pivot]
        a, b, c = rest
        if (
            (a * b * c) % n == 1 % n
            and (a * a) % n == 1 % n
            and (b * b) % n == 1 % n
            and (c * c) % n == 1 % n
            and (1 + a + b + c) % n == 0
        ):
            return True
    return False


def _triangle_case3(n: int, images: tuple[int, ...]) -> bool:
    target = sorted(images)
    for j in units(n):
        if j != 1 and (j * j * j) % n == 1 % n:
            if sorted(z * j % n for z in images) == target:
                return True
    return False


def _swap_exists(n: int, z1: int, z2: int) -> bool:
    if z1 == z2:
        return True
    if gcd(z1, n) != 1:
        return False
    u = z2 * inverse_mod(z1, n) % n
    return (u * u) % n == 1 % n


def cb_extendable(skep: SkepSpec) -> CbVerdict:
    """Which extension criteria apply to a cyclic action with 3 or 4 periods.

    Cases: (1) all-n quadrilateral with the exponent congruences, multiplier 4;
    (2) (n,n,m,m) quadrilateral, n+m>=5, multiplier 2; (3) all-n triangle with
    an order-3 unit permuting the images, multiplier 3; (4) (n,n,m) triangle,
    m | n, n+m>=7, equal or involution-swapped n-period images, multiplier 2;
    (5) the (3,4,12) triangle with images a unit multiple of (8,3,1),
    multiplier 4.  All matching cases are reported in ascending case order;
    for triangle signatures the empty verdict is exact: the cyclic action is
    the full automorphism group.
    """
    sig = skep.signature
    n = skep.n
    periods = sig.periods
    images = skep.images
    if len(periods) not in (3, 4):
        raise DomainError("extension criteria need 3 or 4 periods")
    matches: list[CbMatch] = []
    if len(periods) == 4:
        if periods == (n, n, n, n) and _quad_case1(n, images):
            matches.append(CbMatch(1, Signature(0, (2, 2, 2, n)), 4))
        if periods[0] == periods[1] and periods[2] == periods[3] and periods[3] == n:
            m = periods[0]
            if m + n >= 5:
                matches.append(CbMatch(2, Signature(0, (2, 2, m, n)), 2))
    else:
        if periods == (n, n, n) and n >= 4 and _triangle_case3(n, images):
            matches.append(CbMatch(3, Signature(0, (3, 3, n)), 3))
        # case 4 scans every choice of the (n, n) pair
        case4 = None
        for i in range(3):
            for j in range(i + 1, 3):
                if periods[i] == periods[j] == n:
                    k = 3 - i - j
                    m = periods[k]
                    if n % m == 0 and n + m >= 7 and _swap_exists(n, images[i], images[j]):
                        case4 = CbMatch(4, Signature(0, (2, n, 2 * m)), 2)
        if case4 is not None:
            matches.append(case4)
        if periods == (3, 4, 12) and n == 12:
            by_period = dict(zip(periods, images))
            for k in units(12):
                if (
                    by_period[12] == k
                    and by_period[4] == 3 * k % 12
                    and by_period[3] == 8 * k % 12
                ):
                    matches.append(CbMatch(5, Signature(0, (2, 3, 12)), 4))
                    break
    return CbVerdict(bool(matches), tuple(matches))


# ---------------------------------------------------------------------------
# Chained extensions


@dataclass(frozen=True)
class ChainStep:
    """One table-row application inside a chain."""

    row_id: str
    signature: Signature
    index: int


@dataclass(frozen=True)
class ExtensionChain:
    """A two-step composite of table rows, equivalent to a single row; dead
    chains are composites along which no cyclic skep survives."""

    item: int
    steps: tuple[ChainStep, ...]
    equivalent_row_id: str
    live: bool


def chain_steps(sig: Signature, row_ids: Sequence[str]) -> tuple[ChainStep, ...]:
    """Walk from sig through the named rows in turn, matching only the named
    row at each step."""
    _require_genus0(sig)
    steps: list[ChainStep] = []
    cur = sig
    for rid in row_ids:
        row = gs_row(rid)
        outer = row.match(cur.periods)
        assert outer is not None, f"signature {cur.periods} admits no row {rid} extension"
        steps.append(ChainStep(rid, outer, row.index))
        cur = outer
    return tuple(steps)


# The chain catalogue: (item, row ids, equivalent row, live).  A chain applies
# exactly where its equivalent row matches, and its steps come from the table.
_CHAINS: tuple[tuple[int, tuple[str, ...], str, bool], ...] = (
    (1, ("1", "3"), "2", False),
    (2, ("1", "6"), "4", True),
    (3, ("1", "13"), "9", False),
    (4, ("3", "3"), "12", True),
    (5, ("3", "11"), "7", True),
    (6, ("3", "14"), "2", False),
    (7, ("3", "14"), "11", True),
    (8, ("12", "14"), "7", True),
)


def extension_chains(sig: Signature) -> list[ExtensionChain]:
    """All catalogued two-step extension chains starting at a triangle signature."""
    _require_genus0(sig)
    if len(sig.periods) != 3:
        raise DomainError("chains are catalogued for triangle signatures only")
    out: list[ExtensionChain] = []
    for item, row_ids, equiv, live in _CHAINS:
        row = _ROWS[equiv]
        outer = row.match(sig.periods)
        if outer is None:
            continue
        steps = chain_steps(sig, row_ids)
        assert steps[-1].signature == outer, "chain does not end at the equivalent row's outer"
        assert prod(s.index for s in steps) == row.index, "chain indices do not compose to the row"
        out.append(ExtensionChain(item, steps, equiv, live))
    return out
