"""Genus-0 Fuchsian signature machinery.

The table of non-finitely-maximal genus-0 signatures is written once, as the
text of its rows (inner ``"(t,t,m), t>=3, t+m>=7"``, outer ``"(2,t,2m)"``);
each row parses its text into its matcher, and an extension chain walks
named rows of it.  Also here: the lcm admissibility test for surface-kernel
epimorphisms onto Z_n, and the extension criteria of three-point covers,
which are computed independently of the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import gcd, lcm
from string import ascii_lowercase
from typing import Optional, Sequence

from .curve import CyclicCover, Signature, require_irreducible
from .numtheory import DomainError


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
        pattern fits within the guards, or None.  Each distinct ordering is
        tried in turn; ``_bind`` rejects one whose literals or variables the
        periods contradict."""
        if len(periods) != len(self._orderings[0]):
            return None
        for ordering in self._orderings:
            env = _bind(ordering, periods)
            if env is not None and all(
                sum(c * env[v] for c, v in lhs) >= bound for lhs, bound in self._guards
            ):
                return Signature(tuple(c * env[v] for c, v in self._outer_terms))
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


def gs_extensions(sig: Signature) -> list[tuple[GsRow, Signature]]:
    """(row, outer signature) of each matching row; empty iff sig is finitely maximal."""
    return [(row, outer) for row in _TABLE if (outer := row.match(sig.periods))]


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


# ---------------------------------------------------------------------------
# Admissibility of cyclic surface-kernel epimorphisms


def harvey_admissible(sig: Signature, n: int) -> bool:
    """lcm condition for a genus-0 surface-kernel epimorphism onto Z_n.

    Requires n to equal the lcm of all periods and the lcm of every
    (r-1)-subset of them.
    """
    if n < 2:
        raise DomainError(f"target order must be >= 2, got {n}")
    periods = sig.periods
    if len(periods) < 2:
        return False
    if lcm(*periods) != n:
        return False
    for i in range(len(periods)):
        rest = periods[:i] + periods[i + 1 :]
        if lcm(*rest) != n:
            return False
    return True


# ---------------------------------------------------------------------------
# Extension criteria for cyclic actions


@dataclass(frozen=True)
class CbMatch:
    """One extension criterion that applies: outer signature and order multiplier."""

    case: int
    outer: Signature
    multiplier: int


def cb_extendable(cover: CyclicCover) -> tuple[CbMatch, ...]:
    """The extension criteria that apply to the deck action of a three-point
    cover, in ascending case order.

    Branch point i has period m_i = n / gcd(n, k_i), and its generator maps
    to T^(k_i).  Cases: (3) all-n triangle with an order-3 unit permuting the
    images, multiplier 3; (4) (n,n,m) triangle, n+m>=7, equal or
    involution-swapped n-period images, multiplier 2; (5) the (3,4,12)
    triangle with images a unit multiple of (8,3,1), multiplier 4.  The
    empty tuple is exact: the cyclic deck group is the full automorphism
    group (Singerman's triangle inclusions).
    """
    require_irreducible(cover)
    n = cover.n
    pairs = sorted((n // gcd(n, k), k) for k in cover.all_exponents())
    if len(pairs) != 3:
        raise DomainError("extension criteria need a three-point cover")
    periods = tuple(m for m, _ in pairs)
    images = tuple(k for _, k in pairs)
    matches: list[CbMatch] = []
    # all three images are units, so an order-3 unit j that permutes them
    # sends images[0] to images[1] or images[2], and then j or j^2 sends it to
    # images[1]: images[1] / images[0] is the one candidate
    if periods == (n, n, n) and n >= 4:
        j = images[1] * pow(images[0], -1, n) % n
        if j != 1 and j * j * j % n == 1 and sorted(z * j % n for z in images) == list(images):
            matches.append(CbMatch(3, Signature((3, 3, n)), 3))
    # the images of period n are units; two of them are swapped by an
    # involution when their quotient squares to 1
    m = periods[0]
    if periods[1] == n and n + m >= 7 and any(
        a == b or (b * pow(a, -1, n)) ** 2 % n == 1
        for a, b in combinations(images[periods.index(n):], 2)
    ):
        matches.append(CbMatch(4, Signature((2, n, 2 * m)), 2))
    k = images[2]
    if periods == (3, 4, 12) and images == (8 * k % 12, 3 * k % 12, k):
        matches.append(CbMatch(5, Signature((2, 3, 12)), 4))
    return tuple(matches)


# ---------------------------------------------------------------------------
# Chained extensions


@dataclass(frozen=True)
class ChainStep:
    """One table-row application inside a chain."""

    row_id: str
    signature: Signature
    index: int


def chain_steps(sig: Signature, row_ids: Sequence[str]) -> tuple[ChainStep, ...]:
    """Walk from sig through the named rows in turn, matching only the named
    row at each step."""
    steps: list[ChainStep] = []
    cur = sig
    for rid in row_ids:
        row = gs_row(rid)
        outer = row.match(cur.periods)
        assert outer is not None, f"signature {cur.periods} admits no row {rid} extension"
        steps.append(ChainStep(rid, outer, row.index))
        cur = outer
    return tuple(steps)
