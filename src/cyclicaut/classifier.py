"""Classification of full automorphism groups of cyclic covers.

Total decision procedures for three families: three-branch-point covers
y^n = x^a (x-1)^b (x+1)^c, the two-finite-branch-point prime-degree family
y^p = x^a (x+1), and Fermat curves y^n + x^d = 1.  Each verdict names a
table row, the group and the signature-extension chain that produces it.  A
group is written once, as its order, kind and params; its structure string
is formatted from these, and its presentation (on rows that ship one) is
kept as the text reports print, parsed only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Callable, Iterator, NamedTuple, Optional

from .curve import (
    MINUS_ONE,
    ONE,
    ZERO,
    CyclicCover,
    Signature,
    canonical_triple,
    cover_to_json_dict,
    fermat_cover,
    genus,
    genus_and_periods,
    lefschetz_cover,
    triple_gcds,
)
from .fuchsian import ChainStep, chain_steps
from .grouptheory import Presentation, parse_presentation
from .numtheory import DomainError, is_prime


# ---------------------------------------------------------------------------
# Group descriptors

# How each kind of group is written, formatted with the group's params (and
# its order, as ``order``).
_STRUCTURE_FORMATS = {
    "CYCLIC": "Z{order}",
    "CYCLIC_SEMIDIRECT_C2": "Z{0}:Z2",
    "CYCLIC_SEMIDIRECT_C3": "Z{0}:Z3",
    "CENTRAL_EXT": "(central Z{0}):{1}",
    "DIRECT_SUM_SEMIDIRECT": "(Z{0[0]}+Z{0[1]}):{1}",
    "NAMED": "{0}",
    "ABELIAN": "Z{0}+Z{1}",
}


@dataclass(frozen=True)
class GroupDescriptor:
    """A reported group: its order, its kind and params (a key of
    ``_STRUCTURE_FORMATS`` and the values that format it), and the text of its
    presentation, or None on rows that ship none."""

    order: int
    kind: str
    params: tuple
    presentation_text: Optional[str] = None

    def __post_init__(self) -> None:
        if self.order < 1:
            raise DomainError("group order must be positive")
        if self.kind not in _STRUCTURE_FORMATS:
            raise DomainError(f"unknown group kind {self.kind!r}")
        if self.kind == "CYCLIC" and self.params and self.params[0] != self.order:
            raise DomainError("cyclic descriptor order mismatch")
        try:
            self.structure
        except (IndexError, KeyError, TypeError):
            raise DomainError(f"params {self.params!r} do not fill a {self.kind} group") from None

    @property
    def structure(self) -> str:
        return _STRUCTURE_FORMATS[self.kind].format(*self.params, order=self.order)

    @property
    def presentation(self) -> Optional[Presentation]:
        """The presentation text, parsed; a DomainError when its relators
        expand past ``MAX_RELATOR_LETTERS`` letters (Z_m for m above it)."""
        if self.presentation_text is None:
            return None
        return parse_presentation(self.presentation_text)


@dataclass(frozen=True)
class ClassificationReport:
    """A classified cover: table row, group, and the signature chain behind it."""

    kind: str  # "belyi" | "lefschetz" | "fermat"
    cover: CyclicCover
    canonical: Optional[tuple[int, int, int]]
    genus: int
    signature: Signature
    row: str
    group: GroupDescriptor
    chain: tuple[ChainStep, ...]
    base_order: int
    notes: str = ""

    @property
    def n(self) -> int:
        return self.cover.n

    @property
    def triple(self) -> Optional[tuple[int, ...]]:
        """The cover's three exponents, infinity's last when it branches
        there; None for a Fermat curve."""
        return None if self.kind == "fermat" else self.cover.all_exponents()


# ---------------------------------------------------------------------------
# Presentation builders: each returns the text a report prints, written as
# ``presentation_to_text`` writes the parsed presentation.


def cyclic_presentation(m: int) -> str:
    return f"<a | a^{m}>"


def central_dihedral_presentation(n: int) -> str:
    return f"<u,v | u^4, v^{n}, u*v*u*v, u^2*v*u^-2*v^-1>"


def kulkarni_presentation(n: int) -> str:
    if n % 2:
        raise DomainError("this presentation needs an even degree")
    return f"<u,v | u^4, v^{n}, u*v*u*v, u^2*v*u^2*v^{n // 2 - 1}>"


def twisted_c2_presentation(n: int, b: int) -> str:
    return f"<u,v | u^2, v^{n}, u*v*u*v^-{b}>"


def twisted_c3_presentation(n: int, k: int) -> str:
    return f"<s,t | s^3, t^{n}, s*t*s^-1*t^-{k}>"


def abelian_presentation(d: int, n: int) -> str:
    return f"<s,t | s^{d}, t^{n}, s*t*s^-1*t^-1>"


def fermat_divisor_presentation(d: int, n: int) -> str:
    return f"<s,t,u | s^{d}, t^{n}, u^2, s*t*s^-1*t^-1, s*u*s^-1*u^-1, u*t*u*t*s>"


def fermat_quadratic_presentation(n: int) -> str:
    return f"<a,b,u | a^{n}, b^{n}, a*b*a*b, a*b*a^-1*b^-1, u^2, u*a*u*b^-1, u*b*u*a^-1>"


def fermat_cubic_presentation(n: int) -> str:
    return f"<a,b,u | a^{n}, b^{n}, a*b*a*b*a*b, a*b*a^-1*b^-1, u^2, u*a*u*b^-1, u*b*u*a^-1>"


def octahedral_times_c4_presentation() -> str:
    return "<x,y | x^2, y^3, x^2*y*x*y*x*y*x^-1*y^-1*x^-1*y^-1*x^-1*y^-1*x^-1>"


# ---------------------------------------------------------------------------
# Verdicts and reports


def _cyclic(m: int) -> GroupDescriptor:
    return GroupDescriptor(m, "CYCLIC", (m,), cyclic_presentation(m))


# Each rule is (row id, holds, build).  holds(n, x) tests the row at degree n
# on one lead x: the d of a Fermat curve, or the x of a unit-led form
# (1, x, y) of a triple, a unit multiple of a permutation of it with
# y = n-1-x (as 1 + x + y = 0 mod n).  Every Belyi row's triple contains 1,
# so a triple is in a row's class exactly when the row holds on one of its
# leads.  The first row in table order that holds on some lead fires, with
# the least such lead as its twist; build(n, twist) gives the group, the
# extension-chain row ids and the genus column (None on Fermat rows, whose
# genus has a closed form).  DEFAULT is cyclic.
_Holds = Callable[[int, int], bool]
_Build = Callable[[int, int], tuple[GroupDescriptor, tuple[str, ...], Optional[int]]]
_Rule = tuple[str, _Holds, _Build]


class Verdict(NamedTuple):
    """What a rule table says of one admissible triple or Fermat curve:
    everything a report holds except the cover (a Fermat verdict has no
    canonical triple)."""

    canonical: Optional[tuple[int, int, int]]
    row: str
    group: GroupDescriptor
    chain: tuple[ChainStep, ...]
    genus: int
    signature: Signature


@lru_cache(maxsize=256)
def _verdict(family: str, n: int, leads: tuple[int, ...],
             canonical: Optional[tuple[int, int, int]]) -> Verdict:
    """The verdict of the family's rule table on these sorted leads at degree
    n: those of a triple with this canonical triple, or the lead d of the
    Fermat curve y^n + x^d = 1 (whose canonical is None).  Genus, periods and
    base order follow from the arguments: from the canonical triple's gcds,
    or from closed forms in d and n.  So an entry's size does not grow with
    the cover's branch points.  Below genus 2 no extension chain applies, so
    none is built.

    Checks the row's genus column and the order law group.order = base_order
    x chain indices (for genus >= 2).  Every input of both checks follows
    from the arguments, and the verdict is frozen, so checking it once, when
    it is memoised, checks every verdict it serves.
    """
    if family == "fermat":
        (d,) = leads
        g = (2 - d - gcd(d, n) + (d - 1) * n) // 2
        periods, base_order = (d, n, lcm(d, n)), d * n
    else:
        g, periods = genus_and_periods(n, tuple(gcd(n, k) for k in canonical))
        base_order = n
    for row, holds, build in _RULES[family]:
        twist = next((x for x in leads if holds(n, x)), None)
        if twist is not None:
            group, chain_rows, genus_column = build(n, twist)
            break
    else:
        row, group, chain_rows, genus_column = "DEFAULT", _cyclic(n), (), None
    sig = Signature(periods)
    steps = chain_steps(sig, chain_rows) if g >= 2 else ()
    assert genus_column in (None, g), f"row {row} genus column mismatch"
    assert g < 2 or group.order == base_order * prod(step.index for step in steps), (
        f"order law broken on row {row}: {group.order} != {base_order} x chain")
    return Verdict(canonical, row, group, steps, g, sig)


# The notes a report carries on its row.
_ROW_NOTES = {"F.7": "signature admits an extension but no compatible epimorphism survives it"}


def _report(kind: str, cover: CyclicCover, verdict: Verdict, base_order: int,
            row_names: Optional[dict[str, str]] = None) -> ClassificationReport:
    """The report on a cover from its verdict, its row renamed by row_names;
    below genus 2 it notes that no extension chain applies."""
    canon, row, group, steps, g, sig = verdict
    if row_names is not None:
        row = row_names[row]
    notes = _ROW_NOTES.get(row, "")
    if g < 2 and not notes:
        notes = "genus below 2: table row reported verbatim, extension chain not applicable"
    return ClassificationReport(kind, cover, canon, g, sig, row, group, steps, base_order, notes)


# ---------------------------------------------------------------------------
# Three-branch-point classification


def _exact(row: str, degree: int, triple: tuple[int, int, int], chain_row: str,
           genus_column: int, group: GroupDescriptor) -> _Rule:
    """An exceptional row: one literal triple, led by 1, at one degree."""
    return (row, lambda n, x: n == degree and x == triple[1],
            lambda n, twist: (group, (chain_row,), genus_column))


def _build_a2(n: int, twist: int):
    group = GroupDescriptor(4 * n, "CENTRAL_EXT", (2, f"D{2 * n}"),
                            central_dihedral_presentation(n))
    return group, ("12",), n // 2 - 1


def _build_b2(n: int, twist: int):
    group = GroupDescriptor(4 * n, "NAMED", (f"(Z{n}:Z2):Z2",), kulkarni_presentation(n))
    return group, ("12",), n // 2 - 1


def _build_b1(n: int, twist: int):
    group = GroupDescriptor(2 * n, "CYCLIC_SEMIDIRECT_C2", (n, twist),
                            twisted_c2_presentation(n, twist))
    return group, ("3",), (n - gcd(n, twist + 1)) // 2


def _build_c1(n: int, twist: int):
    group = GroupDescriptor(3 * n, "CYCLIC_SEMIDIRECT_C3", (n, twist),
                            twisted_c3_presentation(n, twist))
    return group, ("1",), (n - 1) // 2


# The genus column of each row is typed in from the paper's table, not
# derived: it is a transcription check, which _verdict asserts against the
# genus of the gcds on each verdict of the row it builds.
_BELYI_RULES: tuple[_Rule, ...] = (
    _exact("B.3", 8, (1, 2, 5), "7", 3,
           GroupDescriptor(96, "DIRECT_SUM_SEMIDIRECT", ((4, 4), "S3"))),
    _exact("C.2", 7, (1, 2, 4), "4", 3, GroupDescriptor(168, "NAMED", ("PSL(2,7)",))),
    _exact("D.1", 12, (1, 3, 8), "13", 3, GroupDescriptor(48, "CENTRAL_EXT", (4, "A4"))),
    _exact("E.1", 8, (1, 3, 4), "11", 2, GroupDescriptor(48, "NAMED", ("GL(2,3)",))),
    _exact("E.2", 12, (1, 4, 7), "11", 4, GroupDescriptor(72, "CENTRAL_EXT", (3, "S4"))),
    _exact("E.3", 24, (1, 4, 19), "11", 10, GroupDescriptor(144, "CENTRAL_EXT", (6, "S4"))),
    ("A.1", lambda n, x: x == 1 and n % 2 == 1,
     lambda n, twist: (_cyclic(2 * n), ("3",), (n - 1) // 2)),
    ("A.2", lambda n, x: x == 1 and n % 2 == 0, _build_a2),
    ("B.2", lambda n, x: x == n // 2 - 2 and n % 8 == 0 and n > 8, _build_b2),
    ("B.1", lambda n, x: x != 1 and x * x % n == 1, _build_b1),
    ("C.1", lambda n, x: (1 + x + x * x) % n == 0, _build_c1),
)


def _lead_verdict(n: int, a: int, b: int, c: int, gcd_of, inverse_of) -> Verdict:
    """The verdict of ``_BELYI_RULES`` on the admissible triple (a, b, c) at
    degree n, given gcd_of[k] = gcd(n, k) for each entry k and
    inverse_of[k] = k^-1 mod n for each unit entry.

    A unit entry k leads two unit-led forms, with leads s/k mod n for the
    other entries s.  The canonical triple is (1, m, n-1-m) for the least
    lead m, or ``canonical_triple``'s without one; genus and signature come
    from its gcds, which are the triple's in some order.  The sorted leads
    are the same for every member of a class (each unit entry k adds the
    pair {s/k, n-1-s/k}, and a unit rescaling keeps the ratios), so a class
    costs ``_verdict`` one memo miss.
    """
    leads = []
    for k, s in ((a, b), (b, c), (c, a)):
        if gcd_of[k] == 1:
            x = inverse_of[k] * s % n
            leads += x, n - 1 - x
    leads.sort()
    canon = (1, leads[0], n - 1 - leads[0]) if leads else canonical_triple(n, a, b, c)
    return _verdict("belyi", n, tuple(leads), canon)


def belyi_verdict(n: int, a: int, b: int, c: int) -> Verdict:
    """The verdict of ``_BELYI_RULES`` on the triple (a, b, c) at degree n.

    The triple is validated once, as its gcds with n are taken, and each
    unit entry is inverted with ``pow``; ``_lead_verdict`` reads the leads
    from these, as it does from ``belyi_verdicts``' per-degree tables.
    """
    if n < 4:
        raise DomainError(f"three-branch-point classification needs degree >= 4, got {n}")
    gcd_of = dict(zip((a, b, c), triple_gcds(n, a, b, c)))
    inverse_of = {k: pow(k, -1, n) for k, g in gcd_of.items() if g == 1}
    return _lead_verdict(n, a, b, c, gcd_of, inverse_of)


def belyi_verdicts(n: int) -> Iterator[tuple[tuple[int, int, int], Verdict]]:
    """Every admissible ordered triple (a, b, c) of degree n with its
    verdict, in lexicographic order, each verdict that of ``belyi_verdict``.

    gcd(n, k) and k^-1 mod n are tabled once for the degree, so a triple
    pays for no validation, gcd with n or inverse: (a, b) runs over
    [1, n-1]^2, c is -(a + b) mod n, and the triple is admissible when c is
    nonzero and gcd(n, a) and gcd(n, b) are coprime (a factor common to n,
    a and b divides c = -(a + b) mod n too).
    """
    if n < 4:
        raise DomainError(f"three-branch-point classification needs degree >= 4, got {n}")
    gcd_of = [gcd(n, k) for k in range(n)]
    inverse_of = [pow(k, -1, n) if g == 1 else 0 for k, g in enumerate(gcd_of)]
    for a in range(1, n):
        ga = gcd_of[a]
        for b in range(1, n):
            c = -(a + b) % n
            if c and gcd(ga, gcd_of[b]) == 1:
                yield (a, b, c), _lead_verdict(n, a, b, c, gcd_of, inverse_of)


def classify_belyi(n: int, a: int, b: int, c: int) -> ClassificationReport:
    """Full automorphism group of y^n = x^a (x-1)^b (x+1)^c, by ``_BELYI_RULES``.

    The cover is built from the triple as given, since an admissible triple
    needs no reduction and leaves infinity unbranched.
    """
    verdict = belyi_verdict(n, a, b, c)
    cover = CyclicCover(n, ((ZERO, a), (ONE, b), (MINUS_ONE, c)))
    return _report("belyi", cover, verdict, n)


def classify_cover(cover: CyclicCover) -> ClassificationReport:
    """Classify a parsed cover; the cover must branch over exactly three
    points, infinity among them when its exponent there is nonzero.  The
    report holds the cover as parsed."""
    ks = cover.all_exponents()
    if len(ks) != 3:
        raise DomainError(
            f"classification needs exactly three branch points, this cover has {len(ks)}"
        )
    return _report("belyi", cover, belyi_verdict(cover.n, *ks), cover.n)


# ---------------------------------------------------------------------------
# Prime-degree two-branch-point family


def lefschetz_canonical(p: int, a: int) -> int:
    """Representative exponent in [1, (p-1)/2): fold a > (p-1)/2 to p-a-1, (p-1)/2 to 1."""
    _validate_lefschetz(p, a)
    half = (p - 1) // 2
    if a == half:
        return 1
    if a > half:
        return p - a - 1
    return a


def _require_prime_degree(p: int) -> None:
    if not is_prime(p) or p < 5:
        raise DomainError(f"degree must be a prime >= 5, got {p}")


def _validate_lefschetz(p: int, a: int) -> None:
    _require_prime_degree(p)
    if not 1 <= a <= p - 2:
        raise DomainError(f"exponent {a} outside [1, {p - 2}] (a = p-1 drops a branch point)")


# The table rows a prime-degree cover y^p = x^a (x+1) can fire, by Lefschetz row.
_LEFSCHETZ_ROWS = {"A.1": "L.1", "C.2": "L.2", "C.1": "L.3", "DEFAULT": "L.4"}


def classify_lefschetz(p: int, a: int) -> ClassificationReport:
    """Full automorphism group of y^p = x^a (x+1) for prime p >= 5: the
    three-point answer for exponents (a0, 1, p-1-a0) over 0, -1 and infinity."""
    a0 = lefschetz_canonical(p, a)
    return _report("lefschetz", lefschetz_cover(p, a0), belyi_verdict(p, a0, 1, p - 1 - a0), p,
                   _LEFSCHETZ_ROWS)


def lefschetz_isomorphic(p: int, a: int, b: int) -> bool:
    """Curve-isomorphism test for canonical exponents a, b in [1, (p-1)/2):
    the covers' exponent triples (a, 1, p-1-a) and (b, 1, p-1-b) lie in one
    class."""
    _require_prime_degree(p)
    half = (p - 1) // 2
    for v in (a, b):
        if not 1 <= v < half:
            raise DomainError(f"exponent {v} outside [1, {half})")
    return canonical_triple(p, a, 1, p - 1 - a) == canonical_triple(p, b, 1, p - 1 - b)


# ---------------------------------------------------------------------------
# Fermat curves

# Rows F.1-F.8 on the lead d of y^n + x^d = 1, in the order they are
# decided: the quadratic and cubic rows, then the diagonal d = n, then by
# whether d divides n.
_FERMAT_RULES: tuple[_Rule, ...] = (
    ("F.4", lambda n, d: d == 2 and n % 2 == 1, lambda n, d: (_cyclic(2 * n), (), None)),
    ("F.5", lambda n, d: d == 2 and n % 2 == 0,
     lambda n, d: (GroupDescriptor(4 * n, "DIRECT_SUM_SEMIDIRECT", ((2, n), "Z2"),
                                   fermat_quadratic_presentation(n)), ("3",), None)),
    ("F.8", lambda n, d: d == 3 and n == 4,
     lambda n, d: (GroupDescriptor(48, "CENTRAL_EXT", (4, "A4"),
                                   octahedral_times_c4_presentation()), ("13",), None)),
    ("F.6", lambda n, d: d == 3 and n % 3 == 0,
     lambda n, d: (GroupDescriptor(6 * n, "DIRECT_SUM_SEMIDIRECT", ((3, n), "Z2"),
                                   fermat_cubic_presentation(n)), ("3",), None)),
    ("F.7", lambda n, d: d == 3, lambda n, d: (_cyclic(3 * n), (), None)),
    ("F.1", lambda n, d: d == n,
     lambda n, d: (GroupDescriptor(6 * n * n, "DIRECT_SUM_SEMIDIRECT", ((n, n), "S3")),
                   ("2",), None)),
    ("F.2", lambda n, d: n % d != 0,
     lambda n, d: (GroupDescriptor(d * n, "ABELIAN", (d, n), abelian_presentation(d, n)),
                   (), None)),
    ("F.3", lambda n, d: True,
     lambda n, d: (GroupDescriptor(2 * d * n, "CENTRAL_EXT", (d, f"D{2 * n}"),
                                   fermat_divisor_presentation(d, n)), ("3",), None)),
)

_RULES = {"belyi": _BELYI_RULES, "fermat": _FERMAT_RULES}


def classify_fermat(n: int, d: int) -> ClassificationReport:
    """Full automorphism group of y^n + x^d = 1, by ``_FERMAT_RULES``.

    The reported signature is (d, n, lcm(d, n)): that of the Z_d x Z_n
    action (x, y) -> (zeta x, omega y), whose quotient map is (x, y) -> x^d.
    The order law runs from base order d*n, the order of that action.
    """
    if not 2 <= d <= n:
        raise DomainError(f"need 2 <= d <= n, got d={d}, n={n}")
    cover = fermat_cover(n, d)
    g = genus(cover)
    if g < 2:
        raise DomainError(f"below hyperbolic range: y^{n} + x^{d} = 1 has genus {g}")
    verdict = _verdict("fermat", n, (d,), None)
    assert verdict.genus == g, "genus closed form mismatch"
    return _report("fermat", cover, verdict, d * n)


# ---------------------------------------------------------------------------
# Serialization


def report_to_json_dict(report: ClassificationReport) -> dict:
    out: dict = {
        "input": cover_to_json_dict(report.cover),
        "canonical_triple": list(report.canonical) if report.canonical else None,
        "genus": report.genus,
        "signature": list(report.signature.periods),
        "row": report.row,
        "order": report.group.order,
        "structure": report.group.structure,
    }
    if report.group.presentation_text is not None:
        out["presentation"] = report.group.presentation_text
    out["chain"] = [
        {"row": step.row_id, "signature": list(step.signature.periods), "index": step.index}
        for step in report.chain
    ]
    out["base_order"] = report.base_order
    if report.notes:
        out["notes"] = report.notes
    return out
