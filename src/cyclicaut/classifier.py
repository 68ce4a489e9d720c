"""Classification of full automorphism groups of cyclic covers.

Total decision procedures for three families: three-branch-point covers
y^n = x^a (x-1)^b (x+1)^c, the two-finite-branch-point prime-degree family
y^p = x^a (x+1), and Fermat curves y^n + x^d = 1.  Each verdict names a
table row, the group and the signature-extension chain that produces it.  A
group is written once, as its order, kind and params; its structure string
is formatted from kind and params, and its presentation (on rows that ship
one) is kept as the text reports print, parsed only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Callable, Optional, Sequence

from .curve import (
    CyclicCover,
    Signature,
    belyi_cover,
    canonical_triple,
    cover_to_json_dict,
    fermat_cover,
    genus,
    lefschetz_cover,
    signature_of,
)
from .fuchsian import ChainStep, chain_steps
from .grouptheory import Presentation, parse_presentation
from .numtheory import DomainError, gcd_many, is_prime


# ---------------------------------------------------------------------------
# Group descriptors

# How each kind of group is written, formatted with the group's params.
_STRUCTURE_FORMATS = {
    "CYCLIC": "Z{0}",
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

    @property
    def structure(self) -> str:
        return _STRUCTURE_FORMATS[self.kind].format(*self.params)

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
    n: int
    triple: Optional[tuple[int, int, int]]
    canonical: Optional[tuple[int, int, int]]
    genus: int
    signature: Signature
    row: str
    group: GroupDescriptor
    chain: tuple[ChainStep, ...]
    base_order: int
    notes: str = ""


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
# Report assembly


def _cyclic(m: int) -> GroupDescriptor:
    return GroupDescriptor(m, "CYCLIC", (m,), cyclic_presentation(m))


def _make_report(
    kind: str,
    cover: CyclicCover,
    triple: Optional[tuple[int, int, int]],
    canonical: Optional[tuple[int, int, int]],
    sig: Signature,
    row: str,
    group: GroupDescriptor,
    chain_rows: Sequence[str],
    base_order: int,
    g: int,
    notes: str = "",
) -> ClassificationReport:
    """Walk the extension chain from sig through chain_rows, then check the
    order law group.order = base_order x chain indices (for genus >= 2)."""
    steps = chain_steps(sig, chain_rows)
    if g >= 2:
        expected = base_order * prod(step.index for step in steps)
        assert group.order == expected, (
            f"order law broken on row {row}: {group.order} != {base_order} x chain"
        )
    elif not notes:
        notes = "genus below 2: table row reported verbatim, extension chain not applicable"
    return ClassificationReport(
        kind, cover, cover.n, triple, canonical, g, sig, row, group, steps, base_order, notes
    )


# ---------------------------------------------------------------------------
# Three-branch-point classification

# Each rule is (row id, holds, build).  Every row's triple contains the
# entry 1, so a triple lies in a row's class exactly when one of its unit-led
# forms (1, x, y) -- a unit multiple of a permutation of the triple -- has
# holds(n, x, y).  The first such row in table order fires, with the least
# such x as its twist, and build(n, twist) gives the group, the extension-chain
# row ids and the genus column; a triple no row holds for is cyclic (DEFAULT).
_Holds = Callable[[int, int, int], bool]
_Build = Callable[[int, int], tuple[GroupDescriptor, tuple[str, ...], int]]


def _exact(row: str, degree: int, triple: tuple[int, int, int], chain_row: str,
           genus_column: int, group: GroupDescriptor) -> tuple[str, _Holds, _Build]:
    """An exceptional row: one literal triple, led by 1, at one degree."""
    return (
        row,
        lambda n, x, y: n == degree and (1, x, y) == triple,
        lambda n, twist: (group, (chain_row,), genus_column),
    )


def _build_a2(n: int, twist: int):
    group = GroupDescriptor(4 * n, "CENTRAL_EXT", (2, f"D{2 * n}"),
                            central_dihedral_presentation(n))
    return group, ("12",) if n >= 6 else (), n // 2 - 1


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


_BELYI_RULES: tuple[tuple[str, _Holds, _Build], ...] = (
    _exact("B.3", 8, (1, 2, 5), "7", 3,
           GroupDescriptor(96, "DIRECT_SUM_SEMIDIRECT", ((4, 4), "S3"))),
    _exact("C.2", 7, (1, 2, 4), "4", 3, GroupDescriptor(168, "NAMED", ("PSL(2,7)",))),
    _exact("D.1", 12, (1, 3, 8), "13", 3, GroupDescriptor(48, "CENTRAL_EXT", (4, "A4"))),
    _exact("E.1", 8, (1, 3, 4), "11", 2, GroupDescriptor(48, "NAMED", ("GL(2,3)",))),
    _exact("E.2", 12, (1, 4, 7), "11", 4, GroupDescriptor(72, "CENTRAL_EXT", (3, "S4"))),
    _exact("E.3", 24, (1, 4, 19), "11", 10, GroupDescriptor(144, "CENTRAL_EXT", (6, "S4"))),
    ("A.1", lambda n, x, y: n % 2 == 1 and x == 1,
     lambda n, twist: (_cyclic(2 * n), ("3",), (n - 1) // 2)),
    ("A.2", lambda n, x, y: n % 2 == 0 and x == 1, _build_a2),
    ("B.2", lambda n, x, y: n % 8 == 0 and n > 8 and (x, y) == (n // 2 - 2, n // 2 + 1),
     _build_b2),
    ("B.1", lambda n, x, y: x != 1 and x * x % n == 1, _build_b1),
    ("C.1", lambda n, x, y: (1 + x + x * x) % n == 0, _build_c1),
)


def _unit_led_forms(n: int, triple: tuple[int, int, int]) -> list[tuple[int, int]]:
    """The pairs (x, y) with (1, x, y) a unit multiple of a permutation of the
    triple: each unit entry k, scaled by k^-1 to 1, leads two of them."""
    forms = []
    for i, k in enumerate(triple):
        if gcd(k, n) == 1:
            inv = pow(k, -1, n)
            x, y = (inv * t % n for j, t in enumerate(triple) if j != i)
            forms += [(x, y), (y, x)]
    return forms


def _three_point_report(kind: str, cover: CyclicCover, triple: tuple[int, int, int],
                        canon: tuple[int, int, int],
                        row_names: Optional[dict[str, str]] = None) -> ClassificationReport:
    """Report on a cover branched over three points with exponents `triple`:
    the first row of ``_BELYI_RULES`` that fires, renamed by row_names."""
    n = cover.n
    g = genus(cover)
    forms = _unit_led_forms(n, triple)
    for row, holds, build in _BELYI_RULES:
        twists = [x for x, y in forms if holds(n, x, y)]
        if twists:
            group, chain_rows, genus_column = build(n, min(twists))
            assert g == genus_column, f"row {row} genus column mismatch"
            break
    else:
        row, group, chain_rows = "DEFAULT", _cyclic(n), ()
    if row_names is not None:
        row = row_names[row]
    return _make_report(kind, cover, triple, canon, signature_of(cover), row, group, chain_rows,
                        n, g)


def classify_belyi(n: int, a: int, b: int, c: int) -> ClassificationReport:
    """Full automorphism group of y^n = x^a (x-1)^b (x+1)^c, by ``_BELYI_RULES``."""
    if n < 4:
        raise DomainError(f"three-branch-point classification needs degree >= 4, got {n}")
    canon = canonical_triple(n, a, b, c)
    return _three_point_report("belyi", belyi_cover(n, a, b, c), (a, b, c), canon)


def classify_cover(cover: CyclicCover) -> ClassificationReport:
    """Classify a parsed cover; the cover must branch over exactly three points."""
    ks = cover.all_exponents()
    if len(ks) != 3:
        raise DomainError(
            f"classification needs exactly three branch points, this cover has {len(ks)}"
        )
    return classify_belyi(cover.n, *ks)


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


def _validate_lefschetz(p: int, a: int) -> None:
    if not is_prime(p) or p < 5:
        raise DomainError(f"degree must be a prime >= 5, got {p}")
    if not 1 <= a <= p - 2:
        raise DomainError(f"exponent {a} outside [1, {p - 2}] (a = p-1 drops a branch point)")


# The table rows a prime-degree cover y^p = x^a (x+1) can fire, by Lefschetz row.
_LEFSCHETZ_ROWS = {"A.1": "L.1", "C.2": "L.2", "C.1": "L.3", "DEFAULT": "L.4"}


def classify_lefschetz(p: int, a: int) -> ClassificationReport:
    """Full automorphism group of y^p = x^a (x+1) for prime p >= 5: the
    three-point answer for exponents (a0, 1, p-1-a0) over 0, -1 and infinity."""
    a0 = lefschetz_canonical(p, a)
    triple = (a0, 1, p - 1 - a0)
    return _three_point_report("lefschetz", lefschetz_cover(p, a0), triple,
                               canonical_triple(p, *triple), _LEFSCHETZ_ROWS)


def lefschetz_isomorphic(p: int, a: int, b: int) -> bool:
    """Curve-isomorphism test for canonical exponents a, b in [1, (p-1)/2)."""
    if not is_prime(p) or p < 5:
        raise DomainError(f"degree must be a prime >= 5, got {p}")
    half = (p - 1) // 2
    for v in (a, b):
        if not 1 <= v < half:
            raise DomainError(f"exponent {v} outside [1, {half})")
    if a == b:
        return True
    return any(
        value % p == 0
        for value in (a * b + b + 1, a * b + a + 1, a + b + a * b, a * b - 1)
    )


# ---------------------------------------------------------------------------
# Fermat curves


def classify_fermat(n: int, d: int) -> ClassificationReport:
    """Full automorphism group of y^n + x^d = 1.

    The reported signature is (d, n, lcm(d, n)): that of the Z_d x Z_n
    action (x, y) -> (zeta x, omega y), whose quotient map is (x, y) -> x^d.
    The order law runs from base order d*n, the order of that action.
    """
    if not 2 <= d <= n:
        raise DomainError(f"need 2 <= d <= n, got d={d}, n={n}")
    cover = fermat_cover(n, d)
    g = genus(cover)
    assert 2 * g == 2 - d - gcd(d, n) + (d - 1) * n, "genus closed form mismatch"
    if g < 2:
        raise DomainError(f"below hyperbolic range: y^{n} + x^{d} = 1 has genus {g}")
    base = d * n
    sig = Signature(0, (d, n, lcm(d, n)))

    def report(row, group, chain_rows, notes=""):
        return _make_report("fermat", cover, None, None, sig, row, group, chain_rows, base, g, notes)

    if d == 2:
        if n % 2:
            return report("F.4", _cyclic(2 * n), [])
        group = GroupDescriptor(4 * n, "DIRECT_SUM_SEMIDIRECT", ((2, n), "Z2"),
                                fermat_quadratic_presentation(n))
        return report("F.5", group, ["3"])
    if d == 3:
        if n == 4:
            group = GroupDescriptor(48, "CENTRAL_EXT", (4, "A4"),
                                    octahedral_times_c4_presentation())
            return report("F.8", group, ["13"])
        if n % 3 == 0:
            group = GroupDescriptor(6 * n, "DIRECT_SUM_SEMIDIRECT", ((3, n), "Z2"),
                                    fermat_cubic_presentation(n))
            return report("F.6", group, ["3"])
        return report(
            "F.7", _cyclic(3 * n), [],
            notes="signature admits an extension but no compatible epimorphism survives it",
        )
    if d == n:
        return report("F.1", GroupDescriptor(6 * n * n, "DIRECT_SUM_SEMIDIRECT", ((n, n), "S3")),
                      ["2"])
    if n % d:
        return report("F.2", GroupDescriptor(d * n, "ABELIAN", (d, n), abelian_presentation(d, n)),
                      [])
    group = GroupDescriptor(2 * d * n, "CENTRAL_EXT", (d, f"D{2 * n}"),
                            fermat_divisor_presentation(d, n))
    return report("F.3", group, ["3"])


# ---------------------------------------------------------------------------
# Corollaries


def dihedral_four_branch(n: int, k1: int, k2: int, k3: int, k4: int) -> bool:
    """Does the dihedral group of order 2n act on y^n = prod (x-a_i)^{k_i}?

    True iff the four exponents pair up with equal gcd(n, k) within each pair.
    """
    ks = (k1, k2, k3, k4)
    if n < 2:
        raise DomainError(f"cover degree must be >= 2, got {n}")
    for k in ks:
        if not 1 <= k <= n - 1:
            raise DomainError(f"exponent {k} outside [1, {n - 1}]")
    if sum(ks) % n:
        raise DomainError("exponents do not sum to 0 mod n")
    if gcd_many([n, *ks]) != 1:
        raise DomainError("cover is reducible")
    g1, g2, g3, g4 = sorted(gcd(n, k) for k in ks)
    return g1 == g2 and g3 == g4


def stability_normal(p: int, r: int) -> bool:
    """Is the deck Z_p automatically normal in the full group: true iff r > 2p."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if r < 1:
        raise DomainError("branch point count must be positive")
    return r > 2 * p


# ---------------------------------------------------------------------------
# Presentations and serialization


def presentation_for(report: ClassificationReport) -> Optional[Presentation]:
    """The report's presentation, or None when its row ships none."""
    return report.group.presentation


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
