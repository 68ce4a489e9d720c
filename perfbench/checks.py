"""Independent computations the output checker compares cyclicaut against.

Nothing here calls the code under test: determinants come from fraction-free
Bareiss elimination, admissible-triple counts from a Moebius sum, genera
from the Riemann-Hurwitz formula, and canonical forms and orbit sizes from
a brute-force scan over the units.
"""

from __future__ import annotations

from itertools import permutations
from math import gcd, prod


def bareiss_det(matrix: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(row) for row in matrix]
    size = len(a)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if size else 1


def snf_problem(diag: list[int], det: int) -> str | None:
    """Why ``diag`` cannot be the Smith diagonal of a matrix with this determinant."""
    nonzero = [d for d in diag if d]
    if nonzero != diag[: len(nonzero)]:
        return f"zero entries precede nonzero ones in {diag}"
    if any(d < 0 for d in diag):
        return f"negative diagonal entry in {diag}"
    for x, y in zip(nonzero, nonzero[1:]):
        if y % x:
            return f"{x} does not divide {y}"
    if prod(diag) != abs(det):
        return f"diagonal product {prod(diag)} != |det| {abs(det)}"
    return None


def _moebius(n: int) -> int:
    out, rest, p = 1, n, 2
    while p * p <= rest:
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                return 0
            out = -out
        p += 1
    return -out if rest > 1 else out


def admissible_count(n: int) -> int:
    """Ordered triples (a, b, c) in [1, n-1]^3 with a+b+c = 0 mod n and
    gcd(n, a, b, c) = 1: sum over d | n of mu(d) (n/d - 1)(n/d - 2)."""
    return sum(
        _moebius(d) * (n // d - 1) * (n // d - 2) for d in range(1, n + 1) if n % d == 0
    )


def small_canonical(n: int, triple: tuple[int, int, int]) -> tuple[int, int, int]:
    """Least sorted unit multiple of a triple, by scanning every unit (small n only)."""
    return min(
        tuple(sorted(k * t % n for t in triple)) for k in range(1, n) if gcd(k, n) == 1
    )


def orbit_size(n: int, triple: tuple[int, int, int]) -> int:
    """Number of ordered triples equivalent to this one: unit multiples and permutations."""
    return len({
        ordered
        for k in range(1, n) if gcd(k, n) == 1
        for ordered in permutations(k * t % n for t in triple)
    })


def hurwitz_genus(n: int, triple: tuple[int, int, int]) -> int:
    """Genus of y^n = x^a (x-1)^b over three branch points, by Riemann-Hurwitz:
    2g - 2 = -2n + sum of (n - gcd(n, e)) over the exponents."""
    return 1 - n + sum(n - gcd(n, e) for e in triple) // 2


def rescaled(n: int, triple: tuple[int, ...], unit: int, order: tuple[int, ...]) -> tuple[int, ...]:
    """The triple multiplied by a unit mod n and permuted: an equivalent cover."""
    scaled = [unit * t % n for t in triple]
    return tuple(scaled[i] for i in order)


ORDERINGS = tuple(permutations(range(3)))

# The paper's exceptional rows named by the benchmark: (degree, canonical triple)
# -> (group order, structure).
KNOWN_BELYI = {
    (7, (1, 2, 4)): (168, "PSL(2,7)"),
    (8, (1, 2, 5)): (96, "(Z4+Z4):S3"),
}
KNOWN_FERMAT = {(4, 4): (96, "(Z4+Z4):S3")}
KNOWN_LEFSCHETZ = {(7, 2): (168, "PSL(2,7)"), (7, 4): (168, "PSL(2,7)")}

