"""Exact integer arithmetic primitives shared by every other module.

All arithmetic is over Python's arbitrary-precision integers.  The unit
helpers answer congruence questions by exhaustive residue scans, O(n) per
call (trial division in factorize costs O(sqrt(n)); is_prime runs
Miller-Rabin on a fixed set of bases, O(log n) multiplications).  A
classification makes no such scan: its canonical triple has a closed form,
and its table rows test congruences on the triple's unit-led forms.

No module calls ``units``, ``involutory_units`` or ``omega_units``.  They
stay because the benchmark's traced spans wrap them by name
(``perfbench/spans.py``); they leave together with those spans.
"""

from __future__ import annotations

from math import gcd


class DomainError(ValueError):
    """An input lies outside the documented domain of an operation."""


Factorization = list[tuple[int, int]]


# The first 13 primes, and the least odd composite that is a strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017): below
# it, Miller-Rabin with these bases decides primality exactly.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIMALITY = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality check for p < MAX_PRIMALITY;
    a DomainError above it."""
    if p >= MAX_PRIMALITY:
        raise DomainError(f"primality is decided below {MAX_PRIMALITY}, got {p}")
    if p < 2:
        return False
    if p in _MILLER_RABIN_BASES:
        return True
    if any(p % q == 0 for q in _MILLER_RABIN_BASES):
        return False
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in _MILLER_RABIN_BASES:
        x = pow(base, odd, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> Factorization:
    """Prime factorization as (prime, exponent) pairs with strictly increasing primes."""
    if n < 2:
        raise DomainError(f"factorize requires n >= 2, got {n}")
    out: Factorization = []
    rest = n
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return out


def involutory_units(n: int) -> list[int]:
    """All k in [2, n-1] with k^2 = 1 (mod n), ascending."""
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    return [k for k in range(2, n) if (k * k) % n == 1]


def omega_units(n: int) -> list[int]:
    """All k in [1, n-1] with 1 + k + k^2 = 0 (mod n), ascending (may be empty)."""
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    return [k for k in range(1, n) if (1 + k + k * k) % n == 0]


def units(n: int) -> list[int]:
    """The unit group of Z_n as the ascending list of residues coprime to n."""
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    return [k for k in range(1, n) if gcd(k, n) == 1]

