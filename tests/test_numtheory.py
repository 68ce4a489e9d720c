from math import isqrt

import pytest
from hypothesis import given, strategies as st

from cyclicaut.numtheory import (
    MAX_PRIMALITY,
    DomainError,
    factorize,
    involutory_units,
    is_prime,
    omega_units,
    units,
)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 7919]
    composites = [0, 1, 4, 6, 9, 15, 91, 7917]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


# Carmichael numbers, and the least strong pseudoprimes to the first 3, 4,
# 5, 6, 7, 9 and 12 prime bases: each fools Miller-Rabin on a shorter set
# of bases than is_prime uses
_CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
               5394826801, 232250619601, 9746347772161]
_STRONG_PSEUDOPRIMES = [25326001, 3215031751, 2152302898747, 3474749660383,
                        341550071728321, 3825123056546413051, 318665857834031151167461]


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    for p in range(-5, 20_000):
        assert is_prime(p) == sympy.isprime(p), p
    for c in _CARMICHAEL + _STRONG_PSEUDOPRIMES:
        assert not is_prime(c) and not sympy.isprime(c), c
    # neighbours of the pseudoprimes, primes near powers of ten, and squares
    # and products of primes near the square root of the bound
    samples = [c + d for c in _CARMICHAEL + _STRONG_PSEUDOPRIMES for d in (-2, 2)]
    samples += [sympy.nextprime(10**k) for k in range(5, 25)]
    samples += [sympy.prevprime(MAX_PRIMALITY)]
    root = sympy.prevprime(isqrt(MAX_PRIMALITY))
    samples += [root * root, root * sympy.prevprime(root)]
    for p in samples:
        assert is_prime(p) == sympy.isprime(p), p


def test_is_prime_refuses_numbers_past_its_bases():
    # the least odd composite that is a strong pseudoprime to all 13 bases
    assert MAX_PRIMALITY == 1287836182261 * 2575672364521
    assert is_prime(MAX_PRIMALITY - 2) is False
    for p in (MAX_PRIMALITY, 10**30 + 57):
        with pytest.raises(DomainError, match="primality is decided below"):
            is_prime(p)


def test_factorize_values():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(7) == [(7, 1)]
    assert factorize(168) == [(2, 3), (3, 1), (7, 1)]
    with pytest.raises(DomainError):
        factorize(1)
    with pytest.raises(DomainError):
        factorize(0)


@given(st.integers(min_value=2, max_value=10_000))
def test_factorize_reconstructs(n):
    out = 1
    for p, e in factorize(n):
        assert is_prime(p)
        out *= p**e
    assert out == n
    ps = [p for p, _ in factorize(n)]
    assert ps == sorted(ps)


def test_involutory_units_values():
    assert involutory_units(15) == [4, 11, 14]
    assert involutory_units(7) == [6]
    assert involutory_units(3) == [2]
    assert involutory_units(8) == [3, 5, 7]


def test_involutory_units_sweep():
    for n in range(2, 300):
        got = involutory_units(n)
        want = [k for k in range(2, n) if (k * k) % n == 1]
        assert got == want


def test_omega_units_values():
    assert omega_units(7) == [2, 4]
    assert omega_units(13) == [3, 9]
    assert omega_units(9) == []
    assert omega_units(3) == [1]


def test_omega_units_sweep():
    for n in range(2, 300):
        got = omega_units(n)
        want = [k for k in range(1, n) if (1 + k + k * k) % n == 0]
        assert got == want
        if got:
            # solvability forces every prime factor to be 3 (at most once) or 1 mod 3
            assert n % 9 != 0
            assert all(p == 3 or p % 3 == 1 for p, _ in factorize(n))


def test_units_and_inverse():
    assert units(8) == [1, 3, 5, 7]
    assert units(7) == [1, 2, 3, 4, 5, 6]
    # the units are exactly the residues with an inverse
    for n in (5, 12, 30):
        for k in range(1, n):
            try:
                inverse = pow(k, -1, n)
            except ValueError:
                assert k not in units(n)
            else:
                assert k in units(n) and k * inverse % n == 1
