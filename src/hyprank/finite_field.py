"""Fast exact arithmetic modulo an odd prime.

The central object is :class:`PrimeCtx`, which wraps a prime p together
with a lazily built Legendre character table, so that Legendre symbols are
O(1) lookups for scalar calls and gathers inside the O(p^2) character-sum
engine.  Everything in this module is pure and safe to share across workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd, isqrt

import numpy as np

# Above this bound residue tables are not built: legendre() falls back to
# Euler's criterion and the dense kernels refuse the prime.  2^26 keeps the
# int8 character table at 64 MiB and (p-1)^2 below 2^52.
TABLE_LIMIT = 1 << 26

# Deterministic Miller-Rabin bases: (2, 7, 61) below _MR_SMALL_LIMIT, the
# least strong pseudoprime to all three (Jaeschke 1993); the first twelve
# primes below 3.18 * 10^23 (Sorenson and Webster 2015), so for every 64-bit n.
_MR_SMALL = (2, 7, 61)
_MR_SMALL_LIMIT = 4_759_123_141
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def check_dense(p: int) -> None:
    """Refuse p >= TABLE_LIMIT before anything of length p is allocated."""
    if p >= TABLE_LIMIT:
        raise ValueError(f"p = {p} too large for the dense kernel (limit 2^26)")


class InternalCheckError(AssertionError):
    """An identity the program guarantees failed to hold (a bug signal)."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit inputs.

    A base a with a = 0 mod n says nothing about n and is skipped: without
    that, n = 7 and n = 61 would fail their own base.
    """
    if n < 3 or n % 2 == 0:
        return n == 2
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_SMALL if n < _MR_SMALL_LIMIT else _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeCtx:
    """An odd prime p plus its lazily built Legendre character table.

    ``chi`` is a numpy int8 vector of length p with chi[a] = (a/p) in
    {-1, 0, +1}.
    """

    __slots__ = ("p", "_chi")

    def __init__(self, p: int):
        if p == 2:
            raise ValueError("p = 2 is not supported; contexts require an odd prime")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self._chi = None

    def __repr__(self):
        return f"PrimeCtx({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeCtx) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeCtx", self.p))

    @property
    def chi(self) -> np.ndarray:
        """Legendre character table as int8 array of length p."""
        if self._chi is None:
            self._chi = chi_tables([self.p])
        return self._chi


def chi_tables(primes: list[int]) -> np.ndarray:
    """The Legendre tables of the odd primes end to end, in int8.

    The table of primes[i] starts at primes[0] + ... + primes[i - 1] and
    holds (a/p) in {-1, 0, +1} at a = 0..p-1: every x in 1..(p-1)/2 marks
    x^2 mod p as a square.  ``PrimeCtx.chi`` is the table of one prime, so
    the tables of single primes and of blocks of them share one encoding;
    one prime takes no offsets, so it costs no more array steps than a
    table of its own.
    """
    top = max(primes)
    check_dense(top)
    if len(primes) == 1:
        chi = np.full(top, -1, dtype=np.int8)
        chi[0] = 0
        xs = np.arange(1, (top + 1) // 2, dtype=np.int64)
        xs *= xs
        xs %= top
    else:
        offs = list(itertools.accumulate(primes[:-1], initial=0))
        half = [(p - 1) // 2 for p in primes]
        chi = np.full(sum(primes), -1, dtype=np.int8)
        chi[offs] = 0
        xs = np.arange(1, sum(half) + 1, dtype=np.int64)
        xs -= np.repeat(list(itertools.accumulate(half[:-1], initial=0)), half)
        xs *= xs
        xs %= np.repeat(primes, half)
        xs += np.repeat(offs, half)
    chi[xs] = 1
    return chi


def primitive_root(p: int) -> int:
    """The least generator of the multiplicative group mod an odd prime p.

    r generates iff r^((p-1)/q) != 1 for every prime q | p - 1; the q come
    from trial division of p - 1, which is O(sqrt p).
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    qs, m, q = [], p - 1, 2
    while q * q <= m:
        if m % q == 0:
            qs.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        qs.append(m)
    return next(r for r in range(2, p) if all(pow(r, (p - 1) // q, p) != 1 for q in qs))


def legendre(a: int, ctx: PrimeCtx) -> int:
    """Legendre symbol (a/p): 0 if p | a, +1 for nonzero squares, -1 otherwise."""
    p = ctx.p
    a %= p
    if p < TABLE_LIMIT:
        return int(ctx.chi[a])
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def quadratic_sums(a, b, c, chi_a, p: int):
    """Sum of chi(a t^2 + b t + c) over t = 0..p-1, given chi_a = (a/p).

    The quadratic law: (p-1) chi(a) when p divides b^2 - 4ac and -chi(a)
    otherwise.  a = 0 gives chi(a) = 0, the value of a complete linear sum;
    at (a, b) = (0, 0) the sum is p chi(c), not the 0 returned here.
    Exact on Python ints of any size and, elementwise, on int64 residue
    arrays with p < 2^26 (b^2 < 2^52, 4ac < 2^54).  The test reduces b^2
    and 4ac apart, so operands that broadcast, such as a (p, 1) column of
    b against a (p,) row of c, are reduced before they meet, and only the
    comparison and the two steps after it span the (p, p) grid.
    """
    return (b * b % p == 4 * a * c % p) * (p * chi_a) - chi_a


def quadratic_char_sum(a: int, b: int, c: int, ctx: PrimeCtx) -> int:
    """Sum of (a*t^2 + b*t + c / p) over a full period t = 0..p-1.

    The law of :func:`quadratic_sums`, at any odd prime; requires
    (a, b) != (0, 0) mod p.
    """
    p = ctx.p
    a %= p
    b %= p
    c %= p
    if a == 0 and b == 0:
        raise ValueError("a and b must not both vanish mod p")
    return quadratic_sums(a, b, c, legendre(a, ctx), p)


def power_pair_count(n: int, p):
    """Number of pairs (x, y) in [0,p)^2 with x^n = y^n mod p.

    ``p`` is a :class:`PrimeCtx` or an odd prime, which give a Python int,
    or an array of odd primes, which gives the counts elementwise in its
    dtype: each is below n p.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = _modulus(p)
    return _gcd(p - 1, n) * (p - 1) + 1


def double_sum_S(h: int, p):
    """Sum of (xy/p) over pairs with x^h = y^h mod p, for even h >= 2.

    Equals gcd(h, p-1)*(p-1) when the 2-adic valuation of p-1 exceeds that
    of h, i.e. when 2^(nu2(h) + 1) divides p - 1, and 0 otherwise.  ``p``
    is taken as by :func:`power_pair_count`.
    """
    if h < 2 or h % 2 != 0:
        raise ValueError("h must be even and >= 2")
    p = _modulus(p)
    return _gcd(p - 1, h) * (p - 1) * ((p - 1) % (2 << nu2(h)) == 0)


def _modulus(p):
    """The prime of a PrimeCtx; an int or an array of primes as it is."""
    return p.p if isinstance(p, PrimeCtx) else p


def _gcd(m, n: int):
    """gcd(m, n): a Python int for an int m, elementwise for an array m."""
    return np.gcd(m, n) if isinstance(m, np.ndarray) else gcd(m, n)


def nu2(m: int) -> int:
    """2-adic valuation of a positive integer."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return (m & -m).bit_length() - 1


@dataclass(frozen=True)
class PrimeRange:
    """Inclusive prime range [lo, hi] with an explicit skip set."""

    lo: int
    hi: int
    skip: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty range: lo = {self.lo} > hi = {self.hi}")
        object.__setattr__(self, "skip", frozenset(self.skip))


def primes_in(prange: PrimeRange) -> list[int]:
    """Ascending odd primes in [lo, hi], excluding the skip set.

    Segmented sieve over the window by the base primes up to
    min(sqrt(hi), 2^16), which come from the same sieve, so that a narrow
    window at a huge bound stays cheap.  Above 2^32 the survivors are
    confirmed by ``is_prime``, which is proven only below 2^64.
    """
    lo = max(prange.lo, 3)
    hi = prange.hi
    if hi >= 1 << 64:
        raise ValueError(f"primes_in needs hi < 2^64, got {hi}")
    if hi < lo:
        return []
    root = min(isqrt(hi), 1 << 16)
    base = primes_in(PrimeRange(3, root)) if root >= 3 else []
    flags = np.ones(hi - lo + 1, dtype=bool)
    flags[lo % 2 :: 2] = False  # the even numbers
    for q in base:
        start = max(q * q, (lo + q - 1) // q * q)
        flags[start - lo :: q] = False
    flags[[p - lo for p in prange.skip if lo <= p <= hi]] = False
    found = (np.flatnonzero(flags).view(np.uint64) + np.uint64(lo)).tolist()  # lo may pass 2^63
    return found if hi < 1 << 32 else [n for n in found if is_prime(n)]
