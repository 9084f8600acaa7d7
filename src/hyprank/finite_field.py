"""Fast exact arithmetic modulo an odd prime.

The central object is :class:`PrimeCtx`, which wraps a prime p together
with a lazily built Legendre character table, so that Legendre symbols are
O(1) lookups for scalar calls and gathers inside the O(p^2) character-sum
engine.  Everything in this module is pure and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, isqrt

import numpy as np

# Above this bound residue tables are not built: legendre() falls back to
# Euler's criterion and the dense kernels refuse the prime.  2^26 keeps the
# int8 character table at 64 MiB and (p-1)^2 below 2^52.
TABLE_LIMIT = 1 << 26

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class InternalCheckError(AssertionError):
    """An identity the program guarantees failed to hold (a bug signal)."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit inputs."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
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
            p = self.p
            if p >= TABLE_LIMIT:
                raise ValueError(f"residue table too large for p = {p}")
            chi = np.full(p, -1, dtype=np.int8)
            chi[0] = 0
            xs = np.arange(1, (p + 1) // 2, dtype=np.int64)
            chi[(xs * xs) % p] = 1
            self._chi = chi
        return self._chi


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


def quadratic_char_sum(a: int, b: int, c: int, ctx: PrimeCtx) -> int:
    """Sum of (a*t^2 + b*t + c / p) over a full period t = 0..p-1.

    Closed form: (p-1)*(a/p) when p divides the discriminant b^2 - 4ac,
    -(a/p) otherwise, and 0 in the degenerate linear case a = 0, b != 0
    (a complete linear sum over t cancels).  Requires (a, b) != (0, 0)
    mod p.
    """
    p = ctx.p
    a %= p
    b %= p
    c %= p
    if a == 0 and b == 0:
        raise ValueError("a and b must not both vanish mod p")
    if a == 0:
        return 0
    la = legendre(a, ctx)
    if (b * b - 4 * a * c) % p == 0:
        return (p - 1) * la
    return -la


def power_pair_count(n: int, ctx: PrimeCtx) -> int:
    """Number of pairs (x, y) in [0,p)^2 with x^n = y^n mod p."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = ctx.p
    return gcd(p - 1, n) * (p - 1) + 1


def double_sum_S(h: int, ctx: PrimeCtx) -> int:
    """Sum of (xy/p) over pairs with x^h = y^h mod p, for even h >= 2.

    Equals gcd(h, p-1)*(p-1) when the 2-adic valuation of p-1 exceeds that
    of h, and 0 otherwise.
    """
    if h < 2 or h % 2 != 0:
        raise ValueError("h must be even and >= 2")
    p = ctx.p
    if nu2(p - 1) > nu2(h):
        return gcd(h, p - 1) * (p - 1)
    return 0


def gcd_representative(k: int, n1: int, n2: int) -> int:
    """First m >= max(k, 1) with m = k (mod n2) and gcd(m, n1) = 1.

    Exists whenever gcd(k, n1, n2) = 1; found by stepping in increments
    of n2 starting from k.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("moduli must be >= 1")
    if gcd(gcd(k, n1), n2) != 1:
        raise ValueError("gcd(k, n1, n2) must be 1")
    m = k
    while m < 1 or gcd(m, n1) != 1:
        m += n2
    return m


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

    Segmented sieve so that large lo/hi with a modest width stay cheap.
    """
    lo = max(prange.lo, 3)
    hi = prange.hi
    if hi < lo:
        return []
    base = _small_primes(isqrt(hi))
    width = hi - lo + 1
    flags = bytearray([1]) * width
    for q in base:
        start = max(q * q, (lo + q - 1) // q * q)
        if start <= hi:
            flags[start - lo :: q] = bytearray(len(range(start, hi + 1, q)))
    return [
        lo + i
        for i in range(width)
        if flags[i] and (lo + i) % 2 == 1 and (lo + i) > 2 and (lo + i) not in prange.skip
    ]


def _small_primes(n: int) -> list[int]:
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(range(q * q, n + 1, q)))
    return [i for i in range(2, n + 1) if sieve[i]]
