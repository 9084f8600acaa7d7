"""Helpers that only the tests use: small constructors and checks built on
the library's reference functions."""

from math import gcd, isqrt

import numpy as np

from hyprank.finite_field import PrimeCtx
from hyprank.polynomials import IntPoly
from hyprank.second_moment import PowerFamily, _brute


def with_none(values, mask) -> list:
    """The per-prime values of an array-and-mask stage as one list, with
    None where the mask is False: the form the expected values are written in."""
    return [v if ok else None for v, ok in zip(np.asarray(values).tolist(), np.asarray(mask).tolist())]


def x_power(k: int, c: int = 1) -> IntPoly:
    """c * x^k."""
    return IntPoly([0] * k + [c])


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


def hasse_weil_bound(genus: int, p: int) -> int:
    """Slack bound 2g * floor(2*sqrt(p)) on |a(p)| for good squarefree fibers."""
    return 2 * genus * isqrt(4 * p)


def check_periodicity(n: int, h: int, k: int, ctx: PrimeCtx) -> bool:
    """Second moments agree for exponents k and k + (n - h).

    Compared on the t >= 1 partial sums: for k >= 1 these equal the full
    sums (the t = 0 fiber vanishes), while for k = 0 the t = 0 fiber is the
    constant curve y^2 = x^n + x^h and breaks the full-sum identity
    trivially, e.g. (n, h, k, p) = (3, 2, 0, 5) gives 5 against 4.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    if not 0 <= h < n:
        raise ValueError("h must satisfy 0 <= h < n")
    if k < 0:
        raise ValueError("k must be >= 0")
    lhs = _brute(n, h, k, ctx, include_t0=False)
    rhs = _brute(n, h, k + (n - h), ctx, include_t0=False)
    return lhs == rhs


def check_gcd_reduction(fam: PowerFamily, ctx: PrimeCtx) -> bool:
    """Second moments agree for exponent k and exponent 1 when
    gcd(k, n-h, p-1) = 1; compared on the t >= 1 partial sums as above."""
    n, h, k = fam.n, fam.h, fam.k
    p = ctx.p
    if gcd(gcd(k, n - h), p - 1) != 1:
        raise ValueError("gcd(k, n-h, p-1) must be 1")
    lhs = _brute(n, h, k, ctx, include_t0=False)
    rhs = _brute(n, h, 1, ctx, include_t0=False)
    return lhs == rhs
