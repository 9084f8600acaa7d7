"""Second moments of the power families y^2 = x^n + x^h T^k.

p * A_2(p) is the sum of squared traces over the full fiber period.  When
gcd(k, n-h, p-1) = 1 it has an exact closed form in the two pair lemmas of
``finite_field``: N(m) = power_pair_count(m), the number of pairs with
x^m = y^m, and S(m) = double_sum_S(m), the sum of chi(xy) over them:

    h odd:                p S(n - h)
    h = 0:                p (N(n - h) - p)
    h even, h >= 2, k>=1: p (N(n - h) - p) + (p - 1)
    h even, h >= 2, k=0:  p (N(n - h) - p) + p

The (p - 1) term for even h >= 2 comes from the pairs with x or y zero:
the character weight kills those pairs, so the raw power-pair count
overstates the weighted count by the x = 0 column plus (0, 0).  k = 0
additionally keeps the t = 0 fiber, which no longer vanishes.  Both
corrections are pinned by the exhaustive oracle tests.

The dominant part of the closed form is always a multiple of p^2 - p; its
coefficient is the c_2 of the bias report, and the p-coefficient of that
part, c_1 = -c_2, is the lower-order term whose prime average is the bias
statistic.

The brute column comes from ``moments._power_sums`` at r = 2, whose route
for these shapes, singular h >= 2 too, is the coset-class sum
``_kernels._brute``: O(p) a prime, with no trace row.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from ._kernels import _brute, check_dense_range
from .finite_field import (
    InternalCheckError,
    PrimeCtx,
    PrimeRange,
    _gcd,
    _modulus,
    double_sum_S,
    power_pair_count,
    primes_in,
)
from .moments import _power_sums, power_poly


@dataclass(frozen=True)
class PowerFamily:
    """Exponent data (n, h, k) with n odd >= 3 and 0 <= h, k < n."""

    n: int
    h: int
    k: int

    def __post_init__(self):
        if self.n < 3 or self.n % 2 == 0:
            raise ValueError("n must be odd and >= 3")
        if not 0 <= self.h < self.n:
            raise ValueError("h must satisfy 0 <= h < n")
        if not 0 <= self.k < self.n:
            raise ValueError("k must satisfy 0 <= k < n")


@dataclass(frozen=True)
class BiasRow:
    p: int
    p_a2: int       # closed-form p * A_2(p), exact
    c2: int         # coefficient of the (p^2 - p) main part
    c1: int         # -c2, the p-coefficient of the main part
    remainder: int  # p_a2 - c2 * (p^2 - p)


@dataclass(frozen=True)
class BiasReport:
    family: PowerFamily
    P: int
    rows: tuple[BiasRow, ...]
    mean_c1: Optional[float]  # None when no prime in range is applicable


def second_moment_brute(fam: PowerFamily, ctx: PrimeCtx) -> int:
    """p * A_2(p) from every trace of the family at p, exact."""
    return _brute(fam.n, fam.h, fam.k, ctx, include_t0=True)


def second_moment_closed(fam: PowerFamily, p):
    """Closed-form p * A_2(p); None when gcd(k, n-h, p-1) != 1.

    ``p`` is a PrimeCtx or an odd prime, or an array of odd primes, which
    gives the form at every prime elementwise in its dtype, applicable or
    not (:func:`_applies` tells which).  Every term is below n p^2, so
    int64 is exact where n p_max^2 < 2^63.
    """
    n, h, k = fam.n, fam.h, fam.k
    p = _modulus(p)
    if h % 2 == 1:
        val = p * double_sum_S(n - h, p)
    else:
        val = p * (power_pair_count(n - h, p) - p)
        if h >= 2:
            val += p - 1 if k else p
    if isinstance(p, np.ndarray) or _applies(fam, p):
        return val
    return None


def _applies(fam: PowerFamily, p):
    """Whether gcd(k, n - h, p - 1) = 1, at an odd prime or elementwise."""
    return _gcd(p - 1, gcd(fam.k, fam.n - fam.h)) == 1


def second_moment_scan(fam: PowerFamily, prange: PrimeRange, jobs: int = 1) -> list[tuple]:
    """(p, brute p*A_2, closed p*A_2, c2, c1) per prime, the last three None where
    the closed form does not apply; a range past the dense limit fails up front.
    The brute column is ``_power_sums`` at r = 2, one O(p) class sum a prime,
    pooled by its rule; the closed column is one array pass in this process
    (:func:`_closed_rows`)."""
    check_dense_range(prange.lo, prange.hi, prange.skip)
    primes = primes_in(prange)
    brute = _power_sums(power_poly(fam.n, fam.h, fam.k), 2, primes, jobs)
    return [(p, b, None, None, None) if row is None else (p, b, row.p_a2, row.c2, row.c1)
            for p, b, row in zip(primes, brute, _closed_rows(fam, primes))]


def _closed_rows(fam: PowerFamily, primes: list[int]) -> list[Optional[BiasRow]]:
    """The closed form at each prime as c2 (p^2 - p) + rem, None where it
    does not apply, from one pass over the prime array.

    The array is int64 where n p_max^2 < 2^63, which bounds every value
    formed (p * A_2 and p^2 are below n p^2), else of Python ints.  A
    remainder other than 0, p - 1 or p is an internal failure.
    """
    if not primes:
        return []
    ps = np.array(primes, dtype=np.int64 if fam.n * max(primes) ** 2 < 1 << 63 else object)
    val = second_moment_closed(fam, ps)
    main = ps * ps - ps
    c2 = val // main
    rem = val - c2 * main
    on = _applies(fam, ps)
    bad = on & (rem != 0) & (rem != ps - 1) & (rem != ps)
    if bad.any():
        i = int(bad.argmax())
        raise InternalCheckError(f"unexpected closed-form remainder {int(rem[i])} at p = {primes[i]}")
    rows = zip(on.tolist(), primes, val.tolist(), c2.tolist(), rem.tolist())
    return [BiasRow(p, v, c, -c, r) if ok else None for ok, p, v, c, r in rows]


def bias_report(fam: PowerFamily, prange: PrimeRange) -> BiasReport:
    """Per-prime decomposition of the closed form and the mean bias.

    Rows cover exactly the applicable odd primes in range.  c2 is the
    coefficient of the (p^2 - p) main part and c1 = -c2; the remainder
    (0 for h = 0 and odd h, p - 1 or p for even h >= 2) is carried
    separately so the stated decomposition is exact.  Only the closed form
    is evaluated, in one array pass over the primes (:func:`_closed_rows`)
    that builds no per-prime context; the mean is the exact integer sum of
    c1 over the rows divided by their count.
    """
    rows = tuple(row for row in _closed_rows(fam, primes_in(prange)) if row is not None)
    mean = sum(row.c1 for row in rows) / len(rows) if rows else None
    return BiasReport(fam, prange.hi, rows, mean)


def michel_deviation(p_a2: int, p: int) -> float:
    """(p*A_2 - p^2) / p^(3/2), printed as a diagnostic only."""
    return (p_a2 - p * p) / p**1.5
