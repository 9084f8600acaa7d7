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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import gcd
from typing import Optional

from ._kernels import check_dense
from .curves import t_coeff_rows, traces_from_rows
from .finite_field import (
    InternalCheckError,
    PrimeCtx,
    PrimeRange,
    double_sum_S,
    power_pair_count,
    primes_in,
)
from .moments import scan
from .polynomials import BiPoly


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


def _brute(n: int, h: int, k: int, ctx: PrimeCtx, include_t0: bool = True) -> int:
    """Sum of squared traces of x^n + x^h T^k over t, from t = 1 unless include_t0.

    The traces come from the shared row -> trace path of every family; the
    shape c(x) + g(x) W(T) keeps it at O(p log p).
    """
    rows = t_coeff_rows(BiPoly.term(1, n, 0) + BiPoly.term(1, h, k), ctx)
    traces = traces_from_rows(rows, ctx)
    return sum(a * a for a in traces[0 if include_t0 else 1 :])


def second_moment_closed(fam: PowerFamily, ctx: PrimeCtx) -> Optional[int]:
    """Closed-form p * A_2(p); None when gcd(k, n-h, p-1) != 1."""
    n, h, k = fam.n, fam.h, fam.k
    p = ctx.p
    if gcd(gcd(k, n - h), p - 1) != 1:
        return None
    if h % 2 == 1:
        return p * double_sum_S(n - h, ctx)
    val = p * (power_pair_count(n - h, ctx) - p)
    if h >= 2:
        val += p - 1 if k else p
    return val


def _second_moment_row(fam: PowerFamily, ctx: PrimeCtx) -> tuple:
    row = _bias_row(fam, ctx)
    closed, c2, c1 = (None, None, None) if row is None else (row.p_a2, row.c2, row.c1)
    return ctx.p, second_moment_brute(fam, ctx), closed, c2, c1


def second_moment_scan(fam: PowerFamily, prange: PrimeRange, jobs: int = 1) -> list[tuple]:
    """(p, brute p*A_2, closed p*A_2, c2, c1) per prime, the last three None where
    the closed form does not apply; a range past the dense limit fails up front."""
    primes = primes_in(prange)
    check_dense(max(primes, default=0))
    return scan(partial(_second_moment_row, fam), primes, jobs)


def _bias_row(fam: PowerFamily, ctx: PrimeCtx) -> Optional[BiasRow]:
    p = ctx.p
    val = second_moment_closed(fam, ctx)
    if val is None:
        return None
    c2 = val // (p * p - p)
    rem = val - c2 * (p * p - p)
    if rem not in (0, p - 1, p):
        raise InternalCheckError(f"unexpected closed-form remainder {rem} at p = {p}")
    return BiasRow(p, val, c2, -c2, rem)


def bias_report(fam: PowerFamily, prange: PrimeRange) -> BiasReport:
    """Per-prime decomposition of the closed form and the mean bias.

    Rows cover exactly the applicable odd primes in range.  c2 is the
    coefficient of the (p^2 - p) main part and c1 = -c2; the remainder
    (0 for h = 0 and odd h, p - 1 or p for even h >= 2) is carried
    separately so the stated decomposition is exact.  Only the closed form
    is evaluated, so the scan runs in this process.
    """
    rows = [r for r in scan(partial(_bias_row, fam), primes_in(prange)) if r is not None]
    mean = sum(r.c1 for r in rows) / len(rows) if rows else None
    return BiasReport(fam, prange.hi, tuple(rows), mean)


def michel_deviation(p_a2: int, p: int) -> float:
    """(p*A_2 - p^2) / p^(3/2), printed as a diagnostic only."""
    return (p_a2 - p * p) / p**1.5
