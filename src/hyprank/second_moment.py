"""Second moments of the power families y^2 = x^n + x^h T^k.

p * A_2(p) is the sum of squared traces over the full fiber period.  When
gcd(k, n-h, p-1) = 1 it has an exact closed form; writing d for
gcd(n-h, p-1):

    h = 0:                (d - 1) (p^2 - p)
    h even, h >= 2, k>=1: (d - 1) (p^2 - p) + (p - 1)
    h even, h >= 2, k=0:  p          (applicability forces d = 1)
    h odd, nu2(p-1) > nu2(n-h):   d (p^2 - p)
    h odd, otherwise:             0

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
from math import gcd
from typing import Optional

import numpy as np

from . import _kernels
from .finite_field import (
    InternalCheckError,
    PrimeCtx,
    PrimeRange,
    nu2,
    primes_in,
)


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

    @property
    def genus(self) -> int:
        return (self.n - 1) // 2


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

    x^n + x^h T^k has the shape c(x) + g(x) W(T), so the traces come from
    an FFT correlation in O(p log p) (``_kernels.correlation_row``).
    """
    p = ctx.p
    _kernels.check_dense(p)
    xs = np.arange(p, dtype=np.int64)
    rows = [None] * (k + 1)
    rows[0] = _kernels.powmod_vec(xs, n, p)
    xh = _kernels.powmod_vec(xs, h, p)  # 0^0 = 1
    rows[k] = xh if k else (rows[0] + xh) % p
    traces = _kernels.correlation_row(rows, ctx)
    return sum(a * a for a in traces[0 if include_t0 else 1 :])


def second_moment_closed(fam: PowerFamily, ctx: PrimeCtx) -> Optional[int]:
    """Closed-form p * A_2(p); None when gcd(k, n-h, p-1) != 1."""
    n, h, k = fam.n, fam.h, fam.k
    p = ctx.p
    if gcd(gcd(k, n - h), p - 1) != 1:
        return None
    d = gcd(n - h, p - 1)
    if h % 2 == 1:
        return d * (p * p - p) if nu2(p - 1) > nu2(n - h) else 0
    if h == 0:
        return (d - 1) * (p * p - p)
    base = (d - 1) * (p * p - p) + (p - 1)
    return base + 1 if k == 0 else base


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


def bias_report(fam: PowerFamily, prange: PrimeRange) -> BiasReport:
    """Per-prime decomposition of the closed form and the mean bias.

    Rows cover exactly the applicable odd primes in range.  c2 is the
    coefficient of the (p^2 - p) main part and c1 = -c2; the remainder
    (0 for h = 0 and odd h, p - 1 or p for even h >= 2) is carried
    separately so the stated decomposition is exact.
    """
    rows = []
    for p in primes_in(prange):
        ctx = PrimeCtx(p)
        val = second_moment_closed(fam, ctx)
        if val is None:
            continue
        c2 = val // (p * p - p)
        rem = val - c2 * (p * p - p)
        if rem not in (0, p - 1, p):
            raise InternalCheckError(f"unexpected closed-form remainder {rem} at p = {p}")
        rows.append(BiasRow(p, val, c2, -c2, rem))
    mean = sum(r.c1 for r in rows) / len(rows) if rows else None
    return BiasReport(fam, prange.hi, tuple(rows), mean)


def michel_deviation(p_a2: int, p: int) -> float:
    """(p*A_2 - p^2) / p^(3/2), printed as a diagnostic only."""
    return (p_a2 - p * p) / p**1.5
