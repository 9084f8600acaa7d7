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

The brute column needs no trace row.  Write a(w) = -sum_x chi(x^n + x^h w),
so the fiber at t has trace a(t^k), with 0^0 = 1.  Substituting x -> lam x
for lam != 0, with n odd,

    a(w) = chi(lam^n) a(lam^(h-n) w) = chi(lam) a(lam^(h-n) w),

so a(w)^2 depends only on the coset of w modulo the (n-h)-th powers, which
are the e-th powers with e = gcd(n - h, p - 1).  With r a primitive root
and t = r^s, t^k = r^(ks) lies in the coset of index ks mod e; as s runs
over 0..p-2 that index runs over the multiples of g = gcd(k, e), each
(p - 1) g / e times, so for k >= 1

    sum_{t != 0} a(t^k)^2 = ((p - 1) g / e) sum_{i = 0, g, 2g, .. < e} a(r^i)^2,

and the t = 0 fiber adds a(0)^2 = (sum_x chi(x))^2 = 0.  For k = 0,
g = gcd(0, e) = e leaves the one class i = 0, and the t = 0 fiber is the
w = 1 fiber again.  Each a(r^i) is a sum over the histogram
H(u) = sum_{x != 0, x^(n-h) = u} chi(x^h), which lives on the (p - 1) / e
e-th powers, so all e / g of them together cost O(p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import gcd
from typing import Optional

import numpy as np

from ._kernels import check_dense_range, powmod_vec
from .finite_field import (
    InternalCheckError,
    PrimeCtx,
    PrimeRange,
    double_sum_S,
    power_pair_count,
    primes_in,
    primitive_root,
)
from .moments import scan

# Cells (the sum of p) up to which second_moment_scan runs serially at any
# jobs: on a 2-core host its pool of two was slower to 1500 (2e5 cells), as
# fast at 1.5e6 cells, and faster past that.
POOL_CELLS = 1 << 20


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

    Exact for any n odd, 0 <= h < n and k >= 0, in O(p log p) integer work
    whatever the size of n, with no trace row: the traces are direct
    character sums, one per class of t, and a(t^k)^2 is the same on each
    class (module docstring):

        sum_{t != 0} a_t^2 = ((p - 1) g / e) sum_{i = 0, g, .. < e} a(r^i)^2

    with e = gcd(n - h, p - 1), g = gcd(k, e) and r = primitive_root(p).
    The t = 0 fiber adds a(1)^2 for k = 0 and a(0)^2 = 0 otherwise.
    """
    p = ctx.p
    e = gcd(n - h, p - 1)
    g = gcd(k, e)
    a = _class_traces(n, h, _class_points(p, e, g), ctx).tolist()
    total = (p - 1) * g // e * sum(v * v for v in a)
    return total + a[0] ** 2 if include_t0 and k == 0 else total


def _class_points(p: int, e: int, g: int) -> np.ndarray:
    """r^i mod p for i = 0, g, 2g, .. < e, r = primitive_root(p), by doubling."""
    ws = np.ones(1, dtype=np.int64)
    if e > g:
        step = pow(primitive_root(p), g, p)
        while len(ws) < e // g:
            ws = np.concatenate((ws, ws * pow(step, len(ws), p) % p))
    return ws[: e // g]


def _class_traces(n: int, h: int, ws: np.ndarray, ctx: PrimeCtx) -> np.ndarray:
    """a(w) = -sum_x chi(x^n + x^h w) at each nonzero w of ws, exact in int64.

    x = 0 gives chi(w) for h = 0 and nothing otherwise; for x != 0,
    chi(x^n + x^h w) = chi(x^h) chi(x^(n-h) + w), so

        a(w) = -[h = 0] chi(w) - sum_u H(u) chi(u + w),

    with H(u) = sum_{x != 0, x^(n-h) = u} chi(x)^h, the count of the x with
    chi(x^h) = +1 less the count of those with -1 (one integer bincount of
    2 u + [chi(x^h) = -1] holds both).  x^(n-h) = x^((n-h) mod (p-1)) for
    x != 0.  H lives on the (p - 1) / e values of x^(n-h), so the sums cost
    (p - 1) / e per w.
    """
    p = ctx.p
    chi = ctx.chi
    u = powmod_vec(np.arange(1, p, dtype=np.int64), (n - h) % (p - 1), p)
    key = 2 * u
    if h % 2:
        key += chi[1:] < 0
    counts = np.bincount(key, minlength=2 * p).reshape(p, 2)
    H = counts[:, 0] - counts[:, 1]
    us = np.flatnonzero(H)
    a = -(np.concatenate((chi, chi))[ws[:, None] + us] @ H[us])
    return a - chi[ws] if h == 0 else a


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


def _second_moment_row(fam: PowerFamily, p: int) -> tuple:
    ctx = PrimeCtx(p)
    row = _decompose(fam, ctx)
    closed, c2, c1 = (None, None, None) if row is None else (row.p_a2, row.c2, row.c1)
    return p, second_moment_brute(fam, ctx), closed, c2, c1


def second_moment_scan(fam: PowerFamily, prange: PrimeRange, jobs: int = 1) -> list[tuple]:
    """(p, brute p*A_2, closed p*A_2, c2, c1) per prime, the last three None where
    the closed form does not apply; a range past the dense limit fails up front.
    The class sums are O(p) a prime, like the first-moment blocks, so the scan
    starts a pool only past their break-even, ``POOL_CELLS`` (the sum of p)."""
    check_dense_range(prange.lo, prange.hi, prange.skip)
    primes = primes_in(prange)
    return scan(partial(_second_moment_row, fam), primes, jobs if sum(primes) > POOL_CELLS else 1)


def _bias_row(fam: PowerFamily, p: int) -> Optional[BiasRow]:
    return _decompose(fam, PrimeCtx(p))


def _decompose(fam: PowerFamily, ctx: PrimeCtx) -> Optional[BiasRow]:
    """The closed form at p as c2 (p^2 - p) + rem; None where it does not apply."""
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
