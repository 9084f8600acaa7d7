"""Exhaustive enumeration oracles for the character-sum closed forms.

Each function here recomputes one of the closed-form quantities by literal
enumeration over residues, independent of the formulas it is used to
check.  They back the `verify-lemmas` CLI command and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import powmod_vec
from .finite_field import (
    PrimeCtx,
    PrimeRange,
    double_sum_S,
    power_pair_count,
    primes_in,
    quadratic_char_sum,
)


def quadratic_sum_table(ctx: PrimeCtx) -> np.ndarray:
    """S[a, b, c] = sum over t of chi(a t^2 + b t + c), by enumeration."""
    p = ctx.p
    chi = ctx.chi
    ts = np.arange(p, dtype=np.int64)
    tsq = (ts * ts) % p
    table = np.empty((p, p, p), dtype=np.int64)
    bt = ts[:, None, None] * ts[None, None, :]  # b t over (b, 1, t)
    vals = np.empty((p, p, p), dtype=np.int64)  # one grid over (b, c, t), reused for every a
    for a in range(p):
        np.add(a * tsq + bt, ts[None, :, None], out=vals)
        np.remainder(vals, p, out=vals)
        table[a] = chi[vals].sum(axis=2, dtype=np.int64)
    return table


def power_pair_count_brute(n: int, ctx: PrimeCtx) -> int:
    """Count pairs x^n = y^n mod p over the full (p, p) grid."""
    p = ctx.p
    xn = powmod_vec(np.arange(p, dtype=np.int64), n, p)
    return int(np.equal.outer(xn, xn).sum())


def double_sum_brute(h: int, ctx: PrimeCtx) -> int:
    """Sum of chi(x y) over pairs with x^h = y^h, over the full grid."""
    p = ctx.p
    xs = np.arange(p, dtype=np.int64)
    xh = powmod_vec(xs, h, p)
    mask = np.equal.outer(xh, xh)
    prods = (xs[:, None] * xs[None, :]) % p
    return int(ctx.chi[prods][mask].sum(dtype=np.int64))


@dataclass(frozen=True)
class SuiteResult:
    name: str
    primes: int
    cases: int
    passed: bool
    first_failure: str = ""


# Largest pmax run_lemma_suites accepts: the quadratic-char-sum suite builds a
# p^3 int64 table and makes p^3 scalar calls per prime (63 MB at p = 199).
LEMMA_PMAX = 200


def run_lemma_suites(pmax: int, nmax: int = 12) -> list[SuiteResult]:
    """Check every closed form against enumeration for all odd primes <= pmax.

    Covers: the quadratic character sum (all (a, b, c) with (a, b) != (0, 0)),
    the vanishing of complete linear sums, the power pair count (1 <= n <= nmax),
    and the paired power character sum (even h <= nmax).
    """
    primes = primes_in(PrimeRange(3, pmax))
    results = []

    cases = 0
    failure = ""
    for p in primes:
        ctx = PrimeCtx(p)
        table = quadratic_sum_table(ctx)
        for a in range(p):
            for b in range(p):
                if a == 0 and b == 0:
                    continue
                for c in range(p):
                    cases += 1
                    if quadratic_char_sum(a, b, c, ctx) != int(table[a, b, c]):
                        failure = failure or f"(a,b,c,p)=({a},{b},{c},{p})"
        if failure:
            break
    results.append(SuiteResult("quadratic-char-sum", len(primes), cases, not failure, failure))

    cases = 0
    failure = ""
    for p in primes:
        chi = PrimeCtx(p).chi
        ts = np.arange(p, dtype=np.int64)
        for a in range(1, p):
            cases += p
            # row b holds chi(a t + b) over every t
            sums = chi[(a * ts[None, :] + ts[:, None]) % p].sum(axis=1, dtype=np.int64)
            bad = np.flatnonzero(sums)
            if len(bad):
                failure = failure or f"(a,b,p)=({a},{int(bad[0])},{p})"
    results.append(SuiteResult("linear-sum-vanishing", len(primes), cases, not failure, failure))

    cases = 0
    failure = ""
    for p in primes:
        ctx = PrimeCtx(p)
        for n in range(1, nmax + 1):
            cases += 1
            if power_pair_count(n, ctx) != power_pair_count_brute(n, ctx):
                failure = failure or f"(n,p)=({n},{p})"
    results.append(SuiteResult("power-pair-count", len(primes), cases, not failure, failure))

    cases = 0
    failure = ""
    for p in primes:
        ctx = PrimeCtx(p)
        for h in range(2, nmax + 1, 2):
            cases += 1
            if double_sum_S(h, ctx) != double_sum_brute(h, ctx):
                failure = failure or f"(h,p)=({h},{p})"
    results.append(SuiteResult("paired-power-char-sum", len(primes), cases, not failure, failure))

    return results
