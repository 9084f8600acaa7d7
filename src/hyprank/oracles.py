"""Exhaustive enumeration oracles for the character-sum closed forms.

Each function here recomputes a closed-form quantity, or one fiber's trace,
by literal enumeration over residues, independent of the formulas and kernels
it checks.  They back the `verify-lemmas` CLI command and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import horner_vec, powmod_vec
from .finite_field import (
    PrimeCtx,
    PrimeRange,
    check_dense,
    double_sum_S,
    power_pair_count,
    primes_in,
    quadratic_sums,
)
from .polynomials import IntPoly


def trace_of_poly(fx: IntPoly, ctx: PrimeCtx) -> int:
    """Trace -sum_x (f(x)/p) of one fiber, by the naive affine character sum.

    The per-fiber reference that the trace-row kernels are tested against;
    it holds for every fiber, singular ones and fibers whose reduction drops
    degree included.  Scans take whole rows from ``curves.traces`` instead, whose
    kernel the split of F over Z picks (``curves.rank_one_split``).
    """
    p = ctx.p
    check_dense(p)
    vals = horner_vec(fx.coeffs, np.arange(p, dtype=np.int64), p)
    return -int(ctx.chi[vals].sum(dtype=np.int64))


def quadratic_sum_table(ctx: PrimeCtx) -> np.ndarray:
    """S[a, b, c] = sum over t of chi(a t^2 + b t + c), by enumeration.

    One a at a time: N[b, v] counts the t with a t^2 + b t = v, and S[a] is
    the product of N with the table chi(v + c) over (v, c), in float64 for
    BLAS.  It is exact: all operands are integers, |N| <= p and |chi| <= 1,
    so every partial sum is <= p^2 < 2^53 for p <= LEMMA_PMAX.  Every
    |S| <= p, so the table is int16.
    """
    p = ctx.p
    assert p <= LEMMA_PMAX, f"p = {p} is above LEMMA_PMAX"
    ts = np.arange(p, dtype=np.int64)
    shifted = ctx.chi.astype(np.float64)[(ts[:, None] + ts) % p]
    bt = np.outer(ts, ts) % p  # b t over (b, t)
    rows = ts[:, None] * p  # flat offset of row b in N
    table = np.empty((p, p, p), dtype=np.int16)
    for a in range(p):
        counts = np.bincount((rows + (a * ts * ts + bt) % p).ravel(), minlength=p * p)
        table[a] = counts.reshape(p, p).astype(np.float64) @ shifted
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


# Largest pmax (and nmax) run_lemma_suites accepts: each prime builds a p^3
# int16 enumeration table (16 MB at p = 199) in about p^4 integer steps.  For
# p <= 200 the power x^n depends only on n mod p - 1, so no exponent above 200
# adds a case.
LEMMA_PMAX = 200

_SUITES = ("quadratic-char-sum", "linear-sum-vanishing", "power-pair-count",
           "paired-power-char-sum")


def _first_failure(bad: np.ndarray, case: str, p: int, *lead: int) -> str:
    """The case at the first True of ``bad`` in row-major order, or "";
    ``lead`` holds the leading indices of the slice ``bad`` was taken from."""
    if not bad.any():  # the common case: no index array to build
        return ""
    hit = np.argwhere(bad)[0]
    return f"({case},p)=({','.join(map(str, (*lead, *hit)))},{p})"


def run_lemma_suites(pmax: int, nmax: int = 12) -> list[SuiteResult]:
    """Check every closed form against enumeration for all odd primes <= pmax.

    Covers: the quadratic character sum (all (a, b, c) with (a, b) != (0, 0)),
    the vanishing of complete linear sums, the power pair count (1 <= n <= nmax),
    and the paired power character sum (even h <= nmax).  Each prime gets one
    context and one enumeration table, shared by every suite.
    """
    primes = primes_in(PrimeRange(3, pmax))
    ns, hs = range(1, nmax + 1), range(2, nmax + 1, 2)
    cases = [0] * len(_SUITES)
    failures = [""] * len(_SUITES)
    for p in primes:
        ctx = PrimeCtx(p)
        table = quadratic_sum_table(ctx)
        chi = ctx.chi.astype(np.int64)
        ts = np.arange(p, dtype=np.int64)
        cases[0] += p**3 - p
        for a in range(p):  # one (b, c) slice at a time: no p^3 mask
            bad = quadratic_sums(a, ts[:, None], ts, chi[a], p) != table[a]
            bad[0] &= a != 0  # (a, b) = (0, 0): t does not occur
            failures[0] = failures[0] or _first_failure(bad, "a,b,c", p, a)
        linear = table[0] != 0  # table[0, a, b] = sum of chi(a t + b), linear for a != 0
        linear[0] = False
        pair = np.zeros(nmax + 1, dtype=bool)
        pair[ns] = [power_pair_count(n, ctx) != power_pair_count_brute(n, ctx) for n in ns]
        paired = np.zeros(nmax + 1, dtype=bool)
        paired[hs] = [double_sum_S(h, ctx) != double_sum_brute(h, ctx) for h in hs]
        suites = ((p * p - p, linear, "a,b"), (len(ns), pair, "n"), (len(hs), paired, "h"))
        for i, (n, bad, case) in enumerate(suites, 1):
            cases[i] += n
            failures[i] = failures[i] or _first_failure(bad, case, p)
    return [SuiteResult(name, len(primes), n, not failure, failure)
            for name, n, failure in zip(_SUITES, cases, failures)]
