"""Moment statistics of Frobenius traces and the Nagao-style rank estimator.

The r-th moment at p is A_r(p) = (1/p) * sum over t = 0..p-1 of a_t^r,
with a_t the trace of the fiber at T = t.  Moments are exact rationals;
the only floating-point values in the package are the two normalizations
of the Nagao partial sum (standard doubles).
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

import numpy as np

from ._kernels import (QUAD_CELLS, check_dense_range, first_sum_roots, first_sum_vec,
                       power_total, prime_blocks, quadratic_in_t, quadratic_power_sums)
from .curves import HyperFamily, t_coeff_rows, traces_from_rows
from .finite_field import PrimeCtx, PrimeRange, primes_in
from .polynomials import (FROB_BLOCK, BiPoly, IntPoly, degree_patterns_mod,
                          linear_factor_counts, squarefree_over_q)


class NonGenericPrime(Exception):
    """A closed-form prediction does not apply at this prime; skip it."""


@dataclass(frozen=True)
class MomentRow:
    """One prime of a moment series, in exact integers.

    ``p_times_A`` is p * A_r(p), the sum of a_t^r over t = 0..p-1, and
    ``p_times_predicted`` the closed-form p * A_1(p) where it applies (None
    elsewhere); these are what the CLI prints.  ``value``, ``predicted`` and
    ``match`` give the moments themselves as Fractions.
    """

    p: int
    p_times_A: int
    p_times_predicted: Optional[int]
    generic: Optional[bool]      # None when no prediction is defined

    @property
    def value(self) -> Fraction:
        """A_r(p), exact."""
        return Fraction(self.p_times_A, self.p)

    @property
    def predicted(self) -> Optional[Fraction]:
        """The closed-form A_1(p), or None where it does not apply."""
        return None if self.p_times_predicted is None else Fraction(self.p_times_predicted, self.p)

    @property
    def match(self) -> Optional[bool]:
        if self.p_times_predicted is None:
            return None
        return self.p_times_A == self.p_times_predicted


@dataclass(frozen=True)
class MomentSeries:
    label: str
    r: int
    rows: tuple[MomentRow, ...]


@dataclass(frozen=True)
class NagaoEstimate:
    """Partial sums of -A_1(p) under the two standard normalizations.

    s_theta divides the log-weighted sum by the cutoff P; s_pi divides the
    unweighted sum by the number of primes used.  Both converge to the same
    limit, so their agreement is a convergence diagnostic.
    """

    P: int
    s_theta: float
    s_pi: float
    n_primes: int
    skipped: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "P": self.P,
            "s_theta": self.s_theta,
            "s_pi": self.s_pi,
            "n_primes": self.n_primes,
            "skipped": list(self.skipped),
        }


def power_sum(fam: HyperFamily, r: int, ctx: PrimeCtx) -> int:
    """p * A_r(p) = sum of a_t^r over the full period, exact, by the route of
    ``_power_sums`` at this one prime; a trace row takes ``ctx`` and its
    table."""
    if r < 1:
        raise ValueError("moment order must be >= 1")
    fam.check_prime(ctx)
    return _power_sums(fam, r, [ctx.p], 1, ctx)[0]


def moment(fam: HyperFamily, r: int, ctx: PrimeCtx) -> Fraction:
    """The exact r-th moment A_r(p)."""
    return Fraction(power_sum(fam, r, ctx), ctx.p)


def predict_first_moment(fam: HyperFamily, ctx: PrimeCtx) -> int:
    """Closed-form value of -p * A_1(p), from the family's own closed form.

    The per-prime form of ``fam.closed_form``.  Raises ValueError when the
    family has none, and NonGenericPrime when its genericity conditions fail
    at p (callers scanning prime ranges should skip such primes).
    """
    value = _closed_form(fam, [ctx.p])[0]
    if value is None:
        raise NonGenericPrime(f"the closed form of {fam.label!r} does not apply at p = {ctx.p}")
    return value


def _closed_form(fam: HyperFamily, primes: list[int]) -> list[Optional[int]]:
    if fam.closed_form is None:
        raise ValueError(f"family {fam.label!r} has no closed-form predictor")
    return fam.closed_form(primes)


def _shift_square_law(f: IntPoly, primes: list[int]) -> list[Optional[int]]:
    """y^2 = f(x) + T^2:  -p * A_1(p) = (L_f - 1) * p, L_f = #roots of f mod p.

    Generic where f mod p is squarefree, i.e. where ``linear_factor_counts``
    gives L_f rather than None.
    """
    return [None if n is None else (n - 1) * p for p, n in zip(primes, linear_factor_counts(f, primes))]


def _linear_twist_law(f: IntPoly, primes: list[int]) -> list[Optional[int]]:
    """y^2 = f(x) * T + 1:  -p * A_1(p) = L_f * p, generic where f mod p is
    squarefree and p does not divide the leading coefficient."""
    lead = f.lead
    return [None if n is None or lead % p == 0 else n * p
            for p, n in zip(primes, linear_factor_counts(f, primes))]


def _big_rank_law(cr, primes: list[int]) -> list[Optional[int]]:
    """The quadratic-in-T rank construction:  -p * A_1(p) = (4g + 2) * p,
    generic away from the construction's bad primes (p | L, p | A, or two
    squared roots equal mod p)."""
    bad = cr.family.bad_primes
    return [None if p in bad else (4 * cr.genus + 2) * p for p in primes]


def make_shift_square(f: IntPoly, label: str | None = None) -> HyperFamily:
    """y^2 = f(x) + T^2 with deg f = 2g+1."""
    g = _genus_from_degree(f)
    F = BiPoly.from_x_poly(f) + BiPoly.term(1, 0, 2)
    return HyperFamily(f"shift_square({f})" if label is None else label, g, F,
                       closed_form=partial(_shift_square_law, f))


def make_linear_twist(f: IntPoly, label: str | None = None) -> HyperFamily:
    """y^2 = f(x) * T + 1 with deg f = 2g+1."""
    g = _genus_from_degree(f)
    F = BiPoly.from_x_poly(f, t_power=1) + BiPoly.const(1)
    return HyperFamily(f"linear_twist({f})" if label is None else label, g, F,
                       closed_form=partial(_linear_twist_law, f))


def make_power(n: int, h: int, k: int, label: str | None = None) -> HyperFamily:
    """y^2 = x^n + x^h T^k; only smooth shapes (h <= 1) form a valid family."""
    F = BiPoly.term(1, n, 0) + BiPoly.term(1, h, k)
    label = f"power({n},{h},{k})" if label is None else label
    return HyperFamily(label, (n - 1) // 2, F)


def make_big_rank(construction, label: str | None = None) -> HyperFamily:
    """A finished quadratic-in-T construction's family, with its first-moment
    law; its F was checked when the construction built it."""
    fam = construction.family
    return fam.with_closed_form(fam.label if label is None else label,
                                partial(_big_rank_law, construction))


def _genus_from_degree(f: IntPoly) -> int:
    if f.degree < 3 or f.degree % 2 == 0:
        raise ValueError(f"deg f = {f.degree}; an odd degree >= 3 is required")
    return (f.degree - 1) // 2


# ---------------------------------------------------------------------------
# series over prime ranges

# Cells (the sum of p) up to which a first-moment scan runs serially at any
# jobs.  On a 2-core host a pool of two cost about 55 ms (start, pickling,
# shutdown) on top of half the serial time, so it breaks even where the
# serial scan takes about 0.11 s, near 4e6 cells.  Brute nagao on
# shift_square, pool of two against serial, medians of 5 fresh processes
# each: slower at 3.0e6 cells (0.110 against 0.106 s, faster in 1 of 5),
# even near 4.0e6 (0.118 against 0.126 s, 3 of 5), faster at 6.0e6 (4 of
# 5) and 8.0e6 (0.148 against 0.206 s, 4 of 5).
POOL_CELLS = 1 << 22

# The same break-even, measured the same way, for the blocks of
# quadratic_power_sums, in the sum of p^2 over their primes: a pool of two
# was as fast as the serial scan at 1.1e7, faster at 2.6e7.
POOL_SQUARES = 1 << 24

# And for the scans that take one trace row per prime, in points of the
# dense kernel: a prime costs p^2 on trace_row_vec, and about FFT_POINTS
# p log2(p) on correlation_row near the break-even.  Measured: the dense
# scan was slower pooled at 7.0e6 points, faster at 8.7e6; the FFT scan
# broke even near 8e5 p log2(p).
POOL_POINTS = 1 << 23
FFT_POINTS = 10


def scan(task, items: list, jobs: int = 1) -> list:
    """``[task(item) for item in items]``, in the order of ``items``.

    The one driver for character-sum scans.  The items are primes, each
    task building its one ``PrimeCtx`` where it runs, or blocks of primes
    (``prime_blocks``) for the quadratic-in-T block kernels, which build no
    per-prime context.  It runs serially unless min(jobs, CPUs, #items) > 1,
    in which case the items go to that many worker processes.  A pooled
    ``task`` must pickle, so callers pass a private module-level function or
    a partial of one, never a public name that may have been rebound.
    """
    jobs = min(jobs, os.cpu_count() or 1, len(items))
    if jobs <= 1:
        return [task(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # deferred: keeps `import hyprank` light

    chunk = max(1, len(items) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(task, items, chunksize=chunk))


def _power_sum(fam: HyperFamily, r: int, p) -> int:
    """p * A_r(p) from the trace row at p, for the primes the block kernels
    leave; p is the prime, or its ``PrimeCtx`` where the caller has one.  A
    private name, which a pool pickles by reference."""
    ctx = PrimeCtx(p) if isinstance(p, int) else p
    return power_total(traces_from_rows(t_coeff_rows(fam.F, ctx), ctx), r)


def _block_sums(t_coeffs, r: int, block: list[int]) -> list[int]:
    """p * A_r(p) at each prime of a block where deg_T F <= 2: ``first_sum_vec``
    for r = 1, else ``quadratic_power_sums``.  A private module-level name,
    which a pool pickles by reference."""
    return first_sum_vec(t_coeffs, block) if r == 1 else quadratic_power_sums(t_coeffs, r, block)


def _power_sums(fam: HyperFamily, r: int, primes: list[int], jobs: int,
                ctx: PrimeCtx | None = None) -> list[int]:
    """p * A_r(p) at each prime, exact: the one route of every moment.

    At the primes where deg_T F <= 2 mod p, r = 1 first takes
    ``first_sum_roots``, FROB_BLOCK primes at a time in this process: where
    the weight a (or c, where a = 0 over Z) is a monomial alpha x^k, it
    needs the roots of D = b^2 - 4ac mod p alone, at every prime that
    divides neither alpha nor lead(D): O(d) a prime from the integer roots
    of D, split off once, and O(d^2 log p) for the Frobenius chain of the
    cofactor they leave, where that is no constant.  The block kernels of
    ``_block_sums`` take the rest, with no per-prime context:
    ``first_sum_vec`` for r = 1, O(p) with the sums over t and x swapped,
    and for r >= 2 ``quadratic_power_sums``, O(p^2) int8 copies, at every
    such prime where F is not rank-one over Q (``_rank_one_in_t``).  Every
    other prime takes its trace row, one prime at a time (``_power_sum``):
    ``traces_from_rows`` gives it in O(p log p) where F is rank-one mod p
    (``correlation_row``), else in O(p^2) in float64 blocks
    (``trace_row_vec``, deg_T F >= 3), and ``power_total`` sums its r-th
    powers; ``ctx``, the context of the one prime of ``primes`` where the
    caller has it, serves that row.  Each scan that may run in a pool starts
    one only past its break-even work (``POOL_CELLS``, ``POOL_SQUARES`` and
    ``POOL_POINTS``), below which the pool costs more than it saves."""
    coeffs = fam.t_coeffs
    fft = _rank_one_in_t(coeffs)
    quad = quadratic_in_t(coeffs, primes).tolist()
    # at r >= 2 an F rank-one over Q takes the FFT, O(p log p), at every prime
    blocked = [p for p, q in zip(primes, quad) if q and (r == 1 or not fft)]
    sums = {}
    if r == 1:
        for lo in range(0, len(blocked), FROB_BLOCK):
            block = blocked[lo : lo + FROB_BLOCK]
            sums.update((p, s) for p, s in zip(block, first_sum_roots(coeffs[:3], block))
                        if s is not None)
        blocked = [p for p in blocked if p not in sums]
        blocks, pool = prime_blocks(blocked), sum(blocked) > POOL_CELLS
    else:
        blocks, pool = prime_blocks(blocked, QUAD_CELLS), sum(p * p for p in blocked) > POOL_SQUARES
    by_block = scan(partial(_block_sums, coeffs[:3], r), blocks, jobs if pool else 1)
    sums.update(zip(blocked, itertools.chain.from_iterable(by_block)))
    rest = [p for p in primes if p not in sums]
    work = sum(FFT_POINTS * p * p.bit_length() if fft else p * p for p in rest)
    rows = [p if ctx is None else ctx for p in rest]
    sums.update(zip(rest, scan(partial(_power_sum, fam, r), rows,
                               jobs if work > POOL_POINTS else 1)))
    return [sums[p] for p in primes]


def _rank_one_in_t(t_coeffs) -> bool:
    """Whether every coefficient of T^j, j >= 1, is a rational multiple of one
    polynomial g(x), so that ``correlation_row`` takes F at every prime."""
    rows = [c for c in t_coeffs[1:] if any(c)]
    if not rows:
        return True
    g = rows[0]
    k = next(i for i, v in enumerate(g) if v)
    return all(len(row) == len(g) and all(v * g[k] == w * row[k] for v, w in zip(row, g))
               for row in rows[1:])


def moment_series(fam: HyperFamily, r: int, prange: PrimeRange, jobs: int = 1) -> MomentSeries:
    """Exact per-prime moments, with closed-form predictions for r = 1
    when the family has a closed form.

    Rows are emitted for every computed prime, ordered by p; non-generic
    primes keep their exact value with the generic flag cleared.  A range
    that reaches past the dense-kernel limit fails before any work starts.
    The power sums come from ``_power_sums``, and the predictions from one
    batched call of the closed form, in this process.
    """
    check_dense_range(prange.lo, prange.hi, prange.skip | fam.bad_primes)
    primes = [p for p in primes_in(prange) if p not in fam.bad_primes]
    sums = _power_sums(fam, r, primes, jobs)
    if r != 1 or fam.closed_form is None:
        rows = [MomentRow(p, s, None, None) for p, s in zip(primes, sums)]
    else:
        rows = [MomentRow(p, s, None if c is None else -c, c is not None)
                for p, s, c in zip(primes, sums, fam.closed_form(primes))]
    return MomentSeries(fam.label, r, tuple(rows))


def nagao_sum(fam: HyperFamily, prange: PrimeRange, jobs: int = 1,
              predicted: bool = False) -> NagaoEstimate:
    """Partial Nagao sums over [lo, hi] under both normalizations.

    By default -A_1(p) is computed exactly by ``_power_sums``, and a range
    past the dense-kernel limit is refused up front.  With
    ``predicted`` it comes from one batched call of the family's closed form
    instead (ValueError for a family without one), which builds no per-prime
    context and ignores ``jobs``; primes where the closed form does not
    apply are skipped.  This skips the exact sum, which matters for large
    cutoffs.
    """
    dropped = set(prange.skip | fam.bad_primes)
    if not predicted:
        check_dense_range(prange.lo, prange.hi, dropped)
    all_primes = primes_in(PrimeRange(prange.lo, prange.hi))
    primes = [p for p in all_primes if p not in dropped]
    if predicted:
        sums = _closed_form(fam, primes)
        if None in sums:
            dropped.update(p for p, s in zip(primes, sums) if s is None)
            primes = [p for p, s in zip(primes, sums) if s is not None]
            sums = [s for s in sums if s is not None]
    else:
        sums = [-s for s in _power_sums(fam, 1, primes, jobs)]
    P = prange.hi
    n = len(primes)
    # s / p as Python rounds it, and math.log, from which np.log differs at some p
    fv = np.fromiter(map(operator.truediv, sums, primes), float, n)
    logs = np.fromiter(map(math.log, primes), float, n)
    # np.cumsum adds in order, so its last entry is the sequential sum bit for bit
    theta = float(np.cumsum(fv * logs)[-1]) if n else 0.0
    pi_sum = float(np.cumsum(fv)[-1]) if n else 0.0
    return NagaoEstimate(
        P=P,
        s_theta=theta / P if P > 0 else 0.0,
        s_pi=pi_sum / n if n else 0.0,
        n_primes=n,
        skipped=tuple(p for p in all_primes if p in dropped),
    )


# ---------------------------------------------------------------------------
# symmetric-group witness via factorization patterns


@dataclass(frozen=True)
class SnWitnessReport:
    """Heuristic certificate that Gal(f) is the full symmetric group.

    Collects factorization degree patterns of f mod p across a prime scan
    and reports FOUND when an n-cycle, an (n-1)-cycle and a transposition
    pattern have all appeared; those cycle types generate S_n.  This is a
    one-sided certificate: INCONCLUSIVE does not refute S_n.
    """

    degree: int
    found: bool
    witnesses: dict
    census: dict
    scanned: int
    ramified: int

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "status": "FOUND" if self.found else "INCONCLUSIVE",
            "witnesses": self.witnesses,
            "census": {
                "+".join(map(str, k)) if isinstance(k, tuple) else k: v
                for k, v in sorted(self.census.items(), key=lambda kv: str(kv[0]))
            },
            "scanned": self.scanned,
            "ramified": self.ramified,
        }


def sn_witness(f: IntPoly, prange: PrimeRange) -> SnWitnessReport:
    """Scan primes for the n-cycle / (n-1)-cycle / transposition patterns.

    For degree < 3 the certificate degenerates (the n-cycle and the
    transposition patterns coincide), so the scan always reports
    INCONCLUSIVE there, returning the pattern census only.  A constant f
    has no factorization pattern and is refused.  The patterns come from one
    batched call of ``degree_patterns_mod`` in this process.
    """
    if not squarefree_over_q(f):
        raise ValueError("polynomial must be squarefree over Q")
    n = f.degree
    if n < 1:
        raise ValueError(f"polynomial must have degree >= 1, got {f}")
    targets = {
        "n_cycle": (n,),
        "n_minus_1_cycle": tuple(sorted((1, n - 1))),
        "transposition": tuple(sorted([1] * (n - 2) + [2])),
    }
    witnesses: dict[str, Optional[int]] = {k: None for k in targets}
    census: dict = {}
    primes = primes_in(prange)
    ramified = 0
    for p, pattern in zip(primes, degree_patterns_mod(f, primes)):
        if pattern is None:
            ramified += 1
            census["ramified"] = census.get("ramified", 0) + 1
            continue
        census[pattern] = census.get(pattern, 0) + 1
        if sum(pattern) != n:
            continue  # degree dropped mod p; not usable as a cycle type
        for name, target in targets.items():
            if witnesses[name] is None and pattern == target:
                witnesses[name] = p
    found = n >= 3 and all(v is not None for v in witnesses.values())
    return SnWitnessReport(n, found, witnesses, census, len(primes), ramified)
