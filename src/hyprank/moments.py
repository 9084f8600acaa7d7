"""Moment statistics of Frobenius traces and the Nagao-style rank estimator.

The r-th moment at p is A_r(p) = (1/p) * sum over t = 0..p-1 of a_t^r,
with a_t the trace of the fiber at T = t.  Moments are exact rationals;
the only floating-point values in the package are the two normalizations
of the Nagao partial sum (standard doubles).
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from time import perf_counter
from typing import Optional

import numpy as np

from ._kernels import (_brute, check_dense_range, first_sum_roots, first_sum_vec, power_total,
                       prime_array, prime_blocks, quadratic_power_sums, residues)
from .curves import HyperFamily, t_coeff_rows, traces_from_rows
from .finite_field import PrimeCtx, PrimeRange, primes_in
from .polynomials import (BiPoly, IntPoly, degree_patterns_mod, linear_factor_counts,
                          squarefree_over_q)


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
    ``_power_sums`` at this one prime."""
    if r < 1:
        raise ValueError("moment order must be >= 1")
    fam.check_prime(ctx)
    return int(_power_sums(fam.F, r, [ctx.p], 1)[0])


def moment(fam: HyperFamily, r: int, ctx: PrimeCtx) -> Fraction:
    """The exact r-th moment A_r(p)."""
    return Fraction(power_sum(fam, r, ctx), ctx.p)


def predict_first_moment(fam: HyperFamily, ctx: PrimeCtx) -> int:
    """Closed-form value of -p * A_1(p), from the family's own closed form.

    The per-prime form of ``fam.closed_form``.  Raises ValueError when the
    family has none, and NonGenericPrime when its genericity conditions fail
    at p (callers scanning prime ranges should skip such primes).
    """
    values, generic = _closed_form(fam, [ctx.p])
    if not generic[0]:
        raise NonGenericPrime(f"the closed form of {fam.label!r} does not apply at p = {ctx.p}")
    return int(values[0])


def _closed_form(fam: HyperFamily, primes) -> tuple[np.ndarray, np.ndarray]:
    if fam.closed_form is None:
        raise ValueError(f"family {fam.label!r} has no closed-form predictor")
    return fam.closed_form(primes)


def _shift_square_law(f: IntPoly, primes) -> tuple[np.ndarray, np.ndarray]:
    """y^2 = f(x) + T^2:  -p * A_1(p) = (L_f - 1) * p, L_f = #roots of f mod p.

    Generic where f mod p is squarefree, the mask of
    ``linear_factor_counts``.  With f split over Z into k distinct
    integer roots and a cofactor g, L_f = k + D_1(g), D_1(g) the number of
    roots of g mod p, at every prime that does not divide lead(f): a split
    f (g constant) takes no Frobenius step, and its Nagao limit is
    deg f - 1.
    """
    ps = prime_array(primes)
    counts, squarefree = linear_factor_counts(f, ps)
    return (counts - 1) * ps, squarefree


def _linear_twist_law(f: IntPoly, primes) -> tuple[np.ndarray, np.ndarray]:
    """y^2 = f(x) * T + 1:  -p * A_1(p) = L_f * p, generic where f mod p is
    squarefree and p does not divide the leading coefficient.

    L_f = k + D_1(g) as for :func:`_shift_square_law`, so a split f takes
    no Frobenius step, and its Nagao limit is deg f.
    """
    ps = prime_array(primes)
    counts, squarefree = linear_factor_counts(f, ps)
    return counts * ps, squarefree & (residues(f.lead, ps) != 0)


def _big_rank_law(cr, primes) -> tuple[np.ndarray, np.ndarray]:
    """The quadratic-in-T rank construction:  -p * A_1(p) = (4g + 2) * p,
    generic away from the construction's bad primes (p | L, p | A, or two
    squared roots equal mod p)."""
    ps = prime_array(primes)
    return (4 * cr.genus + 2) * ps, ~np.isin(ps, list(cr.family.bad_primes))


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
    label = f"power({n},{h},{k})" if label is None else label
    return HyperFamily(label, (n - 1) // 2, power_poly(n, h, k))


def power_poly(n: int, h: int, k: int) -> BiPoly:
    """x^n + x^h T^k, of ``make_power`` and of ``second-moment``'s shapes."""
    return BiPoly.term(1, n, 0) + BiPoly.term(1, h, k)


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

# Seconds of serial work after which a scan at jobs > 1 pools the rest: what
# starting, feeding and stopping a pool of two cost on real tasks, about 50 ms
# on a 2-core host (big_rank r = 2 to 1500: 0.15 s pooled, 0.21 s serial).
POOL_START_S = 0.05


def scan(task, items: list, jobs: int = 1) -> list:
    """``[task(item) for item in items]``, in the order of ``items``.

    The one driver for character-sum scans.  The items are primes, each
    task building its one ``PrimeCtx`` where it runs, or blocks of primes
    (``prime_blocks``) for the quadratic-in-T block kernels, which build no
    per-prime context.  Where min(jobs, CPUs) <= 1 it reads no clock; else the
    items run here in order until their summed wall time reaches
    ``POOL_START_S`` with two or more left, which go to min(jobs, CPUs,
    #left) worker processes: a scan cheaper than a pool starts none, and any
    other costs at most about twice the better of serial and pooled.  A
    pooled ``task`` must pickle, so callers pass a private module-level
    function or a partial of one, never a public name that may have been
    rebound.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        return [task(item) for item in items]
    out, spent = [], 0.0
    for item in items:
        start = perf_counter()
        out.append(task(item))
        spent += perf_counter() - start
        if spent >= POOL_START_S and len(items) - len(out) >= 2:
            break
    rest = items[len(out):]
    if not rest:
        return out
    from concurrent.futures import ProcessPoolExecutor  # deferred: keeps `import hyprank` light

    with ProcessPoolExecutor(max_workers=min(jobs, len(rest))) as pool:
        return out + list(pool.map(task, rest, chunksize=max(1, len(rest) // (4 * jobs))))


def _power_sum(F: BiPoly, r: int, p: int) -> int:
    """p * A_r(p) from the trace row at p, for the F no other route takes.
    A private name, which a pool pickles by reference."""
    ctx = PrimeCtx(p)
    return power_total(traces_from_rows(t_coeff_rows(F, ctx), ctx), r)


def _class_sum(n: int, h: int, k: int, p: int) -> int:
    """p * A_2(p) of x^n + x^h T^k by its classes of t; pickled by reference."""
    return _brute(n, h, k, PrimeCtx(p))


def _block_sums(t_coeffs, r: int, block: list[int]) -> list[int]:
    """p * A_r(p) at each prime of a block, for F of degree <= 2 in T over Z:
    ``first_sum_vec`` for r = 1, else ``quadratic_power_sums``.  A private
    module-level name, which a pool pickles by reference."""
    return first_sum_vec(t_coeffs, block) if r == 1 else quadratic_power_sums(t_coeffs, r, block)


def _power_sums(F: BiPoly, r: int, primes, jobs: int):
    """p * A_r(p) of y^2 = F at each prime, exact: the one route of every moment.

    The shape of F over Z picks one route for the whole scan, each giving
    its sums in the order of ``primes``: at r = 1 one int64 array, whatever
    the route, and at r >= 2 a list of Python ints, as p A_r(p) may pass
    2^63 there.  At r = 2 the power shape x^n + x^h T^k (``_power_shape``),
    singular h >= 2 too, takes one O(p) coset-class sum a prime
    (``_kernels._brute``), with no trace row.  Where deg_T F <= 2, r = 1
    first takes one call of ``first_sum_roots``, in this process: where the
    weight a (or c, where a = 0 over Z) is a monomial alpha x^k, it needs
    the roots of D = b^2 - 4ac mod p alone (``_kernels.root_counts``), at
    every prime that does not divide alpha lead(D): O(d) a prime from the
    integer roots of D, split off once, and for the cofactor they leave,
    where that is no constant, O(d^2 log p) for its Frobenius chain, or
    O(p d) for its values where p <= its degree.  The primes it declines,
    known from the family alone, take ``first_sum_vec``, O(p) with the sums
    over t and x swapped, in blocks with no per-prime context, and fill the
    places its mask leaves.  For r >= 2 and F not rank-one over Q
    (``_rank_one_in_t``) every prime takes the blocks of
    ``quadratic_power_sums``, O(p^2) int8 copies.  Every other F takes one
    trace row per prime (``_power_sum``): ``traces_from_rows`` gives it in
    O(p log p) where F is rank-one mod p (``correlation_row``), else in
    O(p^2) in float64 blocks (``trace_row_vec``, deg_T F >= 3), and
    ``power_total`` sums its r-th powers.  The class sums, the blocks and
    the rows go through ``scan``, which pools once they cost what a pool does."""
    if r == 2 and (shape := _power_shape(F)):
        return scan(partial(_class_sum, *shape), prime_array(primes).tolist(), jobs)
    coeffs = F.t_coeffs
    if len(coeffs) <= 3 and r == 1:
        sums, answered = first_sum_roots(coeffs, primes)
        left = prime_array(primes)[~answered].tolist()
        if left:
            sums[~answered] = np.concatenate(scan(partial(_block_sums, coeffs, 1), prime_blocks(left), jobs))
        return sums
    if len(coeffs) <= 3 and not _rank_one_in_t(coeffs):
        # at r >= 2 an F rank-one over Q takes the FFT row, O(p log p), instead
        by_block = scan(partial(_block_sums, coeffs, r), prime_blocks(primes), jobs)
        return list(itertools.chain.from_iterable(by_block))
    sums = scan(partial(_power_sum, F, r), prime_array(primes).tolist(), jobs)
    return np.array(sums, dtype=np.int64) if r == 1 else sums


def _power_shape(F: BiPoly) -> Optional[tuple[int, int, int]]:
    """(n, h, k) where F = x^n + x^h T^k over Z, n odd and h < n; else None."""
    n, ((h, k), c) = F.deg_x, min(F.terms.items(), default=((0, 0), 0))
    ok = len(F.terms) == 2 and n % 2 and F.terms.get((n, 0)) == c == 1 and h < n
    return (n, h, k) if ok else None


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
    sums = list(map(int, _power_sums(fam.F, r, primes, jobs)))
    if r != 1 or fam.closed_form is None:
        rows = [MomentRow(p, s, None, None) for p, s in zip(primes, sums)]
    else:
        values, generic = fam.closed_form(primes)
        rows = [MomentRow(p, s, -c if ok else None, ok)
                for p, s, c, ok in zip(primes, sums, values.tolist(), generic.tolist())]
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
    cutoffs.  One mask over the primes in range keeps those used: off the
    skip set and the bad primes, and predicted, generic; the rest are ``skipped``.
    """
    dropped = prange.skip | fam.bad_primes
    if not predicted:
        check_dense_range(prange.lo, prange.hi, dropped)
    primes = prime_array(primes_in(PrimeRange(prange.lo, prange.hi)))
    keep = ~np.isin(primes, list(dropped))
    if predicted:
        values, generic = _closed_form(fam, primes[keep])
        sums = values[generic]
        keep[keep] = generic
    else:
        sums = -_power_sums(fam.F, 1, primes[keep], jobs)
    used = primes[keep]
    P = prange.hi
    n = len(used)
    # s / p rounds as Python's int / int, as |s| and p are below 2^53 in int64
    # (object arrays divide Python ints); math.log, from which np.log differs at some p
    fv = sums / used
    logs = np.fromiter(map(math.log, used.tolist()), float, n)
    # np.cumsum adds in order, so its last entry is the sequential sum bit for bit
    theta = float(np.cumsum(fv * logs)[-1]) if n else 0.0
    pi_sum = float(np.cumsum(fv)[-1]) if n else 0.0
    return NagaoEstimate(P=P, s_theta=theta / P if P > 0 else 0.0, s_pi=pi_sum / n if n else 0.0,
                         n_primes=n, skipped=tuple(primes[~keep].tolist()))


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
    primes = primes_in(prange)
    patterns = degree_patterns_mod(f, primes)
    census = dict(Counter("ramified" if pattern is None else pattern for pattern in patterns))
    # the first prime of each cycle type; a pattern whose degree dropped mod p matches none
    witnesses = {name: next((p for p, pattern in zip(primes, patterns) if pattern == target), None)
                 for name, target in targets.items()}
    found = n >= 3 and all(v is not None for v in witnesses.values())
    return SnWitnessReport(n, found, witnesses, census, len(primes), census.get("ramified", 0))
