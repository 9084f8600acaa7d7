"""Moment statistics of Frobenius traces and the Nagao-style rank estimator.

The r-th moment at p is A_r(p) = (1/p) * sum over t = 0..p-1 of a_t^r,
with a_t the trace of the fiber at T = t.  Moments are exact rationals;
the only floating-point values in the package are the two normalizations
of the Nagao partial sum (standard doubles).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

from ._kernels import check_dense, first_sum_vec
from .curves import HyperFamily, t_coeff_rows, traces_from_rows
from .finite_field import PrimeCtx, PrimeRange, primes_in
from .polynomials import BiPoly, IntPoly, degree_patterns_mod, squarefree_over_q


class NonGenericPrime(Exception):
    """A closed-form prediction does not apply at this prime; skip it."""


@dataclass(frozen=True)
class MomentRow:
    p: int
    value: Fraction              # A_r(p), exact
    predicted: Optional[Fraction]  # closed-form A_1(p) when applicable
    generic: Optional[bool]      # None when no prediction is defined

    @property
    def match(self) -> Optional[bool]:
        if self.predicted is None:
            return None
        return self.value == self.predicted


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
    """p * A_r(p) = sum of a_t^r over the full period, exact.

    The kernel follows from the shape of F mod p: for r = 1 and deg_T <= 2
    the sums over t and x are swapped (``first_sum_vec``, O(p)); every other
    case sums the trace row of ``traces_from_rows`` (O(p log p) for
    rank-one F, else O(p^2)).
    """
    if r < 1:
        raise ValueError("moment order must be >= 1")
    rows = t_coeff_rows(fam, ctx)
    if r == 1 and len(rows) <= 3:
        return first_sum_vec(rows, ctx)
    return sum(a**r for a in traces_from_rows(rows, ctx))


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

    Generic where f mod p is squarefree, i.e. where its degree pattern is
    defined; L_f is then the number of linear factors.
    """
    patterns = degree_patterns_mod(f, primes)
    return [None if pat is None else (pat.count(1) - 1) * p for p, pat in zip(primes, patterns)]


def _linear_twist_law(f: IntPoly, primes: list[int]) -> list[Optional[int]]:
    """y^2 = f(x) * T + 1:  -p * A_1(p) = L_f * p, generic where f mod p is
    squarefree and p does not divide the leading coefficient."""
    patterns = degree_patterns_mod(f, primes)
    return [None if pat is None or f.lead % p == 0 else pat.count(1) * p
            for p, pat in zip(primes, patterns)]


def _big_rank_law(cr, primes: list[int]) -> list[Optional[int]]:
    """The quadratic-in-T rank construction:  -p * A_1(p) = (4g + 2) * p,
    generic where p divides neither L nor A and the squared roots stay
    distinct mod p."""
    return [
        (4 * cr.genus + 2) * p
        if cr.L % p and cr.A % p and len({r * r % p for r in cr.rho}) == len(cr.rho)
        else None
        for p in primes
    ]


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
    """A finished quadratic-in-T construction's family, with its first-moment law."""
    fam = construction.family
    return HyperFamily(fam.label if label is None else label, fam.genus, fam.F,
                       fam.bad_primes, closed_form=partial(_big_rank_law, construction))


def _genus_from_degree(f: IntPoly) -> int:
    if f.degree < 3 or f.degree % 2 == 0:
        raise ValueError(f"deg f = {f.degree}; an odd degree >= 3 is required")
    return (f.degree - 1) // 2


# ---------------------------------------------------------------------------
# series over prime ranges


def scan(task, primes: list[int], jobs: int = 1) -> list:
    """``[task(PrimeCtx(p)) for p in primes]``, in the order of ``primes``.

    The one driver for character-sum scans: it builds one context per prime,
    in this process, and runs serially unless min(jobs, CPUs, #primes) > 1,
    in which case the contexts go to that many worker processes.  A pooled
    ``task`` must pickle, so callers pass a private module-level function or
    a partial of one, never a public name that may have been rebound.
    """
    jobs = min(jobs, os.cpu_count() or 1, len(primes))
    ctxs = map(PrimeCtx, primes)  # lazily: a serial scan holds one chi table
    if jobs <= 1:
        return [task(ctx) for ctx in ctxs]
    chunk = max(1, len(primes) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(task, ctxs, chunksize=chunk))


def _power_sum(fam: HyperFamily, r: int, ctx: PrimeCtx) -> int:
    """``power_sum`` under a private name, which a pool pickles by reference."""
    return power_sum(fam, r, ctx)


def moment_series(fam: HyperFamily, r: int, prange: PrimeRange, jobs: int = 1) -> MomentSeries:
    """Exact per-prime moments, with closed-form predictions for r = 1
    when the family has a closed form.

    Rows are emitted for every computed prime, ordered by p; non-generic
    primes keep their exact value with the generic flag cleared.  A range
    that reaches past the dense-kernel limit fails before any work starts.
    The power sums go through ``scan``; the predictions are one batched
    call of the closed form, in this process.
    """
    primes = [p for p in primes_in(prange) if p not in fam.bad_primes]
    check_dense(max(primes, default=0))
    sums = scan(partial(_power_sum, fam, r), primes, jobs)
    if r != 1 or fam.closed_form is None:
        rows = [MomentRow(p, Fraction(s, p), None, None) for p, s in zip(primes, sums)]
    else:
        rows = [MomentRow(p, Fraction(s, p), None if c is None else Fraction(-c, p), c is not None)
                for p, s, c in zip(primes, sums, fam.closed_form(primes))]
    return MomentSeries(fam.label, r, tuple(rows))


def nagao_sum(fam: HyperFamily, prange: PrimeRange, jobs: int = 1,
              predicted: bool = False) -> NagaoEstimate:
    """Partial Nagao sums over [lo, hi] under both normalizations.

    By default -A_1(p) is computed exactly by ``power_sum`` through
    ``scan``: O(p) per prime when deg_T F <= 2 (shift_square, linear_twist,
    big_rank), O(p log p) when F is rank-one in T, and O(p^2) from the dense
    trace row otherwise; a range past the dense-kernel limit is refused up
    front.  With ``predicted`` it comes from one batched call of the
    family's closed form instead (ValueError for a family without one),
    which builds no per-prime context and ignores ``jobs``; primes where the
    closed form does not apply are skipped.  This skips the exact sum, which
    matters for large cutoffs.
    """
    all_primes = primes_in(PrimeRange(prange.lo, prange.hi))
    dropped = set(prange.skip | fam.bad_primes)
    primes = [p for p in all_primes if p not in dropped]
    if predicted:
        sums = _closed_form(fam, primes)
    else:
        check_dense(max(primes, default=0))
        sums = [-s for s in scan(partial(_power_sum, fam, 1), primes, jobs)]
    P = prange.hi
    theta = 0.0
    pi_sum = 0.0
    n = 0
    for p, s in zip(primes, sums):
        if s is None:
            dropped.add(p)
        else:
            fv = s / p
            theta += fv * math.log(p)
            pi_sum += fv
            n += 1
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


def sn_witness(f: IntPoly, prange: PrimeRange, jobs: int = 1) -> SnWitnessReport:
    """Scan primes for the n-cycle / (n-1)-cycle / transposition patterns.

    For degree < 3 the certificate degenerates (the n-cycle and the
    transposition patterns coincide), so the scan always reports
    INCONCLUSIVE there, returning the pattern census only.  A constant f
    has no factorization pattern and is refused.  The patterns come from one
    batched call of ``degree_patterns_mod`` in this process; ``jobs`` has
    no effect, as in ``nagao_sum(predicted=True)``.
    """
    if f.is_zero or not squarefree_over_q(f):
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
