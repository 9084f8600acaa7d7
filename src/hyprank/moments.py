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
from .curves import HyperFamily, t_coeff_rows, trace_row
from .finite_field import PrimeCtx, PrimeRange, primes_in
from .polynomials import (
    BiPoly,
    IntPoly,
    degree_pattern_mod,
    mod_gcd,
    reduce_mod,
    root_count_mod,
    squarefree_over_q,
)


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
    case sums the trace row of ``trace_row`` (O(p log p) for rank-one F,
    else O(p^2)).
    """
    if r < 1:
        raise ValueError("moment order must be >= 1")
    if r == 1:
        rows = t_coeff_rows(fam, ctx)
        if len(rows) <= 3:
            return first_sum_vec(rows, ctx)
        # trace_row rebuilds the O(p) rows; its trace kernel dominates.
    return sum(a**r for a in trace_row(fam, ctx))


def moment(fam: HyperFamily, r: int, ctx: PrimeCtx) -> Fraction:
    """The exact r-th moment A_r(p)."""
    return Fraction(power_sum(fam, r, ctx), ctx.p)


def predict_first_moment(fam: HyperFamily, ctx: PrimeCtx) -> int:
    """Closed-form value of -p * A_1(p), from the family's own closed form.

    Raises ValueError when the family has none, and NonGenericPrime when its
    genericity conditions fail at p (callers scanning prime ranges should
    skip such primes).
    """
    if fam.closed_form is None:
        raise ValueError(f"family {fam.label!r} has no closed-form predictor")
    return fam.closed_form(ctx)


def _shift_square_law(f: IntPoly, ctx: PrimeCtx) -> int:
    """y^2 = f(x) + T^2:  -p * A_1(p) = (L_f - 1) * p, L_f = #roots of f mod p."""
    _require_squarefree_mod_p(f, ctx)
    return (root_count_mod(f, ctx) - 1) * ctx.p


def _linear_twist_law(f: IntPoly, ctx: PrimeCtx) -> int:
    """y^2 = f(x) * T + 1:  -p * A_1(p) = L_f * p."""
    p = ctx.p
    if f.lead % p == 0:
        raise NonGenericPrime(f"p = {p} divides the leading coefficient")
    _require_squarefree_mod_p(f, ctx)
    return root_count_mod(f, ctx) * p


def _big_rank_law(cr, ctx: PrimeCtx) -> int:
    """The quadratic-in-T rank construction:  -p * A_1(p) = (4g + 2) * p."""
    p = ctx.p
    if cr.L % p == 0 or cr.A % p == 0:
        raise NonGenericPrime(f"p = {p} divides the scaling data")
    squares = {r * r % p for r in cr.rho}
    if len(squares) != len(cr.rho):
        raise NonGenericPrime(f"prescribed roots collide mod {p}")
    return (4 * cr.genus + 2) * p


def _require_squarefree_mod_p(f: IntPoly, ctx: PrimeCtx) -> None:
    fbar = reduce_mod(f, ctx)
    if fbar.is_zero:
        raise NonGenericPrime(f"f vanishes identically mod {ctx.p}")
    if mod_gcd(fbar, fbar.derivative()).degree != 0:
        raise NonGenericPrime(f"f is not squarefree mod {ctx.p}")


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


def _power_sum_task(fam: HyperFamily, r: int, p: int) -> tuple[int, int]:
    return p, power_sum(fam, r, PrimeCtx(p))


def _power_sums(fam, r, primes, jobs) -> dict[int, int]:
    """p * A_r(p) for every prime, on at most min(jobs, CPUs, #primes) workers.

    The largest prime is checked against the dense-kernel limit first, so a
    range that reaches past it fails before any work starts.
    """
    if primes:
        check_dense(max(primes))
    jobs = min(jobs, os.cpu_count() or 1, len(primes))
    if jobs <= 1:
        return {p: power_sum(fam, r, PrimeCtx(p)) for p in primes}
    task = partial(_power_sum_task, fam, r)
    chunk = max(1, len(primes) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return dict(pool.map(task, primes, chunksize=chunk))


def moment_series(
    fam: HyperFamily,
    r: int,
    prange: PrimeRange,
    jobs: int = 1,
) -> MomentSeries:
    """Exact per-prime moments, with closed-form predictions for r = 1
    when the family has a closed form.

    Rows are emitted for every computed prime, ordered by p; non-generic
    primes keep their exact value with the generic flag cleared.
    """
    primes = [p for p in primes_in(prange) if p not in fam.bad_primes]
    sums = _power_sums(fam, r, primes, jobs)
    predicts = r == 1 and fam.closed_form is not None
    rows = []
    for p in primes:
        value = Fraction(sums[p], p)
        predicted = None
        generic = None
        if predicts:
            try:
                predicted = Fraction(-predict_first_moment(fam, PrimeCtx(p)), p)
                generic = True
            except NonGenericPrime:
                generic = False
        rows.append(MomentRow(p, value, predicted, generic))
    return MomentSeries(fam.label, r, tuple(rows))


def nagao_sum(
    fam: HyperFamily,
    prange: PrimeRange,
    jobs: int = 1,
    predicted: bool = False,
) -> NagaoEstimate:
    """Partial Nagao sums over [lo, hi] under both normalizations.

    By default -A_1(p) is computed exactly by ``power_sum``: O(p) per
    prime when deg_T F <= 2 (shift_square, linear_twist, big_rank), and
    O(p^2) from the dense trace row otherwise.  With ``predicted`` it comes
    from the family's closed form instead (``predict_first_moment``, which
    raises ValueError for a family without one); primes where that raises
    NonGenericPrime are skipped.  This skips the exact sum, which matters
    for large cutoffs.
    """
    all_primes = primes_in(PrimeRange(prange.lo, prange.hi))
    skipped = [p for p in all_primes if p in prange.skip or p in fam.bad_primes]
    primes = [p for p in all_primes if p not in prange.skip and p not in fam.bad_primes]

    values: list[tuple[int, Fraction]] = []
    if predicted:
        for p in primes:
            try:
                values.append((p, Fraction(predict_first_moment(fam, PrimeCtx(p)), p)))
            except NonGenericPrime:
                skipped.append(p)
    else:
        sums = _power_sums(fam, 1, primes, jobs)
        values = [(p, Fraction(-sums[p], p)) for p in primes]

    P = prange.hi
    theta = 0.0
    pi_sum = 0.0
    for p, v in sorted(values):
        fv = float(v)
        theta += fv * math.log(p)
        pi_sum += fv
    n = len(values)
    return NagaoEstimate(
        P=P,
        s_theta=theta / P if P > 0 else 0.0,
        s_pi=pi_sum / n if n else 0.0,
        n_primes=n,
        skipped=tuple(sorted(skipped)),
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
    INCONCLUSIVE there, returning the pattern census only.
    """
    if f.is_zero or not squarefree_over_q(f):
        raise ValueError("polynomial must be squarefree over Q")
    n = f.degree
    targets = {
        "n_cycle": (n,),
        "n_minus_1_cycle": tuple(sorted((1, n - 1))),
        "transposition": tuple(sorted([1] * (n - 2) + [2])),
    }
    witnesses: dict[str, Optional[int]] = {k: None for k in targets}
    census: dict = {}
    scanned = 0
    ramified = 0
    for p in primes_in(prange):
        scanned += 1
        pattern = degree_pattern_mod(f, PrimeCtx(p))
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
    return SnWitnessReport(n, found, witnesses, census, scanned, ramified)
