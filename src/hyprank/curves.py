"""Odd-degree hyperelliptic families y^2 = F(x, T) and their Frobenius traces.

A family has genus g and x-degree 2g+1, so each fiber has a single point at
infinity and the trace of Frobenius at a good odd prime is the negated
Legendre sum of F(x, t) over x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .finite_field import PrimeCtx
from .polynomials import BiPoly, IntPoly, reduce_mod, squarefree_over_q


@dataclass(frozen=True, eq=False)
class HyperFamily:
    """One-parameter family y^2 = F(x, T) of genus g curves.

    Invariants checked at construction: deg_x F = 2g+1 and the generic
    fiber is squarefree (so the family is a genuine curve over Q(T), not a
    square times something smaller).

    ``closed_form``, when the family has one, takes a list of primes and
    returns -p * A_1(p) at each, or None where the prime is not generic;
    only the maker that builds a family knows it, and it must pickle for
    process-pool scans.  JSON does not carry it.
    """

    label: str
    genus: int
    F: BiPoly
    bad_primes: frozenset[int] = field(default_factory=frozenset)
    closed_form: Optional[Callable[[list[int]], list[Optional[int]]]] = None

    def __post_init__(self):
        object.__setattr__(self, "bad_primes", frozenset(self.bad_primes))
        if self.genus < 1:
            raise ValueError("genus must be >= 1")
        n = 2 * self.genus + 1
        if self.F.deg_x != n:
            raise ValueError(
                f"deg_x F = {self.F.deg_x} does not match 2*genus+1 = {n}"
            )
        if not _generic_fiber_squarefree(self.F):
            raise ValueError("generic fiber of the family is not squarefree")

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "genus": self.genus,
            "F": self.F.to_json(),
            "bad_primes": sorted(self.bad_primes),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HyperFamily":
        if not isinstance(obj, dict):
            raise ValueError(f"family JSON must be an object, not {type(obj).__name__}")
        try:
            label, genus = str(obj["label"]), int(obj["genus"])
            bad_primes = frozenset(int(p) for p in obj.get("bad_primes", []))
        except TypeError as exc:
            raise ValueError(f"bad family JSON: {exc}") from None
        return cls(label, genus, BiPoly.from_json(obj["F"]), bad_primes)


def _generic_fiber_squarefree(F: BiPoly) -> bool:
    """Exact check that gcd_x(F, dF/dx) over Q(T) is constant.

    The x-discriminant of F is a nonzero polynomial in T of degree at most
    (2*deg_x - 1) * deg_T whenever the generic fiber is squarefree, and the
    x-leading coefficient has at most deg_T roots; so scanning one more
    integer specialization than those two bounds combined is conclusive.
    """
    n = F.deg_x
    m = max(F.deg_t, 0)
    bound = (2 * n - 1) * m + m + 1
    for t in range(bound + 1):
        ft = F.specialize_t(t)
        if ft.degree == n and squarefree_over_q(ft):
            return True
    return False


def trace_of_poly(fx: IntPoly, ctx: PrimeCtx) -> int:
    """Trace -sum_x (f(x)/p) of one fiber, by the naive affine character sum.

    Used for every fiber, including singular ones and fibers whose reduction
    drops degree.
    """
    p = ctx.p
    _kernels.check_dense(p)
    vals = _kernels.horner_vec(fx.coeffs, np.arange(p, dtype=np.int64), p)
    return -int(ctx.chi[vals].sum(dtype=np.int64))


def t_coeff_rows(fam: HyperFamily, ctx: PrimeCtx) -> list[np.ndarray | None]:
    """Values over x = 0..p-1 of each T-coefficient of F mod p.

    F is reduced mod p once; ``rows[j]`` is the int64 row of the coefficient
    of T^j, or None when it vanishes mod p, so len(rows) - 1 is deg_T of the
    reduced F (or 0 when F vanishes).  Refuses a bad prime and p >= 2^26
    before anything of length p is allocated.
    """
    _check_prime(fam, ctx)
    p = ctx.p
    _kernels.check_dense(p)
    Fbar = reduce_mod(fam.F, ctx)
    xs = np.arange(p, dtype=np.int64)
    rows = [None] * (max(Fbar.deg_t, 0) + 1)
    for j in {j for _, j in Fbar.terms}:
        rows[j] = _kernels.horner_vec(Fbar.t_coeff(j).coeffs, xs, p)
    return rows


def trace_row(fam: HyperFamily, ctx: PrimeCtx) -> list[int]:
    """Traces of every specialization t = 0..p-1 at one prime."""
    return traces_from_rows(t_coeff_rows(fam, ctx), ctx)


def traces_from_rows(rows, ctx: PrimeCtx) -> list[int]:
    """Traces at t = 0..p-1 from the T-coefficient rows of ``t_coeff_rows``.

    An FFT correlation (O(p log p)) when F = c(x) + g(x) W(T) mod p, else
    the dense sum of chi over (t, x) (O(p^2)).  Both give the same integers.
    """
    row = _kernels.correlation_row(rows, ctx)
    return _kernels.trace_row_vec(rows, ctx) if row is None else row


def hasse_weil_bound(genus: int, p: int) -> int:
    """Slack bound 2g * floor(2*sqrt(p)) on |a(p)| for good squarefree fibers."""
    return 2 * genus * isqrt(4 * p)


def _check_prime(fam: HyperFamily, ctx: PrimeCtx) -> None:
    if ctx.p in fam.bad_primes:
        raise ValueError(f"p = {ctx.p} is in the family's bad-prime skip set")
