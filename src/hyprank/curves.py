"""Odd-degree hyperelliptic families y^2 = F(x, T) and their Frobenius traces.

A family has genus g and x-degree 2g+1, so each fiber has a single point at
infinity and the trace of Frobenius at a good odd prime is the negated
Legendre sum of F(x, t) over x.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels
from .finite_field import PrimeCtx, check_dense
from .polynomials import BiPoly, IntPoly, json_int, reduce_mod, squarefree_over_q


@dataclass(frozen=True, eq=False)
class HyperFamily:
    """One-parameter family y^2 = F(x, T) of genus g curves.

    Invariants checked at construction: deg_x F = 2g+1 and the generic
    fiber is squarefree (so the family is a genuine curve over Q(T), not a
    square times something smaller).

    ``closed_form``, when the family has one, takes a list or array of primes
    and returns -p * A_1(p) at each as an array, and the boolean mask of the
    generic primes, where it holds; only the maker that builds a family
    knows it, and it must pickle for process-pool scans.  JSON does not carry it.
    """

    label: str
    genus: int
    F: BiPoly
    bad_primes: frozenset[int] = field(default_factory=frozenset)
    closed_form: Optional[Callable[[Sequence[int] | np.ndarray], tuple[np.ndarray, np.ndarray]]] = None

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

    def with_closed_form(self, label: str, closed_form) -> "HyperFamily":
        """This family under another label and closed form, with no second
        check of F."""
        fam = copy.copy(self)
        object.__setattr__(fam, "label", label)
        object.__setattr__(fam, "closed_form", closed_form)
        return fam

    def check_prime(self, ctx: PrimeCtx) -> None:
        """Refuse a prime in the family's bad-prime skip set."""
        if ctx.p in self.bad_primes:
            raise ValueError(f"p = {ctx.p} is in the family's bad-prime skip set")

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
            label, genus, F = str(obj["label"]), json_int(obj["genus"]), BiPoly.from_json(obj["F"])
            bad_primes = obj.get("bad_primes", [])
            if any(type(p) is not int for p in bad_primes):  # a string yields strings
                raise TypeError(f"bad_primes must be a list of integers, not {bad_primes!r}")
        except KeyError as exc:
            raise ValueError(f"bad family JSON: missing key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"bad family JSON: {exc}") from None
        return cls(label, genus, F, bad_primes)


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


def t_coeff_rows(F: BiPoly, ctx: PrimeCtx) -> list[np.ndarray | None]:
    """Values over x = 0..p-1 of each T-coefficient of F mod p.

    F is reduced mod p once; ``rows[j]`` is the int64 row of the coefficient
    of T^j, or None when it vanishes mod p, so len(rows) - 1 is deg_T of the
    reduced F (or 0 when F vanishes).  Refuses p >= 2^26 before anything of
    length p is allocated.
    """
    p = ctx.p
    check_dense(p)
    Fbar = reduce_mod(F, ctx)
    xs = np.arange(p, dtype=np.int64)
    rows = [None] * (max(Fbar.deg_t, 0) + 1)
    for j in {j for _, j in Fbar.terms}:
        rows[j] = _kernels.horner_vec(Fbar.t_coeff(j).coeffs, xs, p)
    return rows


@functools.lru_cache(maxsize=16)
def rank_one_split(F: BiPoly) -> Optional[tuple[IntPoly, IntPoly, IntPoly]]:
    """(c, g, W) with F = c(x) + g(x) W(T) over Z, or None where there is none.

    g is primitive with a positive lead and W = sum_{j >= 1} w_j T^j, whose
    w_j are integers by Gauss's lemma.  None when two rows of T^j, j >= 1,
    are not proportional; an F free of T gives g = 1 and W = 0.  The split,
    made once per F and process, picks the trace kernel at every prime
    (:func:`traces`) and, with deg_T F, the route of ``moments._power_sums``.
    """
    c, rows = F.t_coeff(0), [F.t_coeff(j) for j in range(1, F.deg_t + 1)]
    first = next((row for row in rows if not row.is_zero), IntPoly.const(1))
    unit = math.gcd(*first.coeffs) * (1 if first.lead > 0 else -1)
    g = IntPoly([v // unit for v in first.coeffs])
    w = [0] + [row.lead // g.lead if row.coeffs else 0 for row in rows]
    return (c, g, IntPoly(w)) if all(row == g * wj for row, wj in zip(rows, w[1:])) else None


def traces(F: BiPoly, ctx: PrimeCtx) -> np.ndarray:
    """Traces of y^2 = F at t = 0..p-1, as an int64 array, exact: by
    ``correlation_row``, O(p log p), where F splits over Z
    (:func:`rank_one_split`), else by the dense ``trace_row_vec``, O(p^2)."""
    split = rank_one_split(F)
    if split is None:
        return _kernels.trace_row_vec(t_coeff_rows(F, ctx), ctx)
    c, g, W = split
    p = ctx.p
    check_dense(p)
    xs = np.arange(p, dtype=np.int64)
    c_row = _kernels.horner_vec(c.coeffs, xs, p) if any(v % p for v in c.coeffs) else None
    return _kernels.correlation_row(c_row, _kernels.horner_vec(g.coeffs, xs, p), W.coeffs, ctx)


def trace_row(fam: HyperFamily, ctx: PrimeCtx) -> list[int]:
    """Traces of every specialization t = 0..p-1 at one prime."""
    fam.check_prime(ctx)
    return traces(fam.F, ctx).tolist()
