"""Exact polynomial arithmetic over Z, Q, Z[x,T] and F_p.

Four representations:

* :class:`IntPoly`  -- dense univariate with unbounded integer coefficients,
  index i holding the coefficient of x^i, trailing zeros trimmed.
* :class:`RatPoly`  -- same layout over Fraction (always in lowest terms).
* :class:`BiPoly`   -- sparse bivariate in (x, T): a map (i, j) -> c of the
  nonzero coefficients of x^i T^j.
* :class:`ModPoly`  -- dense univariate with residues in [0, p).

The three dense classes share their arithmetic through one base class.
All values are immutable; operations return new objects.  The module also
provides counting of distinct roots mod p, distinct-degree factorization
patterns, the quarter discriminant in T of a quadratic-in-T bivariate
polynomial, and a parser for the textual polynomial syntax used by the CLI
(`62476467927496043633049600000000*x^5*T^2 - 385*x^9 + 1`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import islice
from math import comb, lcm, prod
from typing import Iterable

import numpy as np

from ._kernels import frobenius_gcd_degrees, prime_array, residues
from .finite_field import PrimeCtx


class PolyParseError(ValueError):
    """Raised when a textual polynomial cannot be parsed."""


def _trim(coeffs: list) -> tuple:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class _DensePoly:
    """Dense arithmetic shared by :class:`IntPoly`, :class:`RatPoly` and
    :class:`ModPoly`.

    Operations accumulate raw coefficient values and hand them to
    ``_wrap``, whose constructor normalises them once (``int``,
    ``Fraction`` or reduction mod p) and trims trailing zeros.  ``_SCALARS``
    lists the scalar types a polynomial may be multiplied by.
    """

    __slots__ = ()
    _SCALARS: tuple = (int,)

    def _wrap(self, coeffs):
        return type(self)(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _key(self) -> tuple:
        return type(self).__name__, self.coeffs

    def __eq__(self, other):
        return isinstance(other, _DensePoly) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._wrap(out)

    def __neg__(self):
        return self._wrap([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, self._SCALARS):
            return self._wrap([c * other for c in self.coeffs])
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self._wrap(())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self._wrap(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return _power(self, e, self._wrap((1,)))

    def shift(self, k: int):
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return self._wrap([0] * k + list(self.coeffs))

    def derivative(self):
        return self._wrap([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


class IntPoly(_DensePoly):
    """Univariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        self.coeffs = _trim(cs)

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def const(cls, c: int) -> "IntPoly":
        return cls((c,))

    @classmethod
    def from_roots(cls, roots: Iterable[int]) -> "IntPoly":
        """Expanded product of (x - r) over the given roots."""
        return prod((cls((-r, 1)) for r in roots), start=cls.const(1))

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __repr__(self):
        return f"IntPoly({str(self)!r})"

    def __str__(self):
        return format_bipoly(BiPoly.from_x_poly(self))


class RatPoly(_DensePoly):
    """Univariate polynomial over Q; coefficients are Fractions in lowest terms."""

    __slots__ = ("coeffs",)
    _SCALARS = (int, Fraction)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        self.coeffs = _trim(cs)

    def __repr__(self):
        return f"RatPoly({[str(c) for c in self.coeffs]})"

    def denominator_lcm(self) -> int:
        return lcm(*(c.denominator for c in self.coeffs))

    def to_int_poly(self) -> IntPoly:
        if any(c.denominator != 1 for c in self.coeffs):
            raise ValueError("polynomial has non-integral coefficients")
        return IntPoly([int(c) for c in self.coeffs])


def _rat_mod(a: list, b: list) -> list:
    rem = list(a)
    d = len(b) - 1
    while len(rem) > d:
        c = rem[-1] / b[-1]
        k = len(rem) - 1 - d
        for j, oc in enumerate(b):
            rem[k + j] -= c * oc
        rem = list(_trim(rem))
    return rem


# The prime of the squarefree certificate: 2^61 - 1, a Mersenne prime.
SQUAREFREE_PRIME = (1 << 61) - 1


def squarefree_over_q(f: IntPoly) -> bool:
    """True iff f has no repeated roots over Q: Res(f, f') != 0 when deg f >= 1;
    a nonzero constant is squarefree and the zero polynomial is not.

    The answer is first sought mod the fixed prime l = SQUAREFREE_PRIME, in
    O(n^2) steps on residues below 2^61 for n = deg f.  Certificate: let l
    not divide n * lead(f).  Then f mod l keeps the degree n and f' mod l
    the degree n - 1, since the lead n * lead(f) of f' is a unit mod l.  The
    Sylvester matrix of (f, f') has integer entries, and its reduction mod l
    is the Sylvester matrix of (f mod l, f' mod l), because neither degree
    dropped; so Res(f, f') = Res(f mod l, f' mod l) mod l.  Over the field
    F_l that resultant is nonzero exactly when gcd(f mod l, f' mod l) = 1.
    A gcd of degree 0 thus gives Res(f, f') != 0 mod l, hence Res(f, f') != 0
    and f squarefree over Q.  Where l divides n * lead(f), or the gcd mod l
    is not constant (l may divide a nonzero Res(f, f')), the exact
    ``_resultant`` over Q decides.
    """
    if f.degree < 1:
        return not f.is_zero
    df, ell = f.derivative(), SQUAREFREE_PRIME
    if (f.degree * f.lead) % ell:
        if mod_gcd(ModPoly(ell, f.coeffs), ModPoly(ell, df.coeffs)).degree == 0:
            return True
    return _resultant(f, df) != 0


class BiPoly:
    """Sparse bivariate polynomial sum of c * x^i * T^j."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        tidy = {}
        for (i, j), c in dict(terms or {}).items():
            i, j, c = int(i), int(j), int(c)
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in x^{i}*T^{j}")
            if c:
                tidy[(i, j)] = c
        self.terms = tidy

    @classmethod
    def const(cls, c: int) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def term(cls, c: int, i: int, j: int) -> "BiPoly":
        return cls({(i, j): c})

    @classmethod
    def from_x_poly(cls, f: IntPoly, t_power: int = 0) -> "BiPoly":
        """Lift f(x) to f(x) * T^t_power."""
        return cls({(i, t_power): c for i, c in enumerate(f.coeffs)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def deg_x(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    @property
    def deg_t(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def __eq__(self, other):
        return isinstance(other, BiPoly) and other.terms == self.terms

    def __repr__(self):
        return f"BiPoly({format_bipoly(self)!r})"

    def __str__(self):
        return format_bipoly(self)

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return BiPoly(out)

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return BiPoly({k: c * other for k, c in self.terms.items()})
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "BiPoly":
        return _power(self, e, BiPoly.const(1))

    def t_coeff(self, j: int) -> IntPoly:
        """Coefficient of T^j as a polynomial in x."""
        terms = self.terms.items()
        return _collect(((i, c) for (i, jj), c in terms if jj == j), self.deg_x)

    def x_coeff(self, i: int) -> IntPoly:
        """Coefficient of x^i as a polynomial in T."""
        terms = self.terms.items()
        return _collect(((j, c) for (ii, j), c in terms if ii == i), self.deg_t)

    def specialize_t(self, t: int) -> IntPoly:
        """Substitute T = t, returning a polynomial in x."""
        return _collect(((i, c * t**j) for (i, j), c in self.terms.items()), self.deg_x)

    def specialize_x(self, x: int) -> IntPoly:
        """Substitute x, returning a polynomial in T."""
        return _collect(((j, c * x**i) for (i, j), c in self.terms.items()), self.deg_t)

    def to_json(self) -> dict:
        rows = [[str(c), i, j] for (i, j), c in sorted(self.terms.items())]
        return {"terms": rows}

    @classmethod
    def from_json(cls, obj: dict) -> "BiPoly":
        try:
            return cls({(int(i), int(j)): int(c) for c, i, j in obj["terms"]})
        except (KeyError, TypeError, ValueError) as exc:
            raise PolyParseError(f"bad polynomial JSON: {exc}") from None


def _power(base, e: int, one):
    """base^e by square and multiply, ``one`` being base^0."""
    if e < 0:
        raise ValueError("negative exponent")
    out = one
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


def _collect(pairs, degree: int) -> IntPoly:
    """The IntPoly of degree at most ``degree`` summing c * x^k over (k, c) pairs."""
    cs = [0] * (degree + 1)
    for k, c in pairs:
        cs[k] += c
    return IntPoly(cs)


class ModPoly(_DensePoly):
    """Univariate polynomial with coefficients reduced into [0, p)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Iterable[int] = ()):
        self.p = p
        self.coeffs = _trim([int(c) % p for c in coeffs])

    def _wrap(self, coeffs) -> "ModPoly":
        return ModPoly(self.p, coeffs)

    def _key(self) -> tuple:
        return "ModPoly", self.p, self.coeffs

    def __repr__(self):
        return f"ModPoly(p={self.p}, {format_bipoly(BiPoly.from_x_poly(self))!r})"

    def evaluate(self, x: int) -> int:
        return super().evaluate(x) % self.p

    def monic(self) -> "ModPoly":
        if self.is_zero:
            return self
        inv = pow(self.coeffs[-1], -1, self.p)
        return self * inv

    def divmod(self, other: "ModPoly") -> tuple["ModPoly", "ModPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        p = self.p
        rem = list(self.coeffs)
        d = other.degree
        inv = pow(other.coeffs[-1], -1, p)
        out = [0] * (len(rem) - d)  # empty, and rem returned whole, when deg self < d
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] % p
            if c == 0:
                continue
            q = c * inv % p
            out[i - d] = q
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] = (rem[i - d + j] - q * oc) % p
        return self._wrap(out), self._wrap(rem[:d])

    def __mod__(self, other: "ModPoly") -> "ModPoly":
        return self.divmod(other)[1]


def mod_gcd(f: ModPoly, g: ModPoly) -> ModPoly:
    """Monic gcd over F_p."""
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def mod_pow(base: ModPoly, e: int, mod: ModPoly) -> ModPoly:
    """base^e reduced mod another polynomial, by square and multiply."""
    result = ModPoly(base.p, (1,)) % mod
    acc = base % mod
    while e:
        if e & 1:
            result = (result * acc) % mod
        acc = (acc * acc) % mod
        e >>= 1
    return result


def reduce_mod(f, ctx: PrimeCtx):
    """Coefficient-wise reduction mod p: IntPoly -> ModPoly, BiPoly -> BiPoly."""
    if isinstance(f, IntPoly):
        return ModPoly(ctx.p, f.coeffs)
    if isinstance(f, BiPoly):
        return BiPoly({k: c % ctx.p for k, c in f.terms.items()})
    raise TypeError(f"cannot reduce {type(f).__name__}")


def root_count_mod(f: IntPoly, ctx: PrimeCtx) -> int:
    """Number of distinct roots of f mod p, via deg gcd(x^p - x, f mod p)."""
    p = ctx.p
    fbar = ModPoly(p, f.coeffs)
    if fbar.is_zero:
        raise ValueError(f"polynomial vanishes identically mod {p}")
    if fbar.degree < 1:
        return 0
    x = ModPoly(p, (0, 1))
    xp = mod_pow(x, p, fbar)
    return mod_gcd(fbar, xp - x).degree


def degree_pattern_mod(f: IntPoly, ctx: PrimeCtx):
    """Multiset of irreducible factor degrees of f mod p, or None if ramified.

    Ramified means f mod p is zero or not squarefree; callers scanning many
    primes treat that as an ordinary skip value.  The pattern is computed by
    distinct-degree factorization: repeatedly raise x to the p-th power mod
    the remaining cofactor and split off gcd(g, x^(p^d) - x).  This is the
    per-prime reference for :func:`degree_patterns_mod`, which scans use.
    """
    p = ctx.p
    fbar = ModPoly(p, f.coeffs)
    if fbar.is_zero:
        return None
    fbar = fbar.monic()
    if mod_gcd(fbar, fbar.derivative()).degree != 0:
        return None
    degrees = []
    g = fbar
    x = ModPoly(p, (0, 1))
    w = x % g
    d = 0
    while g.degree > 0:
        d += 1
        if 2 * d > g.degree:
            degrees.append(g.degree)
            break
        w = mod_pow(w, p, g)
        e = mod_gcd(g, w - (x % g))
        if e.degree > 0:
            degrees.extend([d] * (e.degree // d))
            g = g.divmod(e)[0].monic()
            w = w % g
    return tuple(sorted(degrees))


# Primes per frobenius_gcd_degrees call: its arrays keep one size however long the scan.
FROB_BLOCK = 1 << 11


def degree_patterns_mod(f: IntPoly, primes: list[int]) -> list:
    """``degree_pattern_mod`` at every odd prime, from one batched Frobenius pass.

    At a prime that does not divide lead(f), f mod p is squarefree exactly
    when p does not divide Res(f, f'), which is computed once over Z.  For a
    squarefree f mod p with N_k irreducible factors of degree k,

        D_i = deg gcd(x^(p^i) - x, f mod p) = sum over k | i of k * N_k,

    so k * N_k = D_k - sum over proper divisors j of k of j * N_j, taken on
    the columns of ``_kernels.frobenius_gcd_degrees``.  Only k <= d/2 is
    needed: what is left of the degree d is one factor.  At a prime that
    divides lead(f) the pattern is that of the lift of f mod p.
    """
    d = f.degree
    if d < 1:
        return [() if f.coeffs and f.coeffs[0] % p else None for p in primes]
    return _frobenius_scan(f, primes, max(1, d // 2), partial(_patterns, d), degree_patterns_mod)


def linear_factor_counts(f: IntPoly, primes: list[int]) -> list:
    """``pat.count(1)`` of :func:`degree_patterns_mod` at every odd prime, with no pattern built.

    That is L_f, the number of distinct roots of f mod p, or None where f
    mod p is not squarefree.  At a prime that does not divide lead(f) it is
    the column D_1 of ``_kernels.frobenius_gcd_degrees``, and None where p
    divides Res(f, f'); at a prime that divides lead(f) it is the count of
    the lift of f mod p.
    """
    if f.degree < 1:
        return [0 if f.coeffs and f.coeffs[0] % p else None for p in primes]
    return _frobenius_scan(f, primes, 1, lambda parts: parts[:, 0].tolist(), linear_factor_counts)


def _frobenius_scan(f: IntPoly, primes: list[int], depth: int, read, lift) -> list:
    """One value per odd prime, FROB_BLOCK primes at a time, for deg f >= 1.

    ``read`` turns the (#primes, depth) gcd degrees of the primes in a block
    that do not divide lead(f) into their values, which become None where p
    divides Res(f, f'); the value at a prime that divides lead(f) is
    ``lift(f mod p, [p])[0]``.  Both divisibility masks come from residues
    of lead(f) and Res(f, f') over a block's primes at once.
    """
    lead, ramified = f.lead, _resultant(f, f.derivative())
    out = []
    primes = iter(primes)
    while block := list(islice(primes, FROB_BLOCK)):
        ps = prime_array(block)
        live = residues(lead, ps) != 0
        if live.all():
            values = read(frobenius_gcd_degrees(f.coeffs, block, depth))
        else:
            values = [None] * len(block)
            on = np.flatnonzero(live).tolist()
            if on:
                parts = frobenius_gcd_degrees(f.coeffs, [block[i] for i in on], depth)
                for i, v in zip(on, read(parts)):
                    values[i] = v
            for i in np.flatnonzero(~live).tolist():
                p = block[i]
                values[i] = lift(IntPoly([c % p for c in f.coeffs]), [p])[0]
        for i in np.flatnonzero(live & (residues(ramified, ps) == 0)).tolist():
            values[i] = None
        out += values
    return out


def _patterns(d: int, parts: np.ndarray) -> list[tuple]:
    """The factor-degree tuples of f of degree d from rows of gcd degrees D_1..D_(d/2)."""
    for k in range(2, d // 2 + 1):  # column k - 1 becomes k * N_k
        parts[:, k - 1] -= parts[:, [j - 1 for j in range(1, k) if k % j == 0]].sum(axis=1)
    # one tuple per distinct row, however many primes share it
    rows, inverse = np.unique(parts, axis=0, return_inverse=True)
    tuples = [tuple([k for k, v in enumerate(row, 1) for _ in range(v // k)]
                    + ([d - sum(row)] if sum(row) < d else [])) for row in rows.tolist()]
    return [tuples[i] for i in inverse.reshape(-1).tolist()]


def _resultant(a: IntPoly, b: IntPoly) -> int:
    """Res(a, b) over Z, by the Euclidean algorithm over Q.

    Res(a, b) = (-1)^(deg a deg b) lead(b)^(deg a - deg r) Res(b, r) with
    r = a mod b, down to Res(a, c) = c^(deg a) for a constant c.
    """
    a = [Fraction(c) for c in a.coeffs]
    b = [Fraction(c) for c in b.coeffs]
    acc = Fraction(1)
    while len(b) > 1:
        r = _rat_mod(a, b)
        if not r:
            return 0
        if (len(a) - 1) * (len(b) - 1) % 2:
            acc = -acc
        acc *= b[-1] ** (len(a) - len(r))
        a, b = b, r
    return int(acc * b[-1] ** (len(a) - 1)) if b else 0


def disc_t_quarter(F: BiPoly) -> IntPoly:
    """Quarter discriminant in T of F = a(x) T^2 + b(x) T + c(x).

    Requires deg_T F = 2 and every coefficient of b(x) even; returns
    (b/2)^2 - a*c as a polynomial in x.
    """
    if F.deg_t != 2:
        raise ValueError("polynomial must have degree exactly 2 in T")
    a = F.t_coeff(2)
    b = F.t_coeff(1)
    c = F.t_coeff(0)
    if any(cf % 2 for cf in b.coeffs):
        raise ValueError("coefficient of T must have all even coefficients")
    half_b = IntPoly([cf // 2 for cf in b.coeffs])
    return half_b * half_b - a * c


# ---------------------------------------------------------------------------
# textual format


def format_bipoly(F: BiPoly) -> str:
    """Text of F: `c*x^i*T^j` terms, (i, j) descending.  IntPoly and ModPoly print here too."""
    if F.is_zero:
        return "0"
    parts = []
    for (i, j), c in sorted(F.terms.items(), key=lambda kv: (-kv[0][0], -kv[0][1])):
        mag = abs(c)
        factors = []
        if mag != 1 or (i == 0 and j == 0):
            factors.append(str(mag))
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("T" if j == 1 else f"T^{j}")
        body = "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# Input the parser refuses: parentheses nested deeper than MAX_DEPTH (Python's
# recursion limit allows about 250), and, before expanding it, a power or a
# product that could have more than MAX_POWER_TERMS terms or MAX_POWER_BITS
# coefficient bits in all.
MAX_DEPTH = 100
MAX_POWER_TERMS = 1 << 12
MAX_POWER_BITS = 1 << 20


def _size_bounds(*powers: tuple[BiPoly, int]) -> tuple[int, int]:
    """Upper bounds on the term count of the product of F^e over the (F, e) pairs (by
    exponent spans, and by C(e + m - 1, e) for an F of m terms) and on its coefficient
    bits (each |c| is at most the product of the (sum |c| of F)^e)."""
    spans, terms, bits = [1, 1], 1, 1
    for F, e in powers:
        for k, v in enumerate(zip(*F.terms)):
            spans[k] += e * (max(v) - min(v))
        terms *= comb(e + max(len(F.terms), 1) - 1, e)
        bits += e * max(sum(map(abs, F.terms.values())) - 1, 0).bit_length()
    return min(prod(spans), terms), bits


class _Parser:
    """Recursive-descent parser for +, -, *, ^, parentheses, x and T."""

    def __init__(self, text: str):
        self.text = text.replace("−", "-")
        self.pos = 0
        self.depth = 0

    def parse(self) -> BiPoly:
        out = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise PolyParseError(
                f"unexpected character {self.text[self.pos]!r} at position {self.pos}"
            )
        return out

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _signs(self) -> int:
        """Read a run of + and - signs (possibly empty) and return its sign."""
        sign = 1
        while self._peek() in ("+", "-"):
            if self._peek() == "-":
                sign = -sign
            self.pos += 1
        return sign

    def _expr(self) -> BiPoly:
        out = self._signs() * self._term()
        while self._peek() in ("+", "-"):
            out = out + self._signs() * self._term()
        return out

    def _term(self) -> BiPoly:
        out = self._factor()
        while self._peek() == "*":
            self.pos += 1
            factor = self._factor()
            self._bound("product", *_size_bounds((out, 1), (factor, 1)))
            out = out * factor
        return out

    def _factor(self) -> BiPoly:
        base = self._atom()
        if self._peek() != "^":
            return base
        self.pos += 1
        e = self._integer()
        self._bound(f"power ^{e}", *_size_bounds((base, e)))
        return base**e

    def _bound(self, what: str, terms: int, bits: int) -> None:
        """Refuse, before it is expanded, a result that could exceed the size limits."""
        if terms > MAX_POWER_TERMS or terms * bits > MAX_POWER_BITS:
            raise PolyParseError(
                f"{what} before position {self.pos} could expand to {terms} terms of {bits} "
                f"bits; the limit is {MAX_POWER_TERMS} terms and {MAX_POWER_BITS} bits in all"
            )

    def _atom(self) -> BiPoly:
        ch = self._peek()
        if ch == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise PolyParseError(
                    f"parentheses nested deeper than {MAX_DEPTH} at position {self.pos}")
            self.pos += 1
            out = self._expr()
            if self._peek() != ")":
                raise PolyParseError(f"missing ')' at position {self.pos}")
            self.pos += 1
            self.depth -= 1
            return out
        if ch == "x":
            self.pos += 1
            return BiPoly.term(1, 1, 0)
        if ch == "T":
            self.pos += 1
            return BiPoly.term(1, 0, 1)
        if ch.isdigit():
            return BiPoly.const(self._integer())
        raise PolyParseError(f"unexpected character {ch!r} at position {self.pos}")

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise PolyParseError(f"expected integer at position {start}")
        return int(self.text[start : self.pos])


def parse_bipoly(text: str) -> BiPoly:
    """Parse a bivariate polynomial in x and T."""
    return _Parser(text).parse()


def parse_int_poly(text: str) -> IntPoly:
    """Parse a univariate polynomial in x; rejects any T term."""
    F = parse_bipoly(text)
    if F.deg_t > 0:
        raise PolyParseError("expected a polynomial in x only, found T")
    return F.t_coeff(0)
