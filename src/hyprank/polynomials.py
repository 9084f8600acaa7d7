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
from math import lcm
from typing import Iterable

from ._kernels import FROB_LIMIT, frobenius_rows
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
    def x_power(cls, k: int, c: int = 1) -> "IntPoly":
        return cls([0] * k + [c])

    @classmethod
    def from_roots(cls, roots: Iterable[int]) -> "IntPoly":
        """Expanded product of (x - r) over the given roots."""
        out = [1]
        for r in roots:
            nxt = [0] * (len(out) + 1)
            for i, c in enumerate(out):
                nxt[i] -= c * r
                nxt[i + 1] += c
            out = nxt
        return cls(out)

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, IntPoly) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(("IntPoly", self.coeffs))

    def __repr__(self):
        return f"IntPoly({format_poly(self.coeffs, 'x')!r})"

    def __str__(self):
        return format_poly(self.coeffs, "x")

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise ValueError("negative exponent")
        out = IntPoly.const(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def to_rat(self) -> "RatPoly":
        return RatPoly([Fraction(c) for c in self.coeffs])


class RatPoly(_DensePoly):
    """Univariate polynomial over Q; coefficients are Fractions in lowest terms."""

    __slots__ = ("coeffs",)
    _SCALARS = (int, Fraction)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        self.coeffs = _trim(cs)

    def __eq__(self, other):
        return isinstance(other, RatPoly) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(("RatPoly", self.coeffs))

    def __repr__(self):
        return f"RatPoly({[str(c) for c in self.coeffs]})"

    def denominator_lcm(self) -> int:
        return lcm(*(c.denominator for c in self.coeffs))

    def to_int_poly(self) -> IntPoly:
        if any(c.denominator != 1 for c in self.coeffs):
            raise ValueError("polynomial has non-integral coefficients")
        return IntPoly([int(c) for c in self.coeffs])


def rat_gcd(f: RatPoly, g: RatPoly) -> RatPoly:
    """Monic gcd over Q by the Euclidean algorithm."""
    a, b = list(f.coeffs), list(g.coeffs)
    while b:
        a = _rat_mod(a, b)
        a, b = b, a
    if not a:
        return RatPoly(())
    inv = 1 / a[-1]
    return RatPoly([c * inv for c in a])


def _rat_mod(a: list, b: list) -> list:
    rem = list(a)
    d = len(b) - 1
    lead = b[-1]
    while len(rem) - 1 >= d and rem:
        c = rem[-1] / lead
        k = len(rem) - 1 - d
        for j, oc in enumerate(b):
            rem[k + j] -= c * oc
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def squarefree_over_q(f: IntPoly) -> bool:
    """True iff f has no repeated roots over Q (gcd with derivative is constant)."""
    if f.is_zero:
        return False
    return rat_gcd(f.to_rat(), f.derivative().to_rat()).degree <= 0


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
    def zero(cls) -> "BiPoly":
        return cls({})

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
        if e < 0:
            raise ValueError("negative exponent")
        out = BiPoly.const(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

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

    def __eq__(self, other):
        return isinstance(other, ModPoly) and other.p == self.p and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(("ModPoly", self.p, self.coeffs))

    def __repr__(self):
        return f"ModPoly(p={self.p}, {format_poly(self.coeffs, 'x')!r})"

    def evaluate(self, x: int) -> int:
        acc = 0
        p = self.p
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def monic(self) -> "ModPoly":
        if self.is_zero:
            return self
        inv = pow(self.coeffs[-1], self.p - 2, self.p)
        return self * inv

    def divmod(self, other: "ModPoly") -> tuple["ModPoly", "ModPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        p = self.p
        rem = list(self.coeffs)
        d = other.degree
        inv = pow(other.coeffs[-1], p - 2, p)
        if len(rem) - 1 < d:
            return self._wrap(()), self
        out = [0] * (len(rem) - d)
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
    return _root_count(f, ctx.p)


def _root_count(f: IntPoly, p: int) -> int:
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
    the remaining cofactor and split off gcd(g, x^(p^d) - x).
    """
    return _degree_pattern(f, ctx.p)


def _degree_pattern(f: IntPoly, p: int):
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


def root_counts_mod(f: IntPoly, primes: list[int]) -> list[int]:
    """``root_count_mod`` at every prime, from one batched Frobenius pass.

    Each count is deg gcd(x^p - x, f mod p), with x^p mod f taken from
    ``_kernels.frobenius_rows`` and the gcd from a short Euclid per prime.
    Primes that divide lead(f), and primes from FROB_LIMIT = 2^31 on, take
    the per-prime code instead.
    """
    return _by_frobenius(f, primes, 1, _root_count,
                         lambda fbar, xps, p: _gcd_degree(fbar, _minus_x(xps[0], p), p))


def degree_patterns_mod(f: IntPoly, primes: list[int]) -> list:
    """``degree_pattern_mod`` at every prime, from one batched Frobenius pass.

    At a prime that does not divide lead(f), f mod p is squarefree exactly
    when p does not divide Res(f, f'), which is computed once over Z.  For a
    squarefree f mod p with N_k irreducible factors of degree k,

        D_i = deg gcd(x^(p^i) - x, f mod p) = sum over k | i of k * N_k,

    so k * N_k = D_k - sum over proper divisors j of k of j * N_j.  Only
    k <= d/2 is needed: what is left of the degree d is one factor.  The
    rows x^(p^i) come from ``_kernels.frobenius_rows``; primes that divide
    lead(f), and primes from 2^31 on, take the per-prime code instead.
    """
    ramified = _resultant(f, f.derivative())
    d = f.degree
    shared = {}  # one tuple per distinct pattern, however many primes have it

    def pattern(fbar, xps, p):
        if ramified % p == 0:
            return None
        parts = []  # parts[k - 1] = k * N_k
        for k, xp in enumerate(xps, 1):
            D = _gcd_degree(fbar, _minus_x(xp, p), p)
            parts.append(D - sum(parts[j - 1] for j in range(1, k) if k % j == 0))
        degrees = [k for k, v in enumerate(parts, 1) for _ in range(v // k)]
        rest = d - sum(parts)
        pat = tuple(degrees + [rest] if rest else degrees)
        return shared.setdefault(pat, pat)

    return _by_frobenius(f, primes, max(1, d // 2), _degree_pattern, pattern)


# Primes per frobenius_rows call, so that its arrays, and the lists made
# from the rows it returns, keep one size however many primes are scanned.
FROB_BLOCK = 1 << 11


def _by_frobenius(f: IntPoly, primes, depth: int, per_prime, from_rows) -> list:
    """``from_rows(f mod p, [x^(p^i) mod f for i = 1..depth], p)`` at every
    prime the batched kernel takes, ``per_prime(f, p)`` at the others."""
    batched = [f.degree >= 1 and p < FROB_LIMIT and f.lead % p != 0 for p in primes]
    ps = [p for p, ok in zip(primes, batched) if ok]
    # one block at a time, so that no array or list of every prime's rows is built
    it = (r for lo in range(0, len(ps), FROB_BLOCK)
          for r in frobenius_rows(f.coeffs, ps[lo : lo + FROB_BLOCK], depth).tolist())
    return [from_rows([c % p for c in f.coeffs], next(it), p) if ok else per_prime(f, p)
            for p, ok in zip(primes, batched)]


def _minus_x(xp: list[int], p: int) -> list[int]:
    """Residues of xp - x, with xp reduced mod a polynomial of degree len(xp)."""
    h = xp + [0] * (2 - len(xp))
    h[1] = (h[1] - 1) % p
    return h


def _gcd_degree(a: list[int], b: list[int], p: int) -> int:
    """deg gcd(a, b) over F_p for residue lists (low to high), a nonzero."""
    while b and not b[-1]:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        a = list(a)
        for k in range(len(a) - 1, db - 1, -1):
            c = a[k] * inv % p
            if c:
                for j in range(db):
                    a[k - db + j] = (a[k - db + j] - c * b[j]) % p
        del a[db:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(a) - 1


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


def format_poly(coeffs, var: str) -> str:
    """Render a dense coefficient list as `c*var^i + ...`, high powers first."""
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif mag == 1:
            body = var if i == 1 else f"{var}^{i}"
        else:
            body = f"{mag}*{var}" if i == 1 else f"{mag}*{var}^{i}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def format_bipoly(F: BiPoly) -> str:
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


class _Parser:
    """Recursive-descent parser for +, -, *, ^, parentheses, x and T."""

    def __init__(self, text: str):
        self.text = text.replace("−", "-")
        self.pos = 0

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

    def _expr(self) -> BiPoly:
        sign = 1
        while self._peek() in ("+", "-"):
            if self._peek() == "-":
                sign = -sign
            self.pos += 1
        out = self._term() * sign
        while self._peek() in ("+", "-"):
            op = self._peek()
            self.pos += 1
            sign = 1 if op == "+" else -1
            while self._peek() in ("+", "-"):
                if self._peek() == "-":
                    sign = -sign
                self.pos += 1
            out = out + self._term() * sign
        return out

    def _term(self) -> BiPoly:
        out = self._factor()
        while self._peek() == "*":
            self.pos += 1
            out = out * self._factor()
        return out

    def _factor(self) -> BiPoly:
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            e = self._integer()
            return base**e
        return base

    def _atom(self) -> BiPoly:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            out = self._expr()
            if self._peek() != ")":
                raise PolyParseError(f"missing ')' at position {self.pos}")
            self.pos += 1
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
