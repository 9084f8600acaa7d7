"""Exact polynomial arithmetic over Z, Z[x,T] and F_p.

Three representations:

* :class:`IntPoly`  -- dense univariate with unbounded integer coefficients,
  index i holding the coefficient of x^i, trailing zeros trimmed.
* :class:`BiPoly`   -- sparse bivariate in (x, T): a map (i, j) -> c of the
  nonzero coefficients of x^i T^j.
* :class:`ModPoly`  -- dense univariate with residues in [0, p).

The two dense classes share their arithmetic through one base class.
All values are immutable; operations return new objects.  The module also
provides counting of distinct roots mod p, distinct-degree factorization
patterns and a parser for the textual polynomial syntax used by the CLI
(`62476467927496043633049600000000*x^5*T^2 - 385*x^9 + 1`).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import comb, gcd, prod
from typing import Iterable

import numpy as np

from ._kernels import _split_roots, frobenius_gcd_degrees, prime_array, residues, root_counts
from .finite_field import PrimeCtx


class PolyParseError(ValueError):
    """Raised when a textual polynomial cannot be parsed."""


def _trim(coeffs: list) -> tuple:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class _DensePoly:
    """Dense arithmetic shared by :class:`IntPoly` and :class:`ModPoly`.

    Operations accumulate raw integer coefficients and hand them to
    ``_wrap``, whose constructor normalises them once (``int`` or reduction
    mod p) and trims trailing zeros.  The only scalars a polynomial may be
    multiplied by are ints.
    """

    __slots__ = ()

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
        if isinstance(other, int):
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

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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

    @property
    def t_coeffs(self) -> list[list[int]]:
        """The integer coefficients, low to high in x, of each T^j, j = 0..deg_T."""
        return [self.t_coeff(j).coeffs for j in range(self.deg_t + 1)]

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
            return cls({(json_int(i), json_int(j)): json_int(c) for c, i, j in obj["terms"]})
        except (KeyError, TypeError, ValueError) as exc:
            raise PolyParseError(f"bad polynomial JSON: {exc}") from None


def json_int(value) -> int:
    """An int or a decimal string read from JSON; a float or a boolean, which
    int() would truncate or read as 0 or 1, raises TypeError naming it."""
    if isinstance(value, (bool, float)):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


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


def degree_patterns_mod(f: IntPoly, primes) -> list:
    """``degree_pattern_mod`` at every odd prime, from one batched Frobenius pass.

    f is split once over Z (``_kernels._split_roots``): k distinct integer
    roots and a cofactor g.  At a prime that does not divide lead(f) the
    roots give k linear factors, and the rest of the pattern is that of g
    mod p.  For a squarefree g mod p with N_j irreducible factors of degree j,

        D_i = deg gcd(x^(p^i) - x, g mod p) = sum over j | i of j * N_j,

    so j * N_j = D_j - sum over proper divisors l of j of l * N_l, taken on
    the columns of ``_kernels.frobenius_gcd_degrees`` on g.  Only j <=
    deg(g)/2 is needed: what is left of deg g is one factor.  A g of degree
    0 takes no Frobenius step.  Where f mod p is not squarefree the value
    is None, and at a prime that divides lead(f) the pattern is that of the
    lift of f mod p (:func:`_frobenius_scan`).
    """
    patterns, squarefree = _frobenius_scan(f, primes, _cofactor_patterns)
    return np.where(squarefree, patterns, None).tolist()


def linear_factor_counts(f: IntPoly, primes) -> tuple[np.ndarray, np.ndarray]:
    """``pat.count(1)`` of :func:`degree_patterns_mod` at every odd prime, with no pattern built.

    That is L_f, the number of distinct roots of f mod p, as an int64 array,
    with the mask of the primes where f mod p is squarefree (``pat`` is None
    off it): ``_kernels.root_counts``, the root count of the first-moment
    route too, of f at a prime that does not divide lead(f), else of the
    lift of f mod p.  An f that splits over Z takes no Frobenius step.
    """
    return _frobenius_scan(f, primes, root_counts)


def _frobenius_scan(f: IntPoly, primes, read) -> tuple[np.ndarray, np.ndarray]:
    """One value per odd prime, and the mask of those where f mod p is squarefree.

    ``read(coeffs, ps)`` turns the coefficients of the polynomial scanned
    into the array of its values at the array ps of all the primes that do
    not divide its lead, off the mask where p divides Res(f, f'); at a
    prime that divides lead(f), and so any that divides the content, the
    value is that of the lift of f mod p, scanned as itself, and off the
    mask for 0.  Both divisibility masks come from residues of lead(f) and
    of the integer R of :func:`_ramified_key` over all the primes at once.
    """
    ps = prime_array(primes)
    if f.is_zero:
        return np.zeros(len(ps), dtype=np.int64), np.zeros(len(ps), dtype=bool)
    live = residues(f.lead, ps) != 0
    found = read(f.coeffs, ps[live])
    values = np.zeros(len(ps), dtype=found.dtype)
    values[live] = found
    squarefree = live & (residues(_ramified_key(f.coeffs), ps) != 0)
    for i in np.flatnonzero(~live).tolist():
        q = ps[i : i + 1]
        value, lifted = _frobenius_scan(IntPoly([c % int(q[0]) for c in f.coeffs]), q, read)
        values[i], squarefree[i] = value[0], lifted[0]
    return values, squarefree


@lru_cache(maxsize=16)
def _ramified_key(f: tuple) -> int:
    """R for the integer coefficients f of a nonzero polynomial.

    ``_kernels._split_roots`` of f gives its k distinct integer roots r_i,
    its cofactor g and the keys
    K_i = g(r_i) (r_i - r_1) ... (r_i - r_(i-1)).  At a prime p that does
    not divide lead(f), p divides Res(f, f') exactly where it divides R:

    - if f has a repeated integer root (deg f > k + deg g), f mod p is
      never squarefree, and R = 0;
    - else f = c g (x - r_1) ... (x - r_k) is squarefree over Q exactly
      when g is, and disc(AB) = disc(A) disc(B) Res(A, B)^2 gives
      disc(f / c) = disc(g) K_1^2 ... K_k^2, while Res(f, f') is
      disc(f / c) up to sign and powers of c and lead(f), which p does
      not divide; so R = K_1 ... K_k Res(g, g'), with Res(g, g') = 1 for
      a constant g.

    Cached, so a scan, or a closed form asked one prime at a time, splits
    f once.
    """
    roots, g, keys = _split_roots(f)
    if len(f) != len(roots) + len(g):
        return 0
    ramified = prod(keys)
    if len(g) > 1:
        cofactor = IntPoly(g)
        ramified *= _resultant(cofactor, cofactor.derivative())
    return ramified


def _cofactor_patterns(f: tuple, primes: np.ndarray) -> np.ndarray:
    """The factor degrees of f mod p at each prime as tuples in an object
    array, for :func:`degree_patterns_mod`: one linear factor per integer
    root of f, and those of its cofactor g."""
    roots, g, _ = _split_roots(f)
    k, d = len(roots), len(g) - 1
    parts = frobenius_gcd_degrees(g, primes, max(1, d // 2)) if d else np.zeros((len(primes), 0), int)
    return _patterns(k, d, parts)


def _patterns(k: int, d: int, parts: np.ndarray) -> np.ndarray:
    """The factor-degree tuples of k linear factors times a g of degree d,
    from rows of the gcd degrees D_1..D_(d/2) of g."""
    for j in range(2, d // 2 + 1):  # column j - 1 becomes j * N_j
        parts[:, j - 1] -= parts[:, [i - 1 for i in range(1, j) if j % i == 0]].sum(axis=1)
    # one tuple per distinct row, however many primes share it
    rows, inverse = np.unique(parts, axis=0, return_inverse=True)
    ones = [1] * k
    tuples = [tuple(ones + [j for j, v in enumerate(row, 1) for _ in range(v // j)]
                    + ([d - sum(row)] if sum(row) < d else [])) for row in rows.tolist()]
    # a 1-D object array of tuples, which np.array would make 2-D
    return np.fromiter(tuples, dtype=object, count=len(tuples))[inverse.reshape(-1)]


def _resultant(a: IntPoly, b: IntPoly) -> int:
    """Res(a, b) over Z, by the subresultant PRS in integers (Cohen,
    *A Course in Computational Algebraic Number Theory*, Algorithm 3.3.7).

    Res(a, c) = c^(deg a) for a constant c, and Res(a, b) =
    cont(a)^(deg b) cont(b)^(deg a) Res(a / cont(a), b / cont(b)).  Each
    step replaces (A, B), deg A >= deg B >= 1, by
    (B, prem(A, B) / (g h^delta)), with delta = deg A - deg B, prem the
    pseudo-remainder lead(B)^(delta + 1) A mod B, which that division
    leaves exact, g the lead of the last divisor and h = g^delta /
    h^(delta - 1) updated after it; the sign follows
    Res(A, B) = (-1)^(deg A deg B) Res(B, A).  Once B is a constant,
    Res = lead(B)^(deg A) / h^(deg A - 1).  Every coefficient stays an
    integer of the size of a minor of the Sylvester matrix, where Euclid
    over Q grows its fractions far past that.
    """
    if a.is_zero or b.is_zero:
        return 0
    if a.degree == 0:
        return a.coeffs[0] ** b.degree
    ca, cb = reduce(gcd, a.coeffs), reduce(gcd, b.coeffs)
    sign, scale = 1, ca**b.degree * cb**a.degree
    A, B = [c // ca for c in a.coeffs], [c // cb for c in b.coeffs]
    if len(A) < len(B):
        A, B = B, A
        sign = (-1) ** (a.degree * b.degree)
    g = h = 1
    while len(B) > 1:
        delta = len(A) - len(B)
        if (len(A) - 1) * (len(B) - 1) % 2:
            sign = -sign
        rest = _pseudo_remainder(A, B)
        if not rest:
            return 0
        div = g * h**delta
        A, B = B, [c // div for c in rest]
        g = A[-1]
        h = g**delta // h ** (delta - 1) if delta else h
    d = len(A) - 1
    return sign * scale * B[0] ** d // h ** (d - 1)


def _pseudo_remainder(a: list, b: list) -> list:
    """lead(b)^(deg a - deg b + 1) a mod b in Z[x], deg a >= deg b >= 1,
    coefficients low to high and trailing zeros trimmed."""
    rest, lead, top = list(a), b[-1], len(b) - 1
    unused = len(a) - top  # the factors of lead(b) still owed
    while len(rest) > top:
        c, shift = rest[-1], len(rest) - 1 - top
        rest = [v * lead for v in rest]
        for j, v in enumerate(b):
            rest[shift + j] -= c * v
        unused -= 1
        rest = list(_trim(rest))
    return [v * lead**unused for v in rest] if unused else rest


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
