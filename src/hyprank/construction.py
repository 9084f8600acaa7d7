"""Build the quadratic-in-T family whose first moment forces rank 4g+2.

Given 4g+2 nonzero integers rho_i with distinct squares, the target family
is y^2 = x^(2g+1) T^2 + 2 q(x) T - h(x), where q and h are chosen so that
the quarter discriminant in T,

    D(x) = q(x)^2 + x^(2g+1) h(x),

equals A * prod (x - rho_i^2).  Each prescribed root of D yields a section
(x_i, y_i(T)) linear in T, and the first moment of the family is
-p * A_1(p) = (4g+2) p at every generic prime.

The coefficient system has the canonical normalization A = 4 R_0 (so
a_0 = 2 R_0) and a rational solution; it is solved in integers, and q and
h are returned as L q and L^2 h with L the lcm of that solution's
denominators, which rescales D by L^2 without moving its roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from ._kernels import _discriminant
from .curves import HyperFamily
from .finite_field import InternalCheckError, is_prime
from .polynomials import BiPoly, IntPoly

# Trial division bound of _odd_prime_factors: every |rho_i| < 2^31 gives
# values below 2^32, whose cofactor past it is a prime.
TRIAL_BOUND = 1 << 16


@dataclass(frozen=True)
class RootData:
    """Genus plus the 4g+2 prescribed square roots of the discriminant."""

    genus: int
    rho: tuple[int, ...]

    def __post_init__(self):
        g = self.genus
        if g < 1:
            raise ValueError("genus must be >= 1")
        if len(self.rho) != 4 * g + 2:  # before the tuple is built: a long range costs nothing
            raise ValueError(f"need exactly {4 * g + 2} roots, got {len(self.rho)}")
        object.__setattr__(self, "rho", tuple(int(r) for r in self.rho))
        if any(r == 0 for r in self.rho):
            raise ValueError("roots must be nonzero")
        if len({r * r for r in self.rho}) != len(self.rho):
            raise ValueError("squared roots must be pairwise distinct")


@dataclass(frozen=True, eq=False)
class ConstructionResult:
    root_data: RootData
    R: tuple[int, ...]            # monic expansion coefficients, R[4g+2] = 1
    A: int                        # leading scalar 4 * R_0
    q: IntPoly                    # L * q, q the monic solution over Q
    h: IntPoly                    # L^2 * h, h the solution over Q
    L: int                        # lcm of the denominators of q and h over Q
    F: BiPoly
    D: IntPoly                    # q^2 + x^(2g+1) h = scale * prod(x - rho_i^2)
    scale: int                    # L^2 * A
    points: tuple[tuple[int, IntPoly], ...]  # (x_i, y_i(T)) with y_i linear in T
    family: HyperFamily

    @property
    def genus(self) -> int:
        return self.root_data.genus

    @property
    def rho(self) -> tuple[int, ...]:
        return self.root_data.rho

    def to_json(self) -> dict:
        out = self.family.to_json()
        out["construction"] = {
            "rho": list(self.rho),
            "R": [str(r) for r in self.R],
            "A": str(self.A),
            "L": str(self.L),
            "scale": str(self.scale),
            "q": [str(c) for c in self.q.coeffs],
            "h": [str(c) for c in self.h.coeffs],
            "D": [str(c) for c in self.D.coeffs],
        }
        return out


def expand_roots(rd: RootData) -> list[int]:
    """Coefficients R_0..R_{4g+2} of the monic product of (x - rho_i^2)."""
    return list(IntPoly.from_roots([r * r for r in rd.rho]).coeffs)


def solve_coefficients(R: list[int], genus: int) -> tuple[IntPoly, IntPoly, int]:
    """Solve the coefficient system for monic q and for h, cleared to
    integers: (L q, L^2 h, L) with L the lcm of their denominators over Q.

    With A = 4 R_0 and a_0 = 2 R_0, the low-order coefficient equations

        R_k A = sum over i+j=k of a_i a_j        (k = 1 .. 2g)

    determine a_1..a_2g by successive division by 2 a_0 = A, and the
    high-order equations then read off the coefficients of h.  The solve
    runs in integers: b_k = a_k A^(k-1) satisfies

        b_k = R_k A^(k-1) - sum over 0 < i < k of b_i b_(k-i),

    so with S = A^(2g-1), Q = S q has the integer coefficients S a_0, b_k
    A^(2g-k) and S, and H = S^2 h has H_(k-n) = R_k A S^2 - sum over i+j=k
    of Q_i Q_j (n = 2g+1; H_n = (A - 1) S^2, the top equation).  In lowest
    terms q_i = Q_i / S has the denominator S / gcd(Q_i, S) and h_j the
    denominator S^2 / gcd(H_j, S^2); L is their lcm, and L q = Q L / S and
    L^2 h = H L^2 / S^2 are exact divisions.  The identity
    q^2 + x^n h = A * prod(x - rho_i^2) is verified exactly on the cleared
    polynomials, as (L q)^2 + x^n L^2 h = L^2 A * prod.
    """
    n = 2 * genus + 1
    if len(R) != 4 * genus + 3 or R[-1] != 1:
        raise ValueError("R must list the 4g+3 coefficients of a monic product")
    if R[0] == 0:
        raise ValueError("R_0 must be nonzero")
    A = 4 * R[0]
    b = [0] * n
    for k in range(1, n):
        b[k] = R[k] * A ** (k - 1) - sum(b[i] * b[k - i] for i in range(1, k))
    S = A ** (n - 2)
    S2 = S * S
    Q = [A // 2 * S] + [b[k] * A ** (n - 1 - k) for k in range(1, n)] + [S]
    H = [R[k] * A * S2 - sum(Q[i] * Q[k - i] for i in range(k - n, n + 1))
         for k in range(n, 2 * n)] + [(A - 1) * S2]
    L = lcm(*(S // gcd(c, S) for c in Q), *(S2 // gcd(c, S2) for c in H))
    q = IntPoly([c * L // S for c in Q])
    h = IntPoly([c * L * L // S2 for c in H])
    if q * q + h.shift(n) != IntPoly([L * L * A * r for r in R]):
        raise InternalCheckError("coefficient solve failed its defining identity")
    return q, h, L


def build_family(rd: RootData, label: str | None = None) -> ConstructionResult:
    """Run the whole pipeline and verify every identity it promises."""
    g = rd.genus
    n = 2 * g + 1
    R = expand_roots(rd)
    qz, hz, L = solve_coefficients(R, g)
    A = 4 * R[0]

    F = (
        BiPoly.term(1, n, 2)
        + BiPoly.from_x_poly(2 * qz, t_power=1)
        + BiPoly.from_x_poly(-hz)
    )
    scale = L * L * A
    D = scale * IntPoly(R)
    # b^2 - 4ac of F's T-rows is 4 D, as b = 2q: the D that first_sum_roots splits
    if IntPoly(_discriminant(*(F.t_coeff(j).coeffs for j in range(3)))) != 4 * D:
        raise InternalCheckError("discriminant does not match the prescribed roots")

    points = []
    for rho in rd.rho:
        xi = rho * rho
        s = rho**n
        c = qz.evaluate(xi)
        y0, rem = divmod(c, s)
        if rem:
            raise InternalCheckError(f"section at x = {xi} is not integral")
        y = IntPoly([y0, s])  # y(T) = rho^n T + q(rho^2) / rho^n
        if y * y != F.specialize_x(xi):
            raise InternalCheckError(f"section at x = {xi} does not lie on the family")
        points.append((xi, y))

    bad = _non_generic_primes(rd)
    fam = HyperFamily(
        f"rank{4 * g + 2}_genus{g}" if label is None else label,
        g,
        F,
        bad_primes=frozenset(bad),
    )
    return ConstructionResult(
        root_data=rd,
        R=tuple(R),
        A=A,
        q=qz,
        h=hz,
        L=L,
        F=F,
        D=D,
        scale=scale,
        points=tuple(points),
        family=fam,
    )


def _non_generic_primes(rd: RootData) -> set[int]:
    """Odd primes where the first-moment law can fail for this family.

    These divide L or A, or make two squared roots equal mod p.  Up to sign
    A = 4 R_0 = 4 prod rho_i^2, and L divides a power of A, so they are the
    odd primes that divide some rho_i, rho_i - rho_j or rho_i + rho_j, each
    factored on its own (:func:`_odd_prime_factors`).
    """
    rho = rd.rho
    values = [*rho, *(a + s * b for i, a in enumerate(rho) for b in rho[:i] for s in (1, -1))]
    return set().union(*map(_odd_prime_factors, values))


def _odd_prime_factors(m: int) -> set[int]:
    """The odd prime factors of m != 0, by trial division below TRIAL_BOUND.

    The cofactor left must be 1 or a prime: below 2^32 it is one, above
    that ``is_prime`` must certify it, below 2^64; anything else is refused
    (ValueError)."""
    n = abs(m)
    n >>= (n & -n).bit_length() - 1  # the factors 2
    out = set()
    d = 3
    while d * d <= n and d < TRIAL_BOUND:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 2
    if n >= 1 << 32 and not (n < 1 << 64 and is_prime(n)):
        raise ValueError(f"cannot factor {m}: its cofactor {n} has no prime factor below 2^16 "
                         "and is no prime below 2^64")
    if n > 1:
        out.add(n)
    return out


def to_monic_model(F: BiPoly, genus: int) -> BiPoly:
    """Rewrite the family as monic in x by absorbing the leading unit.

    Writing F = sum g_i(T) x^i with n = 2g+1 and unit u(T) = g_n(T), the
    substitution x -> x / u(T), y -> y / u(T)^g produces

        F_monic = x^n + sum_{i<n} g_i(T) * u(T)^(n-1-i) * x^i.

    The unit must be non-constant in T (a constant unit would make the
    substitution trivial or impossible to normalize).
    """
    n = F.deg_x
    if genus < 1 or n != 2 * genus + 1:
        raise ValueError("F must have x-degree 2*genus+1")
    u = F.x_coeff(n)
    if u.degree < 1:
        raise ValueError("leading x-coefficient is constant in T; nothing to absorb")
    u_bi = BiPoly({(0, j): c for j, c in enumerate(u.coeffs)})
    out = BiPoly.term(1, n, 0)
    upow = [BiPoly.const(1)]
    for _ in range(n - 1):
        upow.append(upow[-1] * u_bi)
    for i in range(n):
        gi = F.x_coeff(i)
        if gi.is_zero:
            continue
        gi_bi = BiPoly({(0, j): c for j, c in enumerate(gi.coeffs)})
        out = out + BiPoly.term(1, i, 0) * gi_bi * upow[n - 1 - i]
    if out.x_coeff(n) != IntPoly.const(1):
        raise InternalCheckError("monic model does not have unit leading coefficient")
    return out
