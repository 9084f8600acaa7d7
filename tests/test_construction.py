import random
from fractions import Fraction
from math import lcm

import pytest

from hyprank.construction import (
    RootData,
    build_family,
    expand_roots,
    solve_coefficients,
    to_monic_model,
)
from hyprank.finite_field import PrimeCtx, PrimeRange, primes_in
from hyprank.moments import NonGenericPrime, make_big_rank, power_sum, predict_first_moment
from hyprank.polynomials import IntPoly, parse_bipoly

from support import with_none

PAPER_R = [
    13168189440000,
    -20407635072000,
    8689315795776,
    -1593719752240,
    151847872396,
    -8261931405,
    268880381,
    -5293970,
    61446,
    -385,
    1,
]


def test_root_data_validation():
    RootData(1, (1, -2, 3, -4, 5, -6))
    with pytest.raises(ValueError):
        RootData(1, (1, 2, 3, 4, 5))  # wrong count
    with pytest.raises(ValueError):
        RootData(1, (0, 2, 3, 4, 5, 6))  # zero root
    with pytest.raises(ValueError):
        RootData(1, (1, -1, 2, 3, 4, 5))  # squares collide
    with pytest.raises(ValueError):
        RootData(0, ())


def test_expand_roots_matches_published_values():
    R = expand_roots(RootData(2, tuple(range(1, 11))))
    assert R == PAPER_R
    assert R[0] == 13168189440000
    assert R[4] == 151847872396
    assert R[9] == -385


def test_solve_coefficients_normalization():
    R = expand_roots(RootData(2, tuple(range(1, 11))))
    q, h, L = solve_coefficients(R, 2)
    A = 4 * R[0]
    assert A == 52672757760000
    assert L == 62476467927496043633049600000000
    assert q.coeffs[0] == 2 * L * R[0] == L * 26336378880000
    assert q.coeffs[1] == L * R[1] == L * -20407635072000  # a_1 = R_1 when A = 2 a_0
    assert q.degree == 5 and q.coeffs[-1] == L
    assert h.degree == 5 and h.coeffs[-1] == L * L * (A - 1)
    # defining identity, exact over Z after clearing by L
    assert q * q + h.shift(5) == IntPoly([L * L * A * r for r in R])


def test_solve_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_coefficients([1, 2, 3], 1)


def _rational_solution(R, genus):
    """The monic q and the h over Q of q^2 + x^n h = A prod(x - rho_i^2),
    A = 4 R_0, by the recursion over Fractions: the reference for the
    cleared integers of ``solve_coefficients``."""
    n = 2 * genus + 1
    A = 4 * R[0]
    q = [Fraction(0)] * (n + 1)
    q[0], q[n] = Fraction(2 * R[0]), Fraction(1)
    for k in range(1, n):
        q[k] = (A * R[k] - sum(q[i] * q[k - i] for i in range(1, k))) / (2 * q[0])
    square = [sum(q[i] * q[k - i] for i in range(max(0, k - n), min(k, n) + 1))
              for k in range(2 * n + 1)]
    assert all(A * R[k] == square[k] for k in range(n))
    return q, [A * R[k] - square[k] for k in range(n, 2 * n + 1)]


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_solve_coefficients_clears_the_rational_solution(genus):
    """L is the lcm of the denominators of q and h over Q, and the solve
    returns L q and L^2 h, on seeded signed root sets."""
    rng = random.Random(genus)
    for _ in range(6):
        picks = rng.sample(range(1, 60), 4 * genus + 2)
        rho = tuple(r if rng.random() < 0.5 else -r for r in picks)
        R = expand_roots(RootData(genus, rho))
        q_rat, h_rat = _rational_solution(R, genus)
        q, h, L = solve_coefficients(R, genus)
        assert L == lcm(*(c.denominator for c in q_rat + h_rat))
        assert list(q.coeffs) == [L * c for c in q_rat]
        assert list(h.coeffs) == [L * L * c for c in h_rat]


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_build_family_identities(genus):
    rd = RootData(genus, tuple(range(1, 4 * genus + 3)))
    cr = build_family(rd)
    n = 2 * genus + 1
    # (a) every prescribed square is a root of the quarter discriminant
    for rho in rd.rho:
        assert cr.D.evaluate(rho * rho) == 0
    # (b) q^2 + x^n h = scale * product(x - rho_i^2), exactly
    assert cr.q * cr.q + cr.h.shift(n) == cr.scale * IntPoly.from_roots(
        [r * r for r in rd.rho]
    )
    assert cr.scale == cr.L * cr.L * cr.A
    # (c) the sections lie on the family as polynomial identities in T
    assert len(cr.points) == 4 * genus + 2
    for x, y in cr.points:
        assert y.degree == 1
        assert y * y == cr.F.specialize_x(x)


def test_point_x_coordinates_are_squares_of_roots():
    cr = build_family(RootData(2, tuple(range(1, 11))))
    assert [x for x, _ in cr.points] == [i * i for i in range(1, 11)]


def test_genus_one_structure():
    cr = build_family(RootData(1, (1, -2, 3, -4, 5, -6)))
    assert cr.q.degree == 3
    assert cr.h.degree == 3
    assert cr.D.degree == 6
    assert sorted(x for x, _ in cr.points) == [1, 4, 9, 16, 25, 36]


def test_signed_roots_round_trip():
    random.seed(7)
    for genus in (1, 2):
        picks = random.sample(range(1, 13), 4 * genus + 2)
        rho = tuple(r if i % 2 == 0 else -r for i, r in enumerate(picks))
        cr = build_family(RootData(genus, rho))
        for x, y in cr.points:
            assert y * y == cr.F.specialize_x(x)
        for r in rho:
            assert cr.D.evaluate(r * r) == 0


def test_first_moment_law_on_generic_primes():
    cr = build_family(RootData(1, (1, -2, 3, -4, 5, -6)))
    fam = make_big_rank(cr)
    hits = 0
    p = 2
    while hits < 10:
        p = _next_prime(p)
        ctx = PrimeCtx(p)
        try:
            predicted = predict_first_moment(fam, ctx)
        except NonGenericPrime:
            continue
        assert -power_sum(fam, 1, ctx) == predicted == 6 * p
        hits += 1


def _next_prime(p):
    from hyprank.finite_field import is_prime

    p += 1
    while not is_prime(p) or p == 2:
        p += 1
    return p


def test_bad_primes_cover_non_generic_ones():
    cr = build_family(RootData(2, tuple(range(1, 11))))
    fam = cr.family
    # every odd prime outside the skip set satisfies the first-moment law
    for p in (23, 29, 31, 37, 101):
        assert p not in fam.bad_primes
        assert -power_sum(fam, 1, PrimeCtx(p)) == 10 * p
    assert {3, 5, 7}.issubset(fam.bad_primes)


def test_bad_primes_are_the_per_prime_genericity_rule():
    # the rule the first-moment law reads off bad_primes, checked per prime
    rng = random.Random(2024)
    for genus in (1, 1, 2, 2, 3, 3):
        mags = rng.sample(range(1, 40), 4 * genus + 2)
        rd = RootData(genus, tuple(m if rng.random() < 0.5 else -m for m in mags))
        cr = build_family(rd)
        rule = {p for p in primes_in(PrimeRange(3, 10**4))
                if cr.L % p == 0 or cr.A % p == 0
                or len({r * r % p for r in rd.rho}) != len(rd.rho)}
        assert {p for p in cr.family.bad_primes if 3 <= p <= 10**4} == rule, rd.rho
        primes = primes_in(PrimeRange(3, 300))
        law = with_none(*make_big_rank(cr).closed_form(primes))
        assert [p for p, v in zip(primes, law) if v is None] == sorted(rule & set(primes))


def _full_factor(m: int) -> set[int]:
    """The prime factors of m != 0 by trial division up to sqrt(m)."""
    m, out, d = abs(m), set(), 2
    while d * d <= m:
        while m % d == 0:
            out.add(d)
            m //= d
        d += 1
    return out | ({m} if m > 1 else set())


def test_bad_primes_against_full_factorization():
    # the odd primes of L A and of every rho_i^2 - rho_j^2, fully factored,
    # that divide L or A or make two squared roots equal mod p
    rng = random.Random(28)
    for genus in (1, 1, 2, 2, 3):
        mags = rng.sample(range(1, 5000), 4 * genus + 2)
        rd = RootData(genus, tuple(m if rng.random() < 0.5 else -m for m in mags))
        cr = build_family(rd)
        squares = [r * r for r in rd.rho]
        values = [cr.L * cr.A, *(a - b for i, a in enumerate(squares) for b in squares[:i])]
        candidates = set().union(*map(_full_factor, values)) - {2}
        rule = {q for q in candidates if cr.L % q == 0 or cr.A % q == 0
                or len({r % q for r in squares}) != len(squares)}
        assert cr.family.bad_primes == rule, rd.rho


def test_roots_below_two_to_the_31_are_never_refused():
    # every rho_i +- rho_j is below 2^32, so what trial division to 2^16
    # leaves of it is a prime
    rng = random.Random(31)
    for genus in (1, 2):
        mags = rng.sample(range(2**30, 2**31), 4 * genus + 2)
        rd = RootData(genus, tuple(m if rng.random() < 0.5 else -m for m in mags))
        cr = build_family(rd)
        squares = [r * r for r in rd.rho]
        for q in cr.family.bad_primes:
            assert q % 2 and (cr.A % q == 0 or len({r % q for r in squares}) != len(squares))
        rule = {p for p in primes_in(PrimeRange(3, 3000))
                if cr.A % p == 0 or len({r % p for r in squares}) != len(squares)}
        assert {p for p in cr.family.bad_primes if p <= 3000} == rule, rd.rho


def test_to_monic_model_shape():
    cr = build_family(RootData(2, tuple(range(1, 11))))
    Fm = to_monic_model(cr.F, 2)
    assert Fm.x_coeff(5) == IntPoly.const(1)
    u = cr.F.x_coeff(5)
    # the x^(n-2) coefficient is scaled by one power of the absorbed unit
    assert Fm.x_coeff(3) == cr.F.x_coeff(3) * u
    with pytest.raises(ValueError):
        to_monic_model(parse_bipoly("x^3 + T"), 1)  # constant leading unit


def test_monic_model_preserves_traces():
    from hyprank.oracles import trace_of_poly

    cr = build_family(RootData(1, (1, 2, 3, 4, 5, 6)))
    Fm = to_monic_model(cr.F, 1)
    u = cr.F.x_coeff(3)
    # t chosen so the unit u(t) = (t+L)^2 - A L^2 is a nonzero perfect square
    t_square = 1 + cr.R[0] * cr.L**2 - cr.L
    val = u.evaluate(t_square)
    root = _isqrt_exact(val)
    assert root is not None and val > 0
    for t in (1, t_square):
        ut = u.evaluate(t)
        fx = cr.F.specialize_t(t)
        gx = Fm.specialize_t(t)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            if ut % p == 0:
                continue
            ctx = PrimeCtx(p)
            assert trace_of_poly(fx, ctx) == trace_of_poly(gx, ctx)


def _isqrt_exact(n):
    from math import isqrt

    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def test_construction_json_shape():
    cr = build_family(RootData(1, (1, 2, 3, 4, 5, 6)), label="demo")
    obj = cr.to_json()
    assert obj["label"] == "demo"
    block = obj["construction"]
    assert block["R"][-1] == "1"
    assert all(isinstance(s, str) for s in block["q"])
    assert block["scale"] == str(cr.scale)
