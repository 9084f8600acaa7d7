from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyprank._kernels import FROB_LIMIT
from hyprank.construction import RootData, build_family
from hyprank.finite_field import PrimeCtx, PrimeRange, primes_in
from hyprank.polynomials import (
    BiPoly,
    IntPoly,
    ModPoly,
    PolyParseError,
    RatPoly,
    degree_pattern_mod,
    degree_patterns_mod,
    disc_t_quarter,
    mod_gcd,
    parse_bipoly,
    parse_int_poly,
    reduce_mod,
    root_count_mod,
    root_counts_mod,
    squarefree_over_q,
)

X = IntPoly((0, 1))


def test_int_poly_basics():
    assert (X + IntPoly.const(1)) * (X - IntPoly.const(1)) == IntPoly((-1, 0, 1))
    assert IntPoly((1, 2, 0, 0)).degree == 1
    assert IntPoly.zero().degree == -1
    assert (X**3).evaluate(2) == 8
    assert IntPoly((1, 1)).derivative() == IntPoly.const(1)
    assert 3 * X == IntPoly((0, 3))
    assert X.shift(2) == IntPoly((0, 0, 0, 1)) and IntPoly.zero().shift(3).is_zero
    with pytest.raises(TypeError):
        X * Fraction(1, 2)  # would truncate to an integer polynomial
    with pytest.raises(TypeError):
        X * RatPoly([1])
    assert RatPoly([1, 1]) * Fraction(1, 2) == RatPoly([Fraction(1, 2), Fraction(1, 2)])
    m = ModPoly(7, (3, 5, 6))
    assert m.derivative() == ModPoly(7, (5, 5)) and -m == ModPoly(7, (4, 2, 1))
    assert m * m == reduce_mod(IntPoly((3, 5, 6)) ** 2, PrimeCtx(7))


def test_from_roots_product_constant():
    f = IntPoly.from_roots([i * i for i in range(1, 11)])
    assert f.degree == 10
    assert f.coeffs[0] == 13168189440000
    assert f.lead == 1


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_from_roots_vanishes_at_roots(roots):
    f = IntPoly.from_roots(roots)
    for r in roots:
        assert f.evaluate(r) == 0


def test_rat_poly_lowest_terms():
    f = RatPoly([Fraction(2, 4), Fraction(3, 6)])
    assert f.coeffs == (Fraction(1, 2), Fraction(1, 2))
    assert f.denominator_lcm() == 2
    assert (f * 2).to_int_poly() == IntPoly((1, 1))
    with pytest.raises(ValueError):
        f.to_int_poly()


def test_reduce_mod_examples():
    ctx = PrimeCtx(5)
    f = parse_int_poly("x^3 - 6*x^2 + 11*x - 6")
    assert reduce_mod(f, ctx) == ModPoly(5, (4, 1, 4, 1))
    assert reduce_mod(parse_int_poly("7*x^2"), PrimeCtx(7)).is_zero
    assert ModPoly(5, (1, 0, 1)).evaluate(2) == 0
    assert ModPoly(7, (0, 0, 0, 1)).evaluate(3) == 6
    assert ModPoly(7, ()).evaluate(4) == 0
    F = parse_bipoly("x^5*T^2 + 10*T")
    assert reduce_mod(F, ctx) == BiPoly({(5, 2): 1})


_BIG = st.integers(min_value=-(2**128), max_value=2**128)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(_BIG, min_size=0, max_size=6),
    st.lists(_BIG, min_size=0, max_size=6),
    st.sampled_from([5, 97, 1009, 65537, 999983]),
)
def test_reduce_mod_is_ring_hom(fc, gc, p):
    f, g = IntPoly(fc), IntPoly(gc)
    ctx = PrimeCtx(p)
    assert reduce_mod(f * g, ctx) == reduce_mod(f, ctx) * reduce_mod(g, ctx)
    assert reduce_mod(f + g, ctx) == reduce_mod(f, ctx) + reduce_mod(g, ctx)


def test_root_count_examples():
    f = IntPoly.from_roots([1, 2, 3])
    assert root_count_mod(f, PrimeCtx(7)) == 3
    x2p1 = parse_int_poly("x^2+1")
    assert root_count_mod(x2p1, PrimeCtx(7)) == 0
    assert root_count_mod(x2p1, PrimeCtx(5)) == 2
    with pytest.raises(ValueError):
        root_count_mod(parse_int_poly("7*x^2+7"), PrimeCtx(7))


from hyprank.finite_field import _small_primes


@pytest.mark.parametrize("p", [p for p in _small_primes(200) if p > 2])
def test_root_count_vs_enumeration(p):
    ctx = PrimeCtx(p)
    polys = [
        IntPoly.from_roots([1, 2, 3]),
        parse_int_poly("x^2+1"),
        parse_int_poly("x^5 + x + 1"),
        parse_int_poly("x^7 - 3*x^2 + 11"),
        parse_int_poly("2*x^4 + x^3 - 5"),
    ]
    for f in polys:
        fbar = reduce_mod(f, ctx)
        if fbar.is_zero:
            continue
        count = sum(1 for x in range(p) if fbar.evaluate(x) == 0)
        assert root_count_mod(f, ctx) == count


def test_degree_pattern_examples():
    x2p1 = parse_int_poly("x^2+1")
    assert degree_pattern_mod(x2p1, PrimeCtx(5)) == (1, 1)
    assert degree_pattern_mod(x2p1, PrimeCtx(7)) == (2,)
    assert degree_pattern_mod(parse_int_poly("x^2-2*x+1"), PrimeCtx(5)) is None


def _naive_pattern(f: IntPoly, p: int):
    """Factor degrees by literal trial division over F_p; None if ramified."""
    fbar = reduce_mod(f, PrimeCtx(p))
    if fbar.is_zero or mod_gcd(fbar, fbar.derivative()).degree != 0:
        return None
    import itertools

    g = fbar.monic()
    pattern = []
    d = 1
    while g.degree > 0:
        if 2 * d > g.degree:
            break  # any nontrivial factorization has a factor of degree <= deg/2
        hit = False
        for tail in itertools.product(range(p), repeat=d):
            div = ModPoly(p, list(tail) + [1])
            quo, rem = g.divmod(div)
            if rem.is_zero:
                pattern.append(d)
                g = quo.monic()
                hit = True
                break
        if not hit:
            d += 1
    if g.degree > 0:
        pattern.append(g.degree)
    return tuple(sorted(pattern))


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_degree_pattern_vs_trial_division(p):
    import random

    rng = random.Random(p)
    ctx = PrimeCtx(p)
    for _ in range(12):
        deg = rng.randint(1, 6)
        f = IntPoly([rng.randint(-20, 20) for _ in range(deg)] + [rng.randint(1, 20)])
        assert degree_pattern_mod(f, ctx) == _naive_pattern(f, p), str(f)


def test_degree_pattern_sums_to_degree():
    f = parse_int_poly("x^6 + x^4 + x^3 + x + 3")
    for p in [5, 7, 11, 13, 17, 19, 23]:
        pat = degree_pattern_mod(f, PrimeCtx(p))
        if pat is not None:
            assert sum(pat) == reduce_mod(f, PrimeCtx(p)).degree
    split = IntPoly.from_roots([1, 2, 3, 4])
    assert degree_pattern_mod(split, PrimeCtx(31)) == (1, 1, 1, 1)


def test_disc_t_quarter():
    assert disc_t_quarter(parse_bipoly("x*T^2 + 2*T - 1")) == parse_int_poly("1 + x")
    assert disc_t_quarter(parse_bipoly("x^3*T^2 + 2*x^3*T")) == parse_int_poly("x^6")
    with pytest.raises(ValueError):
        disc_t_quarter(parse_bipoly("x*T + 1"))
    with pytest.raises(ValueError):
        disc_t_quarter(parse_bipoly("x*T^2 + 3*T + 1"))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-99, max_value=99), min_size=1, max_size=10),
    st.lists(st.integers(min_value=-99, max_value=99), min_size=1, max_size=10),
    st.integers(min_value=1, max_value=3),
)
def test_disc_t_quarter_identity(qc, hc, g):
    q, h = IntPoly(qc), IntPoly(hc)
    n = 2 * g + 1
    F = BiPoly.term(1, n, 2) + BiPoly.from_x_poly(2 * q, t_power=1) + BiPoly.from_x_poly(-h)
    assert disc_t_quarter(F) == q * q + h.shift(n)


def test_mod_gcd():
    f = reduce_mod(parse_int_poly("x^2-1"), PrimeCtx(7))
    g = reduce_mod(parse_int_poly("x-1"), PrimeCtx(7))
    assert mod_gcd(f, g) == ModPoly(7, (6, 1))


def test_squarefree_over_q():
    assert squarefree_over_q(IntPoly.from_roots([1, 2, 3]))
    assert not squarefree_over_q(IntPoly.from_roots([1, 1, 2]))


def test_parser_round_trip():
    for text in [
        "x^3 - 6*x^2 + 11*x - 6",
        "(x-1)*(x-2)*(x-3)",
        "62476467927496043633049600000000*x^5*T^2 - 385*x^9 + 1",
        "x^5*T^2 + 2*(x^5 + 3*x - 4)*T - (7*x^5 - 1)",
        "-x + 4",
        "T^2 - -3",
    ]:
        F = parse_bipoly(text)
        assert parse_bipoly(str(F)) == F


@settings(max_examples=80, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, 4)),
        st.integers(min_value=-(10**24), max_value=10**24),
        max_size=8,
    )
)
def test_parser_formatter_round_trip_fuzz(terms):
    F = BiPoly(terms)
    assert parse_bipoly(str(F)) == F


def test_parser_unicode_minus_and_errors():
    assert parse_bipoly("x − 1") == parse_bipoly("x - 1")
    for bad in ["x^", "(x-1", "x*", "y + 1", "3..2", ""]:
        with pytest.raises(PolyParseError):
            parse_bipoly(bad)
    with pytest.raises(PolyParseError):
        parse_int_poly("x + T")


def test_bipoly_json_round_trip():
    F = parse_bipoly("5*x^3*T^2 - 17*T + 9")
    assert BiPoly.from_json(F.to_json()) == F
    assert F.to_json()["terms"] == [["9", 0, 0], ["-17", 0, 1], ["5", 3, 2]]
    with pytest.raises(PolyParseError):
        BiPoly.from_json({"terms": [["x", 0]]})
    with pytest.raises(PolyParseError, match="negative exponent"):
        BiPoly.from_json({"terms": [["1", 3, 0], ["1", -1, 1]]})


def test_bipoly_rejects_negative_exponents():
    for i, j in ((-1, 0), (0, -1), (3, -2)):
        with pytest.raises(ValueError, match="negative exponent"):
            BiPoly({(i, j): 1})
        with pytest.raises(ValueError, match="negative exponent"):
            BiPoly.term(0, i, j)


def test_bipoly_coefficient_views():
    F = parse_bipoly("x^5*T^2 + 2*x^2*T - 7")
    assert F.t_coeff(2) == IntPoly.x_power(5)
    assert F.x_coeff(2) == IntPoly((0, 2))
    assert F.specialize_t(3) == parse_int_poly("9*x^5 + 6*x^2 - 7")
    assert F.specialize_x(1) == IntPoly((-7, 2, 1))
    assert F.deg_x == 5 and F.deg_t == 2


# ---------------------------------------------------------------------------
# batched Frobenius: root_counts_mod and degree_patterns_mod


def _builtin_fs():
    """The f of the three built-in families: a shift_square cubic, a
    linear_twist septic, and the big_rank x-polynomial F(x, 0) (degree 5,
    non-monic, coefficients near 2^270)."""
    cr = build_family(RootData(2, tuple(range(1, 11))))
    return [
        parse_int_poly("(x+23)*(x-32)*(x+32)"),
        IntPoly.from_roots([1, 2, 3, 4, 5, 6, 7]),
        cr.family.F.t_coeff(0),
    ]


def _assert_batch_matches_per_prime(f, primes):
    assert degree_patterns_mod(f, primes) == [degree_pattern_mod(f, PrimeCtx(p)) for p in primes]
    live = [p for p in primes if any(c % p for c in f.coeffs)]  # root_count_mod raises elsewhere
    assert root_counts_mod(f, live) == [root_count_mod(f, PrimeCtx(p)) for p in live]


@pytest.mark.parametrize("i", range(3), ids=["shift_square", "linear_twist", "big_rank"])
def test_batched_frobenius_matches_per_prime_to_ten_thousand(i):
    _assert_batch_matches_per_prime(_builtin_fs()[i], primes_in(PrimeRange(3, 10**4)))


# lead(f) gets a factor from {1, 3, 5, 7, 15, 105}; roots drawn from a small
# range make p | disc(f) common, and repeated roots make f not squarefree.
_LEAD = st.sampled_from([1, 3, 5, 7, 15, 105, -21])
_COEFF = st.one_of(st.integers(-50, 50), st.integers(-(2**100), 2**100))


@st.composite
def _polys(draw):
    lead = draw(_LEAD) * draw(st.one_of(st.just(1), st.integers(-(2**100), 2**100).filter(bool)))
    if draw(st.booleans()):
        low = draw(st.lists(_COEFF, min_size=1, max_size=9))
        return IntPoly(low + [lead])
    roots = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=9))
    return IntPoly.from_roots(roots) * lead + IntPoly([draw(st.sampled_from([0, 0, 15, 77]))])


@settings(max_examples=40, deadline=None)
@given(_polys(), st.sets(st.sampled_from(primes_in(PrimeRange(301, 10**4))), max_size=20))
def test_batched_frobenius_matches_per_prime_hypothesis(f, larger):
    # every prime up to 300, where p | lead(f) and p | disc(f) are common,
    # and a sample of the rest up to 10^4
    _assert_batch_matches_per_prime(f, primes_in(PrimeRange(3, 300)) + sorted(larger))


def test_batched_frobenius_across_the_exactness_bound():
    # 2^31 - 1 is prime: the kernel takes it, the primes above go per prime
    primes = primes_in(PrimeRange(2147483550, 2147483750))
    assert any(p < FROB_LIMIT for p in primes) and any(p > FROB_LIMIT for p in primes)
    for f in _builtin_fs() + [parse_int_poly("6*x^3 + x + 1")]:
        _assert_batch_matches_per_prime(f, primes)


def _enumerated(f: IntPoly, p: int):
    """(number of distinct roots, factor degrees) of f mod p by enumeration.

    Roots by evaluating at every x; quadratic factors by dividing by every
    monic quadratic.  The degrees are None when f mod p is zero or has a
    repeated factor.  Complete for deg(f mod p) <= 5: a remainder of degree
    <= 5 with no factor of degree <= 2 is irreducible.
    """
    g = [c % p for c in f.coeffs]
    while g and g[-1] == 0:
        g.pop()
    if not g:
        return None, None

    def divide(g, m):  # (quotient, remainder) for a monic m
        g, q = list(g), [0] * max(len(g) - len(m) + 1, 0)
        for k in range(len(g) - len(m), -1, -1):
            c = q[k] = g[k + len(m) - 1]
            for j, mj in enumerate(m):
                g[k + j] = (g[k + j] - c * mj) % p
        return q, any(g[: len(m) - 1])

    roots = [x for x in range(p) if sum(c * pow(x, i, p) for i, c in enumerate(g)) % p == 0]
    inv = pow(g[-1], -1, p)
    g = [c * inv % p for c in g]
    degrees, repeated = [], False
    candidates = [[-r % p, 1] for r in roots]
    if len(g) - 1 - len(roots) >= 4:
        candidates += [[c, b, 1] for b in range(p) for c in range(p)]
    for m in candidates:
        q, rem = divide(g, m)
        if not rem:
            g = q
            degrees.append(len(m) - 1)
            repeated = repeated or not divide(g, m)[1]
    if len(g) > 1:
        degrees.append(len(g) - 1)
    return len(roots), None if repeated else tuple(sorted(degrees))


def test_batched_frobenius_equals_enumeration_to_sixty():
    primes = primes_in(PrimeRange(3, 60))
    fs = [f for f in _builtin_fs() if f.degree <= 5] + [
        parse_int_poly(s) for s in ("(x-1)*(x-2)*(x-3)", "6*x^3 + x + 1", "(x-1)*(x-2)*(x-8)",
                                    "x^5 - x + 1", "(x^2+1)^2", "x^4 + 1", "30*x^4 + 7*x + 1",
                                    "5*x - 10", "x^2*(x-1)", "7")
    ]
    for f in fs:
        expected = [_enumerated(f, p) for p in primes]
        assert degree_patterns_mod(f, primes) == [pat for _, pat in expected], str(f)
        live = [p for p, (count, _) in zip(primes, expected) if count is not None]
        assert root_counts_mod(f, live) == [c for c, _ in expected if c is not None], str(f)
