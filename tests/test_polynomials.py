import random
import re
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyprank import _kernels, polynomials
from hyprank._kernels import FROB_LIMIT, _gcd_degrees, _lazy_products, _mulmod, root_counts
from hyprank.construction import RootData, build_family
from hyprank.finite_field import PrimeCtx, PrimeRange, is_prime, primes_in
from hyprank.polynomials import (
    MAX_DEPTH,
    BiPoly,
    IntPoly,
    ModPoly,
    PolyParseError,
    _size_bounds,
    degree_pattern_mod,
    degree_patterns_mod,
    linear_factor_counts,
    mod_gcd,
    mod_pow,
    parse_bipoly,
    parse_int_poly,
    reduce_mod,
    root_count_mod,
    squarefree_over_q,
)
from support import with_none, x_power

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


@pytest.mark.parametrize("p", primes_in(PrimeRange(3, 200)))
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
    rows = (F.t_coeff(j).coeffs for j in range(3))  # c, b = 2q, a = x^n
    assert IntPoly(_kernels._discriminant(*rows)) == 4 * (q * q + h.shift(n))


def test_mod_gcd():
    f = reduce_mod(parse_int_poly("x^2-1"), PrimeCtx(7))
    g = reduce_mod(parse_int_poly("x-1"), PrimeCtx(7))
    assert mod_gcd(f, g) == ModPoly(7, (6, 1))


def test_squarefree_over_q():
    assert squarefree_over_q(IntPoly.from_roots([1, 2, 3]))
    assert not squarefree_over_q(IntPoly.from_roots([1, 1, 2]))
    assert not squarefree_over_q(IntPoly.zero())
    assert squarefree_over_q(IntPoly.const(7)) and squarefree_over_q(IntPoly.const(-1))
    assert squarefree_over_q(IntPoly((5, -3))) and squarefree_over_q(IntPoly((0, 10**30)))
    big = IntPoly((10**30 + 7, -(3**70), 0, 10**30))
    assert squarefree_over_q(big) and squarefree_over_q(big * 10**40)
    irred = parse_int_poly("x^2 + 1")
    assert not squarefree_over_q(irred * irred * X)
    assert not squarefree_over_q(big * big)
    lin = IntPoly((-(2**90), 3**80))
    assert not squarefree_over_q(lin * lin * irred)
    assert squarefree_over_q(lin * IntPoly((2**90, 3**80)) * irred)


_HUGE = st.integers(min_value=-(2**200), max_value=2**200)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_HUGE, min_size=1, max_size=6),
    st.lists(_HUGE, min_size=0, max_size=2),
    st.one_of(st.none(), _HUGE),
    st.one_of(st.none(), _HUGE.filter(bool)),
)
def test_squarefree_certificate_matches_the_resultant(g, square, a, lead):
    """squarefree_over_q against Res(f, f') != 0, on f = g * h^2 * (x - a)(x - a - l)
    with the leading coefficient optionally replaced by l * lead; the last two
    drive the exact fall-back (l | lead(f), or a double root mod l)."""
    ell = polynomials.SQUAREFREE_PRIME
    f = IntPoly(g) * IntPoly(square) ** 2 if square else IntPoly(g)
    if a is not None:
        f = f * IntPoly.from_roots([a, a + ell])
    if lead is not None and f.degree >= 1:
        f = IntPoly(f.coeffs[:-1] + (ell * lead,))
    if not 1 <= f.degree <= 9:
        return
    exact = polynomials._resultant(f, f.derivative()) != 0
    with patch.object(polynomials, "_resultant", wraps=polynomials._resultant) as fallback:
        assert squarefree_over_q(f) == exact
    if a is not None or lead is not None:
        assert fallback.call_count == 1
    elif not exact:
        assert fallback.call_count == 1  # the certificate never claims a square is squarefree


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


def test_parser_refuses_deep_nesting():
    deep = MAX_DEPTH + 1
    with pytest.raises(PolyParseError, match=f"deeper than {MAX_DEPTH} at position {MAX_DEPTH}"):
        parse_bipoly("(" * deep + "x" + ")" * deep)
    assert parse_bipoly("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH) == parse_bipoly("x")
    # depth counts open parentheses, not parentheses read
    assert parse_bipoly("+".join(["((x))"] * 200)) == BiPoly.term(200, 1, 0)


def test_parser_refuses_large_powers_before_expanding(monkeypatch):
    monkeypatch.setattr(BiPoly, "__pow__", lambda F, e: pytest.fail(f"expanded {F}^{e}"))
    for text, terms, bits in [("(x+T+1)^150", 11476, 301), ("(x+1)^1024", 1025, 1025),
                              ("7^370000", 1, 1110001), ("(x*x+1)^5000", 5001, 5001)]:
        with pytest.raises(PolyParseError, match=f"could expand to {terms} terms of {bits} bits"):
            parse_bipoly(text)


def test_parser_keeps_single_term_and_bounded_powers():
    assert parse_bipoly("x^100000*T^5000") == BiPoly.term(1, 100000, 5000)
    assert parse_bipoly("(-2*x*T^3)^1000") == BiPoly.term(2**1000, 1000, 3000)
    assert parse_bipoly("0^0") == BiPoly.const(1) and parse_bipoly("0^10000000").is_zero
    f = parse_int_poly("(x+1)^1023")
    assert f.coeffs[511] == comb(1023, 511) and f.degree == 1023
    assert len(parse_bipoly("(x+T+1)^89").terms) == comb(91, 2)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 3)),
                       st.integers(-9, 9).filter(bool), max_size=5),
       st.integers(0, 7))
def test_power_bounds_hold(terms, e):
    F = BiPoly(terms)
    n, bits = _size_bounds((F, e))
    G = F**e
    assert len(G.terms) <= n
    assert max((abs(c).bit_length() for c in G.terms.values()), default=0) <= bits


@settings(max_examples=60, deadline=None)
@given(*[st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 3)),
                         st.integers(-99, 99).filter(bool), max_size=6)] * 2)
def test_product_bounds_hold(terms, other):
    F, G = BiPoly(terms), BiPoly(other)
    n, bits = _size_bounds((F, 1), (G, 1))
    H = F * G
    assert len(H.terms) <= n
    assert max((abs(c).bit_length() for c in H.terms.values()), default=0) <= bits


def test_parser_refuses_long_products():
    # each factor is small, but the running product is bounded like a power
    with pytest.raises(PolyParseError, match="product before position 511 could expand to 4225"):
        parse_bipoly("*".join(["(x+T+1)"] * 150))
    assert len(parse_bipoly("*".join(["(x+T+1)"] * 63)).terms) == comb(65, 2)
    assert parse_bipoly("*".join(["(x-1)"] * 1000)) == parse_bipoly("(x-1)^1000")


def test_parser_keeps_the_readme_polynomials():
    # the perfbench inputs are parsed by test_perfbench_hooks.py::test_workload_setup_runs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    texts = re.findall(r'--f "([^"]+)"', readme)
    assert len(texts) == 4
    for text in texts:
        assert parse_int_poly(text).degree in (3, 7), text


def test_dense_poly_equality_keys_on_type_coeffs_and_p():
    f = IntPoly((1, 2))
    assert f == IntPoly([1, 2, 0]) and hash(f) == hash(IntPoly([1, 2, 0]))
    assert f != ModPoly(7, (1, 2)) and f != (1, 2)
    assert ModPoly(7, (1, 2)) == ModPoly(7, (8, 9)) != ModPoly(11, (1, 2))
    assert len({f, ModPoly(7, (1, 2)), ModPoly(7, (8, 9)), ModPoly(11, (1, 2))}) == 3


def test_dense_poly_text():
    big = 2**100
    for f, text in [
        (IntPoly.zero(), "0"),
        (IntPoly.const(7), "7"),
        (IntPoly.const(-1), "-1"),
        (IntPoly((1, -1, 0, 1)), "x^3 - x + 1"),
        (IntPoly((0, -1)), "-x"),
        (IntPoly((3, -5)), "-5*x + 3"),
        (IntPoly((0, 5)), "5*x"),
        (IntPoly((4, 0, 0, -2)), "-2*x^3 + 4"),
        (IntPoly((big, 0, -big)), f"-{big}*x^2 + {big}"),
    ]:
        assert str(f) == text and repr(f) == f"IntPoly({text!r})"
    p = 2**127 - 1
    for f, text in [
        (ModPoly(7, ()), "ModPoly(p=7, '0')"),
        (ModPoly(7, (14, 7)), "ModPoly(p=7, '0')"),
        (ModPoly(7, (3,)), "ModPoly(p=7, '3')"),
        (ModPoly(7, (-1, 1, 0, 8)), "ModPoly(p=7, 'x^3 + x + 6')"),
        (ModPoly(5, (0, 3)), "ModPoly(p=5, '3*x')"),
        (ModPoly(p, (big, 0, -1)), f"ModPoly(p={p}, '{p - 1}*x^2 + {big}')"),
    ]:
        assert repr(f) == text and str(f) == text


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
    assert F.t_coeff(2) == x_power(5)
    assert F.x_coeff(2) == IntPoly((0, 2))
    assert F.specialize_t(3) == parse_int_poly("9*x^5 + 6*x^2 - 7")
    assert F.specialize_x(1) == IntPoly((-7, 2, 1))
    assert F.deg_x == 5 and F.deg_t == 2


# ---------------------------------------------------------------------------
# batched Frobenius: degree_patterns_mod


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


def _straddling_primes():
    # 2^31 - 1 is prime: it and the primes above share one block of Python-int rows
    primes = primes_in(PrimeRange(2147483550, 2147483750))
    assert any(p < FROB_LIMIT for p in primes) and any(p > FROB_LIMIT for p in primes)
    return primes


def test_batched_frobenius_across_the_exactness_bound():
    for f in _builtin_fs() + [parse_int_poly("6*x^3 + x + 1")]:
        _assert_batch_matches_per_prime(f, _straddling_primes())


# degree 10 to 40: k integer roots in [-6, 6], repeated wherever k > 13, times a
# cofactor with coefficients of up to 100 bits and a lead that 3, 5 or 7 may divide
@st.composite
def _high_degree_polys(draw):
    d = draw(st.integers(10, 40))
    roots = draw(st.lists(st.integers(-6, 6), max_size=min(d, 16)))
    lead = draw(_LEAD) * draw(st.one_of(st.just(1), st.integers(-(2**100), 2**100).filter(bool)))
    low = draw(st.lists(_COEFF, min_size=d - len(roots), max_size=d - len(roots)))
    return IntPoly.from_roots(roots) * IntPoly(low + [lead])


def _signed_roots(f: IntPoly, p: int) -> tuple[int, int]:
    """(#R, sum over R of (s/p)), R the distinct roots of f mod p: by
    enumeration where p <= 300, else by gcds with x^((p - 1)/2) -+ 1."""
    if p <= 300:
        cs = [c % p for c in f.coeffs]
        roots = [x for x in range(p) if sum(c * pow(x, i, p) for i, c in enumerate(cs)) % p == 0]
        signs = [pow(x, (p - 1) // 2, p) for x in roots]
        return len(roots), sum(1 if s == 1 else -1 for s in signs if s)
    fbar = ModPoly(p, f.coeffs).monic()
    half = mod_pow(ModPoly(p, (0, 1)), (p - 1) // 2, fbar)
    plus, minus = (mod_gcd(fbar, half - ModPoly(p, (c,))).degree for c in (1, -1))
    return plus + minus + (f.coeffs[0] % p == 0), plus - minus


def _assert_engine_matches_references(f, primes):
    expected = [degree_pattern_mod(f, PrimeCtx(p)) for p in primes]
    assert degree_patterns_mod(f, primes) == expected
    assert with_none(*linear_factor_counts(f, primes)) == [None if pat is None else pat.count(1)
                                                           for pat in expected]
    live = [p for p in primes if f.lead % p]
    counts = [_signed_roots(f, p) for p in live]
    assert root_counts(f.coeffs, live).tolist() == [n for n, _ in counts]
    assert root_counts(f.coeffs, live, signed=True).tolist() == [s for _, s in counts]


@settings(max_examples=8, deadline=None)
@given(_high_degree_polys())
def test_engine_matches_references_at_high_degree_hypothesis(f):
    # every odd prime up to 300, where p | lead(f), p | disc(f) and p <= deg f are common
    _assert_engine_matches_references(f, primes_in(PrimeRange(3, 300)))


def test_engine_matches_references_at_high_degree_across_the_exactness_bound():
    # the lead's factor 2^31 - 1 is one of the primes: there the lift of f mod p is scanned
    rng = random.Random(31)
    f = IntPoly.from_roots([3, 3, -5, 2**40]) * IntPoly(
        [rng.randint(-(2**100), 2**100) for _ in range(26)] + [2**31 - 1])
    assert f.degree == 30
    _assert_engine_matches_references(f, _straddling_primes())


def _assert_stickelberger(f: IntPoly, primes):
    """(-1)^(d - r) = (disc f / p) at every odd prime dividing neither lead(f)
    nor disc(f), r the number of irreducible factors of f mod p (Stickelberger)."""
    d = f.degree
    disc = (-1) ** (d * (d - 1) // 2) * polynomials._resultant(f, f.derivative()) // f.lead
    assert disc
    checked = 0
    for p, pattern in zip(primes, degree_patterns_mod(f, primes)):
        if f.lead % p and disc % p and pattern is not None:
            chi = 1 if pow(disc, (p - 1) // 2, p) == 1 else -1
            assert (-1) ** (d - len(pattern)) == chi, (str(f), p, pattern)
            checked += 1
    assert checked > len(primes) // 2


def test_degree_patterns_keep_stickelbergers_parity():
    # a check that shares no code with the engine: the resultant by
    # subresultants over Z and Euler's criterion in Python ints
    primes = primes_in(PrimeRange(3, 2 * 10**4))
    rng = random.Random(1967)
    fs = [parse_int_poly("x^3 + x + 1")]
    for d in range(3, 13):
        fs.append(IntPoly([rng.randint(-50, 50) for _ in range(d)] + [rng.choice([1, 2, 3, -7])]))
    for f in fs:
        _assert_stickelberger(f, primes)
    _assert_stickelberger(parse_int_poly("x^41 + x + 1"), primes_in(PrimeRange(3, 2000)))


def test_batched_frobenius_above_two_to_the_sixty_one():
    # is_prime over a short window: primes_in would first sieve up to sqrt(hi)
    primes = [n for n in range(2**61 - 300, 2**61 + 300) if is_prime(n)]
    assert 2**61 - 1 in primes and primes[-1] > 2**61
    for f in _builtin_fs() + [parse_int_poly("6*x^3 + x + 1")]:
        _assert_batch_matches_per_prime(f, primes)


def _lazy_window(d):
    """The primes within 300 of where _lazy_products(p) falls below d."""
    lo, hi = 3, FROB_LIMIT  # _lazy_products(lo) >= d > _lazy_products(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _lazy_products(mid) >= d else (lo, mid)
    return [n for n in range(hi - 300, hi + 300) if is_prime(n)]


@pytest.mark.parametrize("d, fs", [
    (3, ["(x+23)*(x-32)*(x+32)", "6*x^3 + x + 1"]),
    (9, ["x^9 - x + 1", "3*x^9 + 2*x^5 - 7*x^2 + x + 1", "(x^3 - 2)*(x^2 + 1)*(x-5)*(x+6)*(x^2 + x + 3)"]),
], ids=["d3_near_1.75e9", "d9_near_1.0e9"])
def test_batched_frobenius_where_the_lazy_sums_shrink_below_d(d, fs):
    # below the window's bound a block sums all d products of a coefficient
    # before it reduces; a block that reaches past it reduces in between
    primes = _lazy_window(d)
    below = [p for p in primes if _lazy_products(p) >= d]
    assert below and len(below) < len(primes) and _lazy_products(primes[-1]) < d
    for f in map(parse_int_poly, fs):
        assert f.degree == d
        expected = [degree_pattern_mod(f, PrimeCtx(p)) for p in primes]
        assert degree_patterns_mod(f, below) == expected[: len(below)]
        assert degree_patterns_mod(f, primes) == expected
        assert with_none(*linear_factor_counts(f, primes)) == [None if pat is None else pat.count(1)
                                                               for pat in expected]


def _assert_counts_match_per_prime(f, primes):
    counts = with_none(*linear_factor_counts(f, primes))
    for p, n in zip(primes, counts):
        pattern = degree_pattern_mod(f, PrimeCtx(p))
        assert n == (None if pattern is None else pattern.count(1)), p
        if n is not None:
            assert n == root_count_mod(f, PrimeCtx(p)), p


@pytest.mark.parametrize("i", range(3), ids=["shift_square", "linear_twist", "big_rank"])
def test_linear_factor_counts_match_per_prime_to_ten_thousand(i):
    _assert_counts_match_per_prime(_builtin_fs()[i], primes_in(PrimeRange(3, 10**4)))


@settings(max_examples=15, deadline=None)
@given(_polys(), st.sets(st.sampled_from(primes_in(PrimeRange(301, 10**4))), max_size=20))
def test_linear_factor_counts_match_per_prime_hypothesis(f, larger):
    # every odd prime up to 10^4 against root_count_mod and the batched
    # patterns; the per-prime factorization on the primes up to 300, where
    # p | lead(f) and p | disc(f) are common, and on a sample of the rest
    primes = primes_in(PrimeRange(3, 10**4))
    counts = with_none(*linear_factor_counts(f, primes))
    assert counts == [None if pat is None else pat.count(1) for pat in degree_patterns_mod(f, primes)]
    for p, n in zip(primes, counts):
        if n is not None:
            assert n == root_count_mod(f, PrimeCtx(p)), p
    _assert_counts_match_per_prime(f, primes_in(PrimeRange(3, 300)) + sorted(larger))


def test_batched_frobenius_never_takes_the_per_prime_path(monkeypatch):
    # primes that divide lead(f), down to a constant lift, and primes from
    # 2^31 on all go through frobenius_rows, not the ModPoly reference
    fs = _builtin_fs() + [parse_int_poly(s) for s in (
        "105*x^5 + 3*x^2 + 10*x + 1", "15*x^2 + 5*x + 7", "6*x^3 + x + 1", "35*x^4 - 7")]
    primes = primes_in(PrimeRange(3, 300)) + _straddling_primes()
    assert all(any(f.lead % p == 0 for p in primes) for f in fs[2:])
    expected = [[degree_pattern_mod(f, PrimeCtx(p)) for p in primes] for f in fs]
    assert () in expected[4] and None in expected[6]

    def refuse(*args, **kwargs):
        raise AssertionError("degree_patterns_mod took the per-prime path")

    for name in ("degree_pattern_mod", "mod_pow", "mod_gcd", "ModPoly"):
        monkeypatch.setattr(polynomials, name, refuse)
    assert [degree_patterns_mod(f, primes) for f in fs] == expected


def test_batched_frobenius_across_block_boundaries(monkeypatch):
    primes = primes_in(PrimeRange(3, 2000))
    expected = [degree_patterns_mod(f, primes) for f in _builtin_fs()]
    monkeypatch.setattr(_kernels, "FROB_BLOCK", 5)
    assert [degree_patterns_mod(f, primes) for f in _builtin_fs()] == expected


# ---------------------------------------------------------------------------
# the split route: integer roots of f split off, the chain on the cofactor


def _split_f(content, roots, mults, g):
    """content * (x - r_1)^(m_1) ... (x - r_n)^(m_n) * g."""
    f = IntPoly(g) * content
    for r, m in zip(roots, mults):
        f = f * IntPoly((-r, 1)) ** m
    return f


@st.composite
def _split_polys(draw):
    content = draw(st.integers(2, 105)) * draw(st.sampled_from([1, -1]))
    roots = draw(st.lists(st.integers(-50, 50), min_size=0, max_size=5, unique=True))
    mults = draw(st.lists(st.sampled_from([1, 2]), min_size=len(roots), max_size=len(roots)))
    low = draw(st.lists(st.integers(-30, 30), min_size=0, max_size=3))
    g = low + [draw(st.sampled_from([1, 2, 3, -5, 7, 11]))]
    f = _split_f(content, roots, mults, g)
    if f.degree < 1:
        f = f * IntPoly((-7, 1))
    return f


_ODD_PRIMES_2000 = primes_in(PrimeRange(3, 2000))


def _assert_split_route_matches_modpoly(f):
    patterns = degree_patterns_mod(f, _ODD_PRIMES_2000)
    counts = with_none(*linear_factor_counts(f, _ODD_PRIMES_2000))
    for p, pattern, n in zip(_ODD_PRIMES_2000, patterns, counts):
        ctx = PrimeCtx(p)
        assert pattern == degree_pattern_mod(f, ctx), (str(f), p)
        assert n == (None if pattern is None else root_count_mod(f, ctx)), (str(f), p)


# 3 divides the lead and 4 - 1, 17 divides g(4) = 17 and 2 divides g(1) = 2;
# the double root 4 makes f ramified at every prime
@pytest.mark.parametrize("content, roots, mults, g", [
    (3, (1, 4), (1, 1), (1, 0, 1)),
    (3, (1, 4), (1, 2), (1, 0, 1)),
    (5, (-7, 3, 0), (1, 1, 1), (1,)),
    (6, (2, -13), (1, 1), (1, 1, 1, 2)),
    (15, (), (), (3, 0, 2, 1)),
], ids=["lead_diff_value", "double_root", "fully_split", "cubic_cofactor", "no_root"])
def test_split_route_matches_modpoly_examples(content, roots, mults, g):
    _assert_split_route_matches_modpoly(_split_f(content, roots, mults, g))


@settings(max_examples=40, deadline=None)
@given(_split_polys())
def test_split_route_matches_modpoly_hypothesis(f):
    # f = c * prod (x - r_i)^(m_i) * g with roots in [-50, 50], m_i in {1, 2},
    # deg g <= 3 and content c > 1: at every odd prime up to 2000, where p
    # divides the lead, a difference r_i - r_j or a value g(r_i) often,
    # against the per-prime ModPoly references
    _assert_split_route_matches_modpoly(f)


def test_split_route_takes_no_chain_for_a_split_f(monkeypatch):
    primes = primes_in(PrimeRange(3, 5000))
    f = _split_f(6, (1, -2, 3, 5, -8), (1, 1, 1, 1, 1), (1,))
    expected = [degree_patterns_mod(f, primes), with_none(*linear_factor_counts(f, primes))]

    def refuse(*args, **kwargs):
        raise AssertionError("the Frobenius chain ran on a split f")

    monkeypatch.setattr(polynomials, "frobenius_gcd_degrees", refuse)
    assert [degree_patterns_mod(f, primes), with_none(*linear_factor_counts(f, primes))] == expected
    # 3 divides the content (f mod 3 = 0), 7 and 13 a difference of roots
    assert [expected[1][primes.index(p)] for p in (3, 7, 13, 17)] == [None, None, None, 5]
    assert expected[1][-1] == 5 and expected[0][-1] == (1, 1, 1, 1, 1)


def _fraction_resultant(a, b):
    """Res(a, b) by Euclid over Q: Res(a, b) = (-1)^(deg a deg b)
    lead(b)^(deg a - deg r) Res(b, r), r = a mod b, down to c^(deg a)."""
    a = [Fraction(c) for c in a.coeffs]
    b = [Fraction(c) for c in b.coeffs]
    acc = Fraction(1)
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):
            c, k = r[-1] / b[-1], len(r) - len(b)
            for j, v in enumerate(b):
                r[k + j] -= c * v
            while r and not r[-1]:
                r.pop()
        if not r:
            return 0
        if (len(a) - 1) * (len(b) - 1) % 2:
            acc = -acc
        acc *= b[-1] ** (len(a) - len(r))
        a, b = b, r
    return int(acc * b[-1] ** (len(a) - 1)) if b else 0


def test_subresultant_matches_euclid_over_q():
    rng = random.Random(2027)
    for _ in range(300):
        bits = rng.choice([3, 20, 90])
        a, b = (IntPoly([rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, 10))])
                for _ in range(2))
        if rng.random() < 0.3:  # a common factor, so that Res = 0
            common = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(2, 3))])
            a, b = a * common, b * common
        if rng.random() < 0.3:  # contents
            a, b = a * rng.randint(2, 40), b * rng.randint(-40, -2)
        for u, v in ((a, b), (b, a), (a, a.derivative())):
            assert polynomials._resultant(u, v) == _fraction_resultant(u, v), (str(u), str(v))
    assert polynomials._resultant(IntPoly((3,)), IntPoly((1, 2, 1))) == 9
    assert polynomials._resultant(IntPoly((1, 2, 1)), IntPoly((-3,))) == 9
    assert polynomials._resultant(IntPoly((5,)), IntPoly((7,))) == 1
    assert polynomials._resultant(IntPoly(()), IntPoly((1, 1))) == 0


@pytest.mark.parametrize("p", [10007, 2**31 - 1, 2**31 + 11], ids=["1e4", "below_2^31", "above_2^31"])
def test_gcd_degrees_match_mod_gcd(p):
    # one column per case at one prime: a seeded monic f-bar with h = 0, 1,
    # every coefficient p - 1 and random h; and f-bar = (x - r_1)...(x - r_d)
    # with h a unit times (x - r_1)...(x - r_k), k < d, so that every gcd
    # degree 0..d occurs
    rng = random.Random(p)
    dtype = np.int64 if p < FROB_LIMIT else object
    for d in [*range(1, 10), 40]:
        fbar = [rng.randrange(p) for _ in range(d)] + [1]
        cases = [(fbar, [0] * d), (fbar, [1] + [0] * (d - 1)), (fbar, [p - 1] * d)]
        cases += [(fbar, [rng.randrange(p) for _ in range(d)]) for _ in range(3)]
        linear = [ModPoly(p, (-r, 1)) for r in rng.sample(range(p), d)]
        split, part = ModPoly(p, (1,)), ModPoly(p, (rng.randrange(1, p),))
        for factor in linear:
            split = split * factor
        for factor in linear:
            cases.append((split.coeffs, list(part.coeffs) + [0] * (d - len(part.coeffs))))
            part = part * factor
        neg_m, h = (np.array([[-c % p for c in f[:-1]] for f, _ in cases], dtype=dtype).T,
                    np.array([h for _, h in cases], dtype=dtype).T)
        got = _gcd_degrees(h, neg_m, np.full(len(cases), p, dtype=dtype)).tolist()
        want = [mod_gcd(ModPoly(p, f), ModPoly(p, h)).degree for f, h in cases]
        assert got == want, d
        assert sorted(got[6:]) == list(range(d)) and got[0] == d


def _mulmod_reference(a, b, neg_m, p):
    """a * b mod x^d - neg_m(x) over p, in Python ints."""
    d = len(a)
    prod = [sum(a[i] * b[c - i] for i in range(d) if 0 <= c - i < d) for c in range(2 * d - 1)]
    for c in range(2 * d - 2, d - 1, -1):
        for j in range(d):
            prod[c - d + j] += prod[c] % p * neg_m[j]
    return [v % p for v in prod[:d]]


@pytest.mark.parametrize("p", [2**31 - 1, 1753413059, 1012333519, 10**7 + 19, 10007],
                         ids=["k2", "k2_near_1.75e9", "k8_near_1.0e9", "1e7", "1e4"])
def test_mulmod_sums_no_more_products_than_int64_holds(p):
    # all residues p - 1 make every partial sum as large as it can be
    assert is_prime(p)
    rng = random.Random(p)
    k = _lazy_products(p)
    for d in (1, 2, 3, 5, 9):
        cases = [[[p - 1] * d] * 3] + [[[rng.randrange(p) for _ in range(d)] for _ in range(3)]
                                       for _ in range(3)]
        for a, b, neg_m in cases:
            got = _mulmod(*(np.array(v, dtype=np.int64).reshape(d, 1) for v in (a, b, neg_m)),
                          np.array([p], dtype=np.int64), k)
            assert got[:, 0].tolist() == _mulmod_reference(a, b, neg_m, p), (d, k)


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
        assert [root_count_mod(f, PrimeCtx(p)) for p in live] == [
            c for c, _ in expected if c is not None], str(f)
