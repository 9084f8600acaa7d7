import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyprank._kernels import correlation_row, first_sum_vec, horner_vec, trace_row_vec
from hyprank.curves import HyperFamily, hasse_weil_bound, t_coeff_rows, trace_of_poly, trace_row
from hyprank.finite_field import PrimeCtx, _small_primes
from hyprank.polynomials import BiPoly, IntPoly, mod_gcd, parse_bipoly, reduce_mod


def fam_of(text, genus, label="test", bad=()):
    return HyperFamily(label, genus, parse_bipoly(text), frozenset(bad))


def test_family_validation():
    fam_of("x^3 + x + T", 1)
    with pytest.raises(ValueError):
        fam_of("x^3 + x + T", 2)  # genus mismatch
    with pytest.raises(ValueError):
        fam_of("x^4 + T", 1)  # even x-degree
    with pytest.raises(ValueError):
        HyperFamily("g0", 0, parse_bipoly("x + T"))
    with pytest.raises(ValueError):
        # (x + T)^2 * (x + 1): generic fiber has a double root
        fam_of("(x + T)*(x + T)*(x + 1)", 1)


def test_family_json_round_trip():
    fam = fam_of("x^5 + x*T + 3", 2, bad=(3, 11))
    back = HyperFamily.from_json(fam.to_json())
    assert back.label == fam.label
    assert back.genus == fam.genus
    assert back.F == fam.F
    assert back.bad_primes == frozenset({3, 11})


def fiber_trace(fam, t, ctx):
    return trace_of_poly(fam.F.specialize_t(t), ctx)


def test_trace_examples():
    ctx = PrimeCtx(5)
    fam = fam_of("x^3 + x + T", 1)
    assert fiber_trace(fam, 0, ctx) == 2  # y^2 = x^3 + x has 4 points over F_5
    cusp = fam_of("x^3 + T", 1)
    assert fiber_trace(cusp, 0, ctx) == 0  # cubing permutes F_5
    # all non-constant coefficients divisible by p, constant a nonzero square
    fam7 = fam_of("7*x^3 + 7*x + 4 + 7*T", 1)
    assert fiber_trace(fam7, 1, PrimeCtx(7)) == -7


def test_trace_respects_bad_primes():
    fam = fam_of("x^3 + x + T", 1, bad=(5,))
    with pytest.raises(ValueError):
        trace_row(fam, PrimeCtx(5))


def test_trace_row_shape_and_sums():
    cusp = fam_of("x^3 + T", 1)
    row = trace_row(cusp, PrimeCtx(5))
    assert len(row) == 5
    assert sum(row) == 0  # inner t-sum is a complete linear character sum
    assert len(trace_row(cusp, PrimeCtx(3))) == 3
    shift = fam_of("x^3 + T^2", 1)
    assert sum(trace_row(shift, PrimeCtx(7))) == 0  # (L_f - 1) p with L_f = 1 for x^3


@pytest.mark.parametrize("text,genus", [("x^3 + x + T", 1), ("x^5 + x^2*T + T^2 + 3", 2)])
def test_trace_row_matches_pointwise_trace(text, genus):
    fam = fam_of(text, genus)
    for p in (3, 5, 11, 17):
        ctx = PrimeCtx(p)
        row = trace_row(fam, ctx)
        assert row == [fiber_trace(fam, t, ctx) for t in range(p)]


def test_trace_equals_point_count():
    # a(p) = p + 1 - #points, counting affine solutions plus one at infinity
    fam = fam_of("x^3 + x + T", 1)
    for p in [p for p in _small_primes(100) if p > 2]:
        ctx = PrimeCtx(p)
        for t in range(min(p, 6)):
            fx = fam.F.specialize_t(t)
            fbar = reduce_mod(fx, ctx)
            affine = 0
            for x in range(p):
                v = fbar.evaluate(x)
                if v == 0:
                    affine += 1
                elif pow(v, (p - 1) // 2, p) == 1:
                    affine += 2
            assert trace_of_poly(fx, ctx) == p + 1 - (affine + 1)


def test_vector_kernel_matches_scalar_sum():
    import random

    from hyprank.finite_field import legendre
    from hyprank.polynomials import IntPoly

    rng = random.Random(42)
    for p in (3, 5, 13, 101, 257):
        ctx = PrimeCtx(p)
        for _ in range(5):
            f = IntPoly([rng.randint(-(10**9), 10**9) for _ in range(rng.randint(1, 8))])
            fbar = reduce_mod(f, ctx)
            scalar = -sum(legendre(fbar.evaluate(x), ctx) for x in range(p))
            assert trace_of_poly(f, ctx) == scalar


def test_hasse_weil_on_good_fibers():
    fam = fam_of("x^3 + x + T", 1)
    for p in [p for p in _small_primes(60) if p > 2]:
        ctx = PrimeCtx(p)
        bound = hasse_weil_bound(fam.genus, p)
        row = trace_row(fam, ctx)
        for t in range(p):
            fx = fam.F.specialize_t(t)
            fbar = reduce_mod(fx, ctx)
            if fbar.degree != 3:
                continue
            if mod_gcd(fbar, fbar.derivative()).degree != 0:
                continue  # singular fiber: the bound may fail
            assert abs(row[t]) <= bound


# ---------------------------------------------------------------------------
# differential checks of the dense engine against Euler's criterion


def euler_trace_row(F: BiPoly, p: int) -> list[int]:
    """-sum_x (F(x, t)/p) for t = 0..p-1 by literal enumeration, without chi."""
    row = []
    for t in range(p):
        s = 0
        for x in range(p):
            v = sum(c * pow(x, i, p) * pow(t, j, p) for (i, j), c in F.terms.items()) % p
            if v:
                s += 1 if pow(v, (p - 1) // 2, p) == 1 else -1
        row.append(-s)
    return row


ENGINE_PRIMES = [p for p in _small_primes(31) if p > 2]


@settings(max_examples=60, deadline=None)
@given(
    genus=st.integers(1, 2),
    lower=st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.one_of(st.integers(-9, 9), st.integers(-(2**100), 2**100)),
        max_size=6,
    ),
    lead_t=st.integers(0, 4),
    scale=st.sampled_from(["one", "p", "huge"]),
    p=st.sampled_from(ENGINE_PRIMES),
)
@example(genus=1, lower={(1, 4): 2, (0, 1): 3}, lead_t=0, scale="p", p=7)
@example(genus=2, lower={(2, 4): 3, (0, 1): -1, (0, 0): 2}, lead_t=0, scale="one", p=13)
def test_trace_row_matches_euler_enumeration(genus, lower, lead_t, scale, p):
    n = 2 * genus + 1
    terms = {(i, j): c for (i, j), c in lower.items() if i < n}
    terms[(n, lead_t)] = 1
    s = {"one": 1, "p": p, "huge": 3**70 * p + 1}[scale]  # "p": F = 0 mod p
    F = BiPoly({k: s * c for k, c in terms.items()})
    try:
        fam = HyperFamily("h", genus, F)
    except ValueError:
        assume(False)
    assert trace_row(fam, PrimeCtx(p)) == euler_trace_row(F, p)


QUAD_PRIMES = [p for p in _small_primes(61) if p > 2]


@settings(max_examples=60, deadline=None)
@given(
    genus=st.integers(1, 2),
    lower=st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 2)),
        st.one_of(st.integers(-9, 9), st.integers(-(2**100), 2**100)),
        max_size=6,
    ),
    lead_t=st.integers(0, 2),
    scale=st.sampled_from(["one", "p", "huge"]),
    drop_t2=st.booleans(),
    p=st.sampled_from(QUAD_PRIMES),
)
# a = b = 0 at x = 1: F = x^3 + (x - 1) T^2 + (x - 1) T + 2
@example(genus=1, lower={(1, 2): 1, (0, 2): -1, (1, 1): 1, (0, 1): -1, (0, 0): 2},
         lead_t=0, scale="one", drop_t2=False, p=5)
# a = 0 at x = 0 with b != 0 there: F = x^3 + x T^2 + T + 1
@example(genus=1, lower={(1, 2): 1, (0, 1): 1, (0, 0): 1}, lead_t=0, scale="one",
         drop_t2=False, p=7)
# the T^2 coefficient is divisible by p, so deg_T drops to 1 mod p
@example(genus=2, lower={(2, 2): 3, (0, 2): 1, (1, 1): 2, (0, 0): -1}, lead_t=0,
         scale="one", drop_t2=True, p=11)
@example(genus=2, lower={(4, 1): 5, (0, 2): 1, (0, 0): 3}, lead_t=2, scale="p",
         drop_t2=False, p=13)
@example(genus=1, lower={(2, 1): -(2**100), (0, 2): 2**99 + 1}, lead_t=1, scale="huge",
         drop_t2=False, p=61)
def test_first_sum_vec_matches_dense_and_euler(genus, lower, lead_t, scale, drop_t2, p):
    n = 2 * genus + 1
    terms = {(i, j): c for (i, j), c in lower.items() if i < n}
    terms[(n, lead_t)] = 1
    if drop_t2:
        terms = {(i, j): c * p if j == 2 else c for (i, j), c in terms.items()}
    s = {"one": 1, "p": p, "huge": 3**70 * p + 1}[scale]  # "p": F = 0 mod p
    F = BiPoly({k: s * c for k, c in terms.items()})
    try:
        fam = HyperFamily("q", genus, F)
    except ValueError:
        assume(False)
    ctx = PrimeCtx(p)
    swapped = first_sum_vec(t_coeff_rows(fam, ctx), ctx)
    assert swapped == sum(trace_row(fam, ctx)) == sum(euler_trace_row(F, p))


COEFF = st.one_of(st.integers(-9, 9), st.integers(-(2**100), 2**100))


@settings(max_examples=80, deadline=None)
@given(
    c=st.lists(COEFF, max_size=5),
    g_roots=st.lists(st.integers(0, 60), max_size=3),
    g_cofactor=st.lists(COEFF, min_size=1, max_size=3),
    w=st.lists(COEFF, min_size=1, max_size=5),
    p=st.sampled_from(QUAD_PRIMES),
)
@example(c=[], g_roots=[1], g_cofactor=[2], w=[0, 1, 0, 3], p=7)  # c = 0
@example(c=[5, 0, 10], g_roots=[], g_cofactor=[0, 5], w=[1, 2], p=5)  # F = 0 mod p
@example(c=[1, 2], g_roots=[], g_cofactor=[1], w=[4], p=11)  # W constant: no T at all
@example(c=[1], g_roots=[0, 1, 2], g_cofactor=[1], w=[0, 1], p=3)  # g vanishes at every x
@example(c=[2**100 + 1, -(2**99)], g_roots=[4, 9], g_cofactor=[-(2**100) + 3],
         w=[2**100, 0, -(2**100) - 1], p=61)
def test_correlation_row_matches_dense_and_euler(c, g_roots, g_cofactor, w, p):
    """F = c(x) + g(x) W(T), g with prescribed roots mod p, deg_T W <= 4."""
    c, g = IntPoly(c), IntPoly.from_roots(g_roots) * IntPoly(g_cofactor)
    F = BiPoly.from_x_poly(c)
    for j, wj in enumerate(w):
        F = F + BiPoly.from_x_poly(g * wj, t_power=j)
    xs = np.arange(p, dtype=np.int64)
    rows = [horner_vec((c + g * w[0]).coeffs, xs, p)]
    rows += [None if wj % p == 0 else horner_vec((g * wj).coeffs, xs, p) for wj in w[1:]]
    ctx = PrimeCtx(p)
    assert correlation_row(rows, ctx) == trace_row_vec(rows, ctx) == euler_trace_row(F, p)


def test_correlation_row_declines_rows_that_are_not_proportional():
    for text in ("x^3 + x*T^2 + T + 1", "x^3 + x*T^3 + T + 1"):
        fam = fam_of(text, 1)
        ctx = PrimeCtx(101)
        assert correlation_row(t_coeff_rows(fam, ctx), ctx) is None


def test_first_sum_vec_refuses_cubic_rows():
    fam = fam_of("x^3 + x*T^3 + 1", 1)
    ctx = PrimeCtx(5)
    with pytest.raises(ValueError, match="deg_T F <= 2"):
        first_sum_vec(t_coeff_rows(fam, ctx), ctx)


def test_trace_row_refuses_many_rows():
    F = BiPoly({(3, 0): 1, **{(0, j): 1 for j in range(1, 2049)}})
    fam = HyperFamily("wide", 1, F)
    with pytest.raises(ValueError, match="2049 nonzero T-coefficient rows"):
        trace_row(fam, PrimeCtx(5))


def test_dense_paths_fail_fast_above_table_limit():
    ctx = PrimeCtx(67108879)  # the first prime above 2^26
    fam = fam_of("x^3 + x + T", 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            trace_row(fam, ctx)
        with pytest.raises(ValueError):
            trace_of_poly(fam.F.specialize_t(1), ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
